"""Cross-cutting invariants tied together over search output."""

from frameforge import (
    SearchSpec,
    certify_two_eigenvalue,
    complement_set,
    conjugate_subset,
    cube_necessary_conditions,
    cyclic,
    direct_product,
    quasi_signature_matrix,
    quaternion8,
    search,
    signature_matrix,
    verify_quasi_signature_set,
    verify_signature_set,
)
from conftest import small_groups_to_order_8


def signature_hits(group):
    return search(SearchSpec(group=group, kind="signature"))


def test_complement_duality_on_all_small_hits():
    for group in small_groups_to_order_8():
        for hit in signature_hits(group):
            v = hit.verdict
            dual = verify_signature_set(group, complement_set(group, v.subset))
            assert dual.ok
            assert dual.mu == -v.mu
            assert dual.params.k == group.order - v.params.k


def test_conjugation_invariance_on_all_small_hits():
    for group in small_groups_to_order_8():
        for hit in signature_hits(group):
            for t in range(group.order):
                conj = verify_signature_set(
                    group, conjugate_subset(group, hit.verdict.subset, t)
                )
                assert conj.ok and conj.params == hit.verdict.params


def test_parity_screen_never_contradicted():
    # every accepted signature set lives in an even-order group with even mu
    for group in small_groups_to_order_8():
        for hit in signature_hits(group):
            assert group.order % 2 == 0
            assert hit.verdict.mu % 2 == 0
            assert abs(hit.verdict.mu) <= group.order - 2


def test_quasi_band_screen_on_accepted_sets():
    # Cor-style band: accepted quasi sets always satisfy 2 - n/3 <= mu <= n/3 - 2
    for group in small_groups_to_order_8():
        if group.order % 2 == 0:
            continue
        for hit in search(SearchSpec(group=group, kind="quasi")):
            n, mu = hit.verdict.params.n, hit.verdict.mu
            assert 6 - n <= 3 * mu <= n - 6
            assert mu % 2 == 0 and n % 2 == 0


def test_cube_screens_on_nontrivial_pairs():
    # necessary (n, mu) conditions hold whenever both S and T are nonempty
    for group in (cyclic(3), cyclic(6), cyclic(7), direct_product(cyclic(2), cyclic(2)), quaternion8()):
        for hit in search(SearchSpec(group=group, kind="cube-pair")):
            v = hit.verdict
            if v.subset and v.t_subset:
                ok, reasons = cube_necessary_conditions(v.params.n, v.mu)
                assert ok, (group.name, hit.canonical_key, reasons)


def test_cube_quasi_cardinalities_on_acceptances():
    # |S| = (n + 2 mu - 2)/3 and |T| = (n - 2 - mu)/3 on every acceptance
    for group in (cyclic(3), cyclic(5), quaternion8()):
        for hit in search(SearchSpec(group=group, kind="cube-quasi")):
            v = hit.verdict
            n, mu = v.params.n, v.mu
            assert 3 * v.subset.size == n + 2 * mu - 2
            assert 3 * v.t_subset.size == n - 2 - mu


def test_matrix_certificates_agree_with_counting_everywhere():
    # real kinds: the counting verifier and the exact matrix identity make
    # identical accept/reject decisions on every inverse-closed candidate
    from frameforge import enumerate_inverse_closed
    from frameforge.verdicts import Rejection

    for group in (cyclic(6), cyclic(8), quaternion8(), cyclic(7)):
        for s in enumerate_inverse_closed(group):
            verdict = verify_signature_set(group, s)
            cert = certify_two_eigenvalue(signature_matrix(group, s))
            if group.order % 2:
                assert isinstance(verdict, Rejection)
            else:
                assert verdict.ok == (not isinstance(cert, Rejection))
                if verdict.ok:
                    assert verdict.mu == cert.mu

            quasi = verify_quasi_signature_set(group, s)
            bordered = certify_two_eigenvalue(quasi_signature_matrix(group, s))
            if quasi.ok:
                assert quasi.mu == bordered.mu and quasi.params == bordered.params
            elif group.order % 2 and not isinstance(bordered, Rejection):
                # the only accepted-by-matrix candidates the verifier refuses
                # are the out-of-band trivial ones
                assert not (6 - quasi_n(group) <= 3 * (2 * s.size - group.order + 1)
                            <= quasi_n(group) - 6)


def quasi_n(group):
    return group.order + 1


def test_every_mu_zero_acceptance_is_conference():
    for group in small_groups_to_order_8():
        for hit in signature_hits(group):
            if hit.verdict.mu == 0:
                q = signature_matrix(group, hit.verdict.subset)
                from frameforge import is_conference

                assert is_conference(q.a)


def test_accepted_quasi_sets_match_feasible_mu_screen():
    from frameforge import feasible_mu_values

    for m in (5, 13, 17):
        group = cyclic(m)
        allowed = set(feasible_mu_values(m + 1, "quasi"))
        for hit in search(SearchSpec(group=group, kind="quasi")):
            assert hit.verdict.mu in allowed
