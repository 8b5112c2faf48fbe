import numpy as np
import pytest

import golden
from frameforge import (
    Subset,
    build_cube_matrix,
    certify_two_eigenvalue,
    cube_necessary_conditions,
    cyclic,
    direct_product,
    nmu_excluded,
    quaternion8,
    unique_square_root,
    verify_quasi_signature_pair,
    verify_signature_pair,
)
from frameforge.matrices import TwoEigenvalueCertificate, border_standard
from frameforge.subsets import (
    complement_nonidentity,
    pair_count_table,
    seidel_coefficients,
    seidel_identity,
)
from frameforge.verdicts import Rejection

from conftest import all_cube_assignments
from test_matrices import eis_from_tokens


def identity_mu(group, kind, s, t):
    """The mu the group-algebra identity gives for (S, T), or None."""
    holds, mu = seidel_identity(group, kind, *seidel_coefficients(group.order, kind, [(s, t)]))
    return int(mu[0]) if holds[0] else None


def test_build_all_ones():
    g = cyclic(3)
    m = build_cube_matrix(g, Subset.of(3, [1, 2]), Subset.empty(3))
    assert np.array_equal(m.a, np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    assert not m.b.any()


def test_build_omega_circulant():
    g = cyclic(3)
    m = build_cube_matrix(g, Subset.empty(3), Subset.of(3, [1]))
    assert m == eis_from_tokens(golden.OMEGA_CIRCULANT_3_TOKENS)


def test_build_quaternion_core(q8):
    core = build_cube_matrix(q8, q8.subset(["-1"]), q8.subset(["i", "j", "k"]))
    assert border_standard(core) == eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)


def test_partition_rejects_overlap():
    g = cyclic(5)
    with pytest.raises(ValueError):
        build_cube_matrix(g, Subset.of(5, [1, 4]), Subset.of(5, [4]))


def test_pair_z3_all_ones():
    g = cyclic(3)
    verdict = verify_signature_pair(g, Subset.of(3, [1, 2]), Subset.empty(3))
    assert verdict.ok and verdict.mu == 1
    assert (verdict.params.n, verdict.params.k) == (3, 1)


def test_pair_z3_omega():
    g = cyclic(3)
    verdict = verify_signature_pair(g, Subset.empty(3), Subset.of(3, [1]))
    assert verdict.ok and verdict.mu == 1
    assert (verdict.params.n, verdict.params.k) == (3, 1)


def test_pair_rejects_quaternion_unbordered(q8):
    reject = verify_signature_pair(q8, q8.subset(["-1"]), q8.subset(["i", "j", "k"]))
    assert isinstance(reject, Rejection)
    assert reject.reason == "not-two-eigenvalue"


def test_pair_rejects_broken_closure():
    g = cyclic(7)
    # T = {1, 6} is inverse-closed, so V = T^-1 fails (V = {2,3,4,5} here)
    reject = verify_signature_pair(g, Subset.empty(7), Subset.of(7, [1, 6]))
    assert reject.reason == "v-neq-t-inverse"
    reject = verify_signature_pair(g, Subset.of(7, [1]), Subset.of(7, [2]))
    assert reject.reason == "s-not-inverse-closed"


def test_pair_rejects_non_real_mu():
    # C5 with S empty, T = {2,4}: closure holds (V = {1,3} = T^-1) but the
    # squared matrix is not a rational multiple of Q anywhere
    g = cyclic(5)
    reject = verify_signature_pair(g, Subset.empty(5), Subset.of(5, [2, 4]))
    assert isinstance(reject, Rejection)
    assert reject.reason in ("mu-not-real", "not-two-eigenvalue")


def test_quasi_pair_quaternion(q8):
    verdict = verify_quasi_signature_pair(q8, q8.subset(["-1"]), q8.subset(["i", "j", "k"]))
    assert verdict.ok and verdict.mu == -2
    assert (verdict.params.n, verdict.params.k) == (9, 6)


def test_quasi_pair_trivial_border():
    for g in (cyclic(3), cyclic(5), quaternion8()):
        verdict = verify_quasi_signature_pair(
            g, Subset.full_nonidentity(g.order), Subset.empty(g.order)
        )
        assert verdict.ok
        assert verdict.mu == g.order - 1  # n - 2 with n = |G| + 1
        assert verdict.params.k == 1


def test_quasi_pair_z3():
    g = cyclic(3)
    verdict = verify_quasi_signature_pair(g, Subset.of(3, [1, 2]), Subset.empty(3))
    assert verdict.ok and verdict.mu == 2
    assert (verdict.params.n, verdict.params.k) == (4, 1)


def test_cube_necessary_conditions():
    assert cube_necessary_conditions(9, -2) == (True, [])
    assert cube_necessary_conditions(33, 4) == (True, [])
    ok, reasons = cube_necessary_conditions(10, 1)
    assert not ok and "n-not-divisible-by-3" in reasons
    ok, reasons = cube_necessary_conditions(9, 0)
    assert not ok and "mu-not-1-mod-3" in reasons


def test_cube_necessary_conditions_quasi():
    ok, _ = cube_necessary_conditions(9, -2, quasi=True)
    assert ok
    # (9, 7) is the trivial mu = n-2 line and passes everything
    assert cube_necessary_conditions(9, 7, quasi=True)[0]
    ok, reasons = cube_necessary_conditions(9, 0, quasi=True)
    assert not ok
    assert "s-size-not-admissible" in reasons and "t-size-not-admissible" in reasons


def test_unique_square_root():
    assert unique_square_root(cyclic(9), 2) == 1
    assert unique_square_root(cyclic(3), 1) == 2
    assert unique_square_root(cyclic(15), 4) == 2
    with pytest.raises(ValueError):
        unique_square_root(cyclic(6), 2)
    with pytest.raises(ValueError):
        unique_square_root(quaternion8(), 1)


@pytest.mark.parametrize("x", [-1, 5])
def test_unique_square_root_refuses_an_index_out_of_range(x):
    # x = -1 used to end in "internal: square root not unique"
    with pytest.raises(ValueError, match=f"element index {x} out of range"):
        unique_square_root(cyclic(5), x)


def test_unique_square_root_everywhere():
    for g in (cyclic(9), cyclic(15), direct_product(cyclic(3), cyclic(3))):
        for x in range(1, g.order):
            h = unique_square_root(g, x)
            assert h != 0 and int(g.mul[h, h]) == x


def test_nmu_excluded():
    assert nmu_excluded(9, -2, True)
    assert nmu_excluded(33, 4, True)
    assert not nmu_excluded(9, 1, True)
    assert not nmu_excluded(9, -2, False)


def test_counting_identities_on_acceptances():
    # the three-way count sums hold on every accepted pair found by search
    from frameforge import SearchSpec, search

    checked = 0
    for g in (cyclic(3), cyclic(4), cyclic(6), cyclic(7), quaternion8(),
              direct_product(cyclic(2), cyclic(2))):
        for hit in search(SearchSpec(group=g, kind="cube-pair")):
            s, t = hit.verdict.subset, hit.verdict.t_subset
            n, mu = hit.verdict.params.n, hit.verdict.mu
            v = complement_nonidentity(s.union(t))
            ct = {
                (x, y): pair_count_table(g, xs, ys)
                for x, xs in (("s", s), ("t", t), ("v", v))
                for y, ys in (("s", s), ("t", t), ("v", v))
            }
            for x in s:
                total = int(ct[("s", "t")][x] + ct[("t", "s")][x] + ct[("t", "t")][x])
                assert 3 * total == n - 2 - mu
            for h in t:
                total = int(ct[("v", "v")][h] + ct[("s", "t")][h] + ct[("s", "v")][h])
                assert 3 * total == mu + n - 1
            for h in v:
                total = int(ct[("t", "t")][h] + ct[("s", "t")][h] + ct[("s", "v")][h])
                assert 3 * total == mu + n - 1
            checked += 1
    assert checked >= 6  # the trivial lines plus the omega-weighted C3 pairs


def test_matrix_and_counting_criteria_agree_everywhere():
    # on every well-formed candidate of small groups, the exact matrix
    # identity and the per-element counting identities accept identically
    for g in (cyclic(3), cyclic(5), cyclic(7), direct_product(cyclic(2), cyclic(2))):
        for s, t in all_cube_assignments(g):
            from frameforge import inverse_set

            v = complement_nonidentity(s.union(t))
            if inverse_set(g, s) != s or inverse_set(g, t) != v:
                continue
            matrix_cert = certify_two_eigenvalue(build_cube_matrix(g, s, t))
            counted = identity_mu(g, "cube-pair", s, t)
            if isinstance(matrix_cert, TwoEigenvalueCertificate):
                assert counted == matrix_cert.mu
            else:
                assert counted is None

            bord = certify_two_eigenvalue(border_standard(build_cube_matrix(g, s, t)))
            counted_q = identity_mu(g, "cube-quasi", s, t)
            if isinstance(bord, TwoEigenvalueCertificate):
                assert counted_q == bord.mu
            else:
                assert counted_q is None


def test_involutions_forced_into_s(q8):
    # -1 is the unique involution; any candidate placing it in T or V fails
    reject = verify_signature_pair(q8, Subset.empty(8), q8.subset(["-1"]))
    assert isinstance(reject, Rejection)
    verdict = verify_quasi_signature_pair(q8, q8.subset(["-1"]), q8.subset(["i", "j", "k"]))
    assert verdict.ok and "-1" in verdict.subset.labels(q8)
