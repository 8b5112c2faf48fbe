import pytest

from frameforge import (
    Subset,
    build_cube_matrix,
    certify_two_eigenvalue,
    complement_set,
    conjugate_subset,
    cyclic,
    direct_product,
    index2_subgroup_set,
    quasi_signature_matrix,
    quaternion8,
    signature_matrix,
    subgroup_generated,
    verify_quasi_signature_pair,
    verify_quasi_signature_set,
    verify_signature_pair,
    verify_signature_set,
)
from frameforge.verdicts import Rejection


def axis_set(group, n):
    """{a, .., a^(n-1), b, .., b^(n-1)} inside C_n x C_n."""
    labels = [f"({i},0)" for i in range(1, n)] + [f"(0,{i})" for i in range(1, n)]
    return group.subset(labels)


def axis_diag_set(group, n):
    """Axis set plus the diagonal {(i,i)}."""
    labels = (
        [f"({i},0)" for i in range(1, n)]
        + [f"(0,{i})" for i in range(1, n)]
        + [f"({i},{i})" for i in range(1, n)]
    )
    return group.subset(labels)


def test_c4xc4_axis_set(c4xc4):
    verdict = verify_signature_set(c4xc4, axis_set(c4xc4, 4))
    assert verdict.ok and verdict.mu == 2
    assert (verdict.params.n, verdict.params.k) == (16, 6)


def test_c2xc2_axis_set():
    g = direct_product(cyclic(2), cyclic(2))
    verdict = verify_signature_set(g, axis_set(g, 2))
    assert verdict.ok and verdict.mu == -2
    assert (verdict.params.n, verdict.params.k) == (4, 3)


def test_c6xc6_axis_diag_set(c6xc6):
    verdict = verify_signature_set(c6xc6, axis_diag_set(c6xc6, 6))
    assert verdict.ok and verdict.mu == 2
    assert (verdict.params.n, verdict.params.k) == (36, 15)


def test_c4xc4_axis_diag_set(c4xc4):
    verdict = verify_signature_set(c4xc4, axis_diag_set(c4xc4, 4))
    assert verdict.ok and verdict.mu == -2
    assert (verdict.params.n, verdict.params.k) == (16, 10)


def test_trivial_full_set():
    g = cyclic(8)
    verdict = verify_signature_set(g, Subset.full_nonidentity(8))
    assert verdict.ok and verdict.mu == 6 and verdict.params.k == 1


def test_trivial_empty_set():
    g = cyclic(8)
    verdict = verify_signature_set(g, Subset.empty(8))
    assert verdict.ok and verdict.mu == -6 and verdict.params.k == 7


def test_odd_order_rejected():
    g = cyclic(9)
    assert verify_signature_set(g, Subset.of(9, [1, 8])).reason == "odd-order"
    assert verify_signature_set(g, Subset.empty(9)).reason == "odd-order"


def test_not_inverse_closed_rejected():
    g = cyclic(8)
    reject = verify_signature_set(g, Subset.of(8, [1, 2, 6]))
    assert reject.reason == "s-not-inverse-closed"
    assert reject.witness is not None


def test_identity_in_set_rejected():
    g = cyclic(8)
    assert verify_signature_set(g, Subset.of(8, [0, 1, 7])).reason == "identity-in-set"


def test_count_mismatch_rejected():
    g = cyclic(8)
    reject = verify_signature_set(g, Subset.of(8, [1, 7]))
    assert isinstance(reject, Rejection)
    assert reject.reason in ("count-mismatch-on-s", "count-mismatch-on-t")


def test_quasi_z5():
    g = cyclic(5)
    verdict = verify_quasi_signature_set(g, Subset.of(5, [1, 4]))
    assert verdict.ok and verdict.mu == 0
    assert (verdict.params.n, verdict.params.k) == (6, 3)


def test_quasi_z13():
    g = cyclic(13)
    verdict = verify_quasi_signature_set(g, Subset.of(13, [1, 3, 4, 9, 10, 12]))
    assert verdict.ok and (verdict.params.n, verdict.params.k) == (14, 7)


def test_quasi_z17():
    g = cyclic(17)
    verdict = verify_quasi_signature_set(g, Subset.of(17, [1, 2, 4, 8, 9, 13, 15, 16]))
    assert verdict.ok and (verdict.params.n, verdict.params.k) == (18, 9)


def test_quasi_c3xc3_axis():
    g = direct_product(cyclic(3), cyclic(3))
    verdict = verify_quasi_signature_set(g, axis_set(g, 3))
    assert verdict.ok and (verdict.params.n, verdict.params.k) == (10, 5)


def test_quasi_c5xc5_axis_diag():
    g = direct_product(cyclic(5), cyclic(5))
    verdict = verify_quasi_signature_set(g, axis_diag_set(g, 5))
    assert verdict.ok and (verdict.params.n, verdict.params.k) == (26, 13)


def test_quasi_rejects_trivial_subsets():
    g = cyclic(5)
    assert verify_quasi_signature_set(g, Subset.empty(5)).reason == "mu-out-of-range"
    assert verify_quasi_signature_set(g, Subset.full_nonidentity(5)).reason == "mu-out-of-range"


def test_quasi_rejects_even_group_order():
    g = cyclic(6)
    assert verify_quasi_signature_set(g, Subset.of(6, [1, 5])).reason == "odd-frame-size"


def test_quasi_cardinality_law():
    # |S| = (n - 2 + mu) / 2 on every acceptance
    for n, s_idx in ((5, [1, 4]), (13, [1, 3, 4, 9, 10, 12]), (17, [1, 2, 4, 8, 9, 13, 15, 16])):
        verdict = verify_quasi_signature_set(cyclic(n), Subset.of(n, s_idx))
        assert 2 * verdict.subset.size == verdict.params.n - 2 + verdict.mu


def test_complement_set_examples():
    g = cyclic(5)
    assert complement_set(g, Subset.empty(5)) == Subset.full_nonidentity(5)
    assert complement_set(g, Subset.of(5, [1, 4])) == Subset.of(5, [2, 3])
    s = Subset.of(5, [2, 3])
    assert complement_set(g, complement_set(g, s)) == s


def test_complement_duality_on_acceptances(c4xc4):
    s = axis_set(c4xc4, 4)
    verdict = verify_signature_set(c4xc4, s)
    dual = verify_signature_set(c4xc4, complement_set(c4xc4, s))
    assert dual.ok
    assert dual.mu == -verdict.mu
    assert dual.params.k == 16 - verdict.params.k


def test_conjugation_invariance(q8):
    s = q8.subset(["-1", "i", "-i"])  # subgroup <i> minus identity
    verdict = verify_signature_set(q8, s)
    assert verdict.ok and verdict.params.k == 1
    for t in range(8):
        conj = verify_signature_set(q8, conjugate_subset(q8, s, t))
        assert conj.ok and conj.params == verdict.params


def test_index2_subgroup():
    g6 = cyclic(6)
    verdict = index2_subgroup_set(g6, subgroup_generated(g6, [2]))
    assert verdict.ok and (verdict.params.n, verdict.params.k) == (6, 1)

    g9 = cyclic(9)
    assert index2_subgroup_set(g9, subgroup_generated(g9, [3])).reason == "index-not-two"

    q8 = quaternion8()
    verdict = index2_subgroup_set(q8, subgroup_generated(q8, [q8.index("i")]))
    assert verdict.ok and (verdict.params.n, verdict.params.k) == (8, 1)


def test_index2_refuses_a_subset_of_another_group():
    # order 6 used to end in an internal RuntimeError, order 8 in IndexError
    for h in (Subset(6, 0b101), Subset(8, 0b10001)):
        with pytest.raises(ValueError, match="does not belong to this group"):
            index2_subgroup_set(cyclic(4), h)


def test_index2_rejects_non_subgroup():
    g = cyclic(6)
    with pytest.raises(ValueError):
        index2_subgroup_set(g, Subset.of(6, [0, 1, 2]))
    with pytest.raises(ValueError):
        index2_subgroup_set(g, Subset.of(6, [2, 4]))


def test_verdict_matches_matrix_certificate(c4xc4):
    cases = [
        (c4xc4, axis_set(c4xc4, 4), False),
        (cyclic(8), Subset.full_nonidentity(8), False),
        (cyclic(5), Subset.of(5, [1, 4]), True),
        (cyclic(13), Subset.of(13, [1, 3, 4, 9, 10, 12]), True),
    ]
    for group, s, quasi in cases:
        verdict = (verify_quasi_signature_set if quasi else verify_signature_set)(group, s)
        assert verdict.ok
        matrix = (quasi_signature_matrix if quasi else signature_matrix)(group, s)
        cert = certify_two_eigenvalue(matrix)
        assert cert.mu == verdict.mu and cert.params == verdict.params


def test_signature_rejections_match_matrix_rejections():
    # when the verifier rejects an inverse-closed candidate, the matrix
    # certificate must fail too (and vice versa for acceptances)
    g = cyclic(8)
    for bits in range(0, 1 << 7):
        s = Subset(8, bits << 1)
        from frameforge import inverse_set

        if inverse_set(g, s) != s:
            continue
        verdict = verify_signature_set(g, s)
        cert = certify_two_eigenvalue(signature_matrix(g, s))
        assert verdict.ok == (not isinstance(cert, Rejection))
        if verdict.ok:
            assert verdict.mu == cert.mu


# one input fault each, as (S, T) in C5; the sets see only S
_INPUT_FAULTS = {
    "wrong-group": (Subset.of(3, [1]), Subset.of(5, [2])),
    "identity-in-set": (Subset.of(5, [0, 1, 4]), Subset.of(5, [2])),
    "overlapping-sets": (Subset.of(5, [1, 4]), Subset.of(5, [1, 2])),
}
_SET_BUILDERS = [
    (complement_set, verify_signature_set),
    (signature_matrix, verify_signature_set),
    (quasi_signature_matrix, verify_quasi_signature_set),
]
_PAIR_BUILDERS = [
    (build_cube_matrix, verify_signature_pair),
    (build_cube_matrix, verify_quasi_signature_pair),
]


@pytest.mark.parametrize(
    "builder, verifier, reason",
    [(b, v, r) for b, v in _SET_BUILDERS for r in ("wrong-group", "identity-in-set")]
    + [(b, v, r) for b, v in _PAIR_BUILDERS for r in _INPUT_FAULTS],
)
def test_builders_raise_the_verifiers_screen_detail(builder, verifier, reason):
    s, t = _INPUT_FAULTS[reason]
    args = (cyclic(5), s, t) if builder is build_cube_matrix else (cyclic(5), s)
    rejection = verifier(*args)
    assert rejection.reason == reason
    with pytest.raises(ValueError) as raised:
        builder(*args)
    assert str(raised.value) == rejection.detail
