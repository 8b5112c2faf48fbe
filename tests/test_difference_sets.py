import numpy as np
import pytest

import golden
from frameforge import (
    DifferenceSetReport,
    Subset,
    complement_report,
    cyclic,
    diffset_to_signature,
    direct_product,
    inverse_set,
    is_hadamard,
    pair_count_table,
    parse_group,
    quaternion8,
    signature_matrix,
    verify_difference_set,
)
from frameforge.subsets import complement_nonidentity
from frameforge.verdicts import Rejection


def z8z8():
    return direct_product(cyclic(8), cyclic(8))


def hadamard_64_set(group):
    half = [f"({x},{y})" for x, y in golden.HADAMARD_64_HALF]
    other = [f"({(-x) % 8},{(-y) % 8})" for x, y in golden.HADAMARD_64_HALF]
    return group.subset(half + other)


def axis_set_c4(group):
    return group.subset(["(1,0)", "(2,0)", "(3,0)", "(0,1)", "(0,2)", "(0,3)"])


def test_z11_difference_set():
    g = cyclic(11)
    report = verify_difference_set(g, Subset.of(11, [1, 3, 4, 5, 9]))
    assert (report.n, report.k, report.lam) == (11, 5, 2)
    assert not report.reversible and not report.contains_identity


def test_c4xc4_axis_is_difference_set(c4xc4):
    report = verify_difference_set(c4xc4, axis_set_c4(c4xc4))
    assert (report.n, report.k, report.lam) == (16, 6, 2)
    assert report.reversible and report.hadamard_family


def test_c6xc6_difference_set(c6xc6):
    labels = (
        [f"({i},0)" for i in range(1, 6)]
        + [f"(0,{i})" for i in range(1, 6)]
        + [f"({i},{i})" for i in range(1, 6)]
    )
    report = verify_difference_set(c6xc6, c6xc6.subset(labels))
    # lambda is pinned by lambda*(n-1) = k*(k-1): 15*14/35 = 6
    assert (report.n, report.k, report.lam) == (36, 15, 6)
    assert report.reversible and not report.contains_identity


def test_rejects_non_difference_set():
    g = cyclic(11)
    reject = verify_difference_set(g, Subset.of(11, [1, 2, 3]))
    assert isinstance(reject, Rejection)
    assert reject.reason == "non-constant-differences"


def test_rejects_non_abelian():
    q8 = quaternion8()
    assert verify_difference_set(q8, q8.subset(["i", "j"])).reason == "non-abelian-group"


def test_count_identity_law():
    # lambda (n-1) = k (k-1) on every acceptance
    g = cyclic(11)
    report = verify_difference_set(g, Subset.of(11, [1, 3, 4, 5, 9]))
    assert report.lam * 10 == report.k * (report.k - 1)


def test_complement_report():
    r = DifferenceSetReport(n=11, k=5, lam=2, reversible=False,
                            hadamard_family=False, contains_identity=False)
    c = complement_report(r)
    assert (c.n, c.k, c.lam) == (11, 6, 3)
    assert c.contains_identity

    r16 = DifferenceSetReport(n=16, k=6, lam=2, reversible=True,
                              hadamard_family=True, contains_identity=False)
    c16 = complement_report(r16)
    assert (c16.n, c16.k, c16.lam) == (16, 10, 6)

    full = DifferenceSetReport(n=7, k=7, lam=7, reversible=True,
                               hadamard_family=False, contains_identity=True)
    cf = complement_report(full)
    assert (cf.n, cf.k, cf.lam) == (7, 0, 0)


def test_complement_report_matches_direct_verification(c4xc4):
    d = axis_set_c4(c4xc4)
    direct = verify_difference_set(
        c4xc4, Subset(16, ((1 << 16) - 1) & ~d.bits)
    )
    derived = complement_report(verify_difference_set(c4xc4, d))
    assert (direct.n, direct.k, direct.lam) == (derived.n, derived.k, derived.lam)
    assert direct.reversible == derived.reversible
    assert direct.contains_identity == derived.contains_identity


def test_diffset_to_signature_c4xc4(c4xc4):
    verdict = diffset_to_signature(c4xc4, axis_set_c4(c4xc4))
    assert verdict.ok and verdict.mu == 2
    assert (verdict.params.n, verdict.params.k) == (16, 6)


def test_diffset_to_signature_identity_branch(c4xc4):
    # the complement contains the identity and has size (16+4)/2 = 10
    d = Subset(16, ((1 << 16) - 1) & ~axis_set_c4(c4xc4).bits)
    assert d.has_identity and d.size == 10
    verdict = diffset_to_signature(c4xc4, d)
    assert verdict.ok and verdict.mu == -2
    assert (verdict.params.n, verdict.params.k) == (16, 10)


def test_diffset_to_signature_z8z8():
    g = z8z8()
    d = hadamard_64_set(g)
    report = verify_difference_set(g, d)
    assert (report.n, report.k, report.lam) == (64, 28, 12)
    assert report.reversible and report.hadamard_family and not report.contains_identity
    verdict = diffset_to_signature(g, d)
    assert verdict.ok and verdict.mu == 2
    assert (verdict.params.n, verdict.params.k) == (64, 28)
    q = signature_matrix(g, d)
    sq = q.square()
    assert np.array_equal(sq, 63 * np.eye(64, dtype=np.int64) + 2 * q.a)
    assert is_hadamard(np.eye(64, dtype=np.int64) - q.a)


def test_diffset_to_signature_rejects_non_square_order():
    g = cyclic(11)
    reject = diffset_to_signature(g, Subset.of(11, [1, 3, 4, 5, 9]))
    assert reject.reason == "order-not-square"


@pytest.mark.parametrize("descriptor", ["C1", "C1xC1", "Zmult2"])
def test_diffset_to_signature_order_one_is_odd_order(descriptor):
    # sqrt 1 = 1 is odd, yet both sizes 0 and 1 pass the size check
    g = parse_group(descriptor)
    for d in (Subset.empty(1), Subset.of(1, [0])):
        reject = diffset_to_signature(g, d)
        assert isinstance(reject, Rejection) and reject.reason == "odd-order"


def test_reversible_sum_counts_equal_difference_counts(c4xc4):
    for group, d in ((c4xc4, axis_set_c4(c4xc4)), (z8z8(), hadamard_64_set(z8z8()))):
        d_inv = inverse_set(group, d)
        sums = pair_count_table(group, d, d)          # x * y = g
        diffs = pair_count_table(group, d, d_inv)     # x * y^-1 = g
        assert np.array_equal(sums, diffs)


def test_reversible_cross_count_ladder(c4xc4):
    # for reversible D without identity: N_(D,T)^g + 1 = N_(D,T)^h
    for group, d in ((c4xc4, axis_set_c4(c4xc4)), (z8z8(), hadamard_64_set(z8z8()))):
        t = complement_nonidentity(d)
        table = pair_count_table(group, d, t)
        on_d = {int(table[x]) for x in d}
        on_t = {int(table[x]) for x in t}
        assert len(on_d) == 1 and len(on_t) == 1
        assert on_d.pop() + 1 == on_t.pop()
        # the D side sits at n/4 - 1, the T side at n/4
        assert {int(table[x]) for x in d} == {group.order // 4 - 1}


def test_reversible_count_constants(c4xc4):
    # sums over D x D, D^c x D^c and D x D^c are all constant off the
    # identity for a reversible difference set
    for group, d in ((c4xc4, axis_set_c4(c4xc4)), (z8z8(), hadamard_64_set(z8z8()))):
        report = verify_difference_set(group, d)
        full = Subset(group.order, (1 << group.order) - 1)
        d_comp = full.difference(d)
        dd = pair_count_table(group, d, d)
        cc = pair_count_table(group, d_comp, d_comp)
        dc = pair_count_table(group, d, d_comp)
        lam_bar = complement_report(report).lam
        assert {int(dd[g]) for g in range(1, group.order)} == {report.lam}
        assert {int(cc[g]) for g in range(1, group.order)} == {lam_bar}
        assert len({int(dc[g]) for g in range(1, group.order)}) == 1

        # within the identity-free complement T: counts step down from
        # lam_bar by exactly the two border contributions
        t = complement_nonidentity(d)
        tt = pair_count_table(group, t, t)
        assert {int(tt[g]) for g in d} == {lam_bar}
        assert {int(tt[h]) + 2 for h in t} == {lam_bar}


def test_hadamard_from_every_acceptance(c4xc4):
    for group, d in ((c4xc4, axis_set_c4(c4xc4)), (z8z8(), hadamard_64_set(z8z8()))):
        verdict = diffset_to_signature(group, d)
        assert verdict.ok
        q = signature_matrix(group, d)
        assert is_hadamard(np.eye(group.order, dtype=np.int64) - q.a)
