import sys
from itertools import compress, product

import numpy as np
import pytest

from frameforge import (
    SearchSpec,
    Subset,
    cube_candidates,
    cyclic,
    direct_product,
    enumerate_inverse_closed,
    parse_group,
    quaternion8,
    search,
    verify_quasi_signature_pair,
    verify_quasi_signature_set,
    verify_signature_pair,
    verify_signature_set,
)
from frameforge.quotients import choose_quotient
from frameforge.search import KINDS, Candidates
from frameforge.subsets import seidel_coefficients, seidel_identity
from frameforge.verdicts import Rejection, SignatureVerdict

from conftest import (
    all_cube_assignments,
    all_nonidentity_subsets,
    full_nonidentity,
    project,
    small_groups_to_order_8,
    supported_descriptors,
)
from test_screen import screen, verify


def hit_summary(hits):
    return [(h.canonical_key, h.verdict.mu, h.verdict.params.k) for h in hits]


def test_enumerate_inverse_closed_counts(c4xc4):
    assert len(list(enumerate_inverse_closed(cyclic(3)))) == 2
    assert len(list(enumerate_inverse_closed(cyclic(5)))) == 4
    assert len(list(enumerate_inverse_closed(c4xc4))) == 512  # 3 involutions + 6 pairs


def test_enumerate_inverse_closed_is_exact():
    from frameforge import inverse_set

    g = cyclic(8)
    enumerated = {s.bits for s in enumerate_inverse_closed(g)}
    expected = {
        s.bits for s in all_nonidentity_subsets(g) if inverse_set(g, s) == s
    }
    assert enumerated == expected


def test_cube_candidates_z3():
    got = [(tuple(s), tuple(t)) for s, t in cube_candidates(cyclic(3))]
    assert got == [((1, 2), ()), ((), (1,)), ((), (2,))]


def test_cube_candidates_klein():
    g = direct_product(cyclic(2), cyclic(2))
    got = list(cube_candidates(g))
    assert len(got) == 1
    s, t = got[0]
    assert s == full_nonidentity(4) and not t


def test_cube_candidates_quaternion(q8):
    pairs = [(s.labels(q8), t.labels(q8)) for s, t in cube_candidates(q8)]
    assert len(pairs) == 27
    assert all("-1" in s for s, _ in pairs)
    assert (("-1",), ("i", "j", "k")) in pairs


def test_search_c4xc4_finds_axis_set(c4xc4):
    hits = search(SearchSpec(group=c4xc4, kind="signature"))
    keys = {h.canonical_key[0] for h in hits}
    axis = tuple(sorted(["(1,0)", "(2,0)", "(3,0)", "(0,1)", "(0,2)", "(0,3)"]))
    assert axis in keys
    for h in hits:
        assert h.verdict.params.n == 16


def test_search_z5_quasi():
    hits = search(SearchSpec(group=cyclic(5), kind="quasi"))
    keys = {h.canonical_key[0] for h in hits}
    assert keys == {("1", "4"), ("2", "3")}
    assert all(h.verdict.params.k == 3 for h in hits)


def test_search_cube_pair_exclusions():
    hits9 = search(SearchSpec(group=cyclic(9), kind="cube-pair", mu=-2))
    assert hits9 == []
    g33 = direct_product(cyclic(3), cyclic(3))
    assert search(SearchSpec(group=g33, kind="cube-pair", mu=-2)) == []
    # also genuinely empty without the (n, mu) shortcut: scan all candidates
    all_hits = search(SearchSpec(group=cyclic(9), kind="cube-pair"))
    assert all(h.verdict.mu != -2 for h in all_hits)


def test_search_classification_2p():
    for n in (6, 10, 14):
        hits = search(SearchSpec(group=cyclic(n), kind="signature"))
        assert hits, n
        ks = {h.verdict.params.k for h in hits}
        assert ks <= {1, n // 2, n - 1}, (n, ks)


def test_search_odd_order_has_no_hits():
    assert search(SearchSpec(group=cyclic(9), kind="signature")) == []
    assert search(SearchSpec(group=cyclic(15), kind="signature")) == []


def test_search_quasi_even_order_has_no_hits():
    assert search(SearchSpec(group=cyclic(8), kind="quasi")) == []


def test_search_quasi_4p_frame_sizes_are_empty():
    # frames of size 4p admit no quasi-signature set: groups of order 4p-1
    assert search(SearchSpec(group=cyclic(11), kind="quasi")) == []  # n = 12
    assert search(SearchSpec(group=cyclic(19), kind="quasi")) == []  # n = 20


def test_search_quasi_2p_frame_sizes_give_k_p():
    # order 2p-1 groups: every quasi hit is the conference line k = p
    for order, p in ((5, 3), (9, 5), (13, 7)):
        hits = search(SearchSpec(group=cyclic(order), kind="quasi"))
        assert all(h.verdict.params.k == p for h in hits), order
    # C9 is empty, but C3xC3 carries six (10,5) sets
    hits = search(SearchSpec(group=direct_product(cyclic(3), cyclic(3)), kind="quasi"))
    assert len(hits) == 6 and {h.verdict.params.k for h in hits} == {5}


#: A group with hits per kind, and a mu that none of them has
MU_FILTER_CASES = {"signature": ("C6", 0), "quasi": ("C3xC3", 1),
                   "cube-pair": ("C9", 1), "cube-quasi": ("Q8", 1)}


def test_search_mu_filter(monkeypatch):
    hits = search(SearchSpec(group=cyclic(6), kind="signature", mu=4))
    assert hits and all(h.verdict.mu == 4 for h in hits)
    # no (6,3) signature set exists in C6: the mu=0 slice is empty
    assert search(SearchSpec(group=cyclic(6), kind="signature", mu=0)) == []
    # in every kind the mu slice is the filtered full search, and the screen
    # applies mu, so no chunk sends the verifier an empty batch
    batches, verify_batch = [], sys.modules["frameforge.search"].verify_batch

    def spy(group, kind, candidates):
        batches.append(len(candidates))
        return verify_batch(group, kind, candidates)

    monkeypatch.setattr(sys.modules["frameforge.search"], "verify_batch", spy)
    for kind, (descriptor, missing) in MU_FILTER_CASES.items():
        group = parse_group(descriptor)
        full = search(SearchSpec(group=group, kind=kind))
        mus = sorted({h.verdict.mu for h in full})
        assert mus and missing not in mus
        for m in mus + [missing]:
            got = search(SearchSpec(group=group, kind=kind, mu=m))
            assert got == [h for h in full if h.verdict.mu == m], (descriptor, kind, m)
    assert batches and all(batches)


def test_search_limit_and_order():
    full = search(SearchSpec(group=cyclic(6), kind="signature"))
    limited = search(SearchSpec(group=cyclic(6), kind="signature", limit=2))
    assert limited == full[:2]
    assert [h.canonical_key for h in full] == sorted(h.canonical_key for h in full)


def test_search_determinism_across_workers(c4xc4):
    base = hit_summary(search(SearchSpec(group=c4xc4, kind="signature")))
    again = hit_summary(search(SearchSpec(group=c4xc4, kind="signature")))
    assert base == again


@pytest.mark.parametrize("kind", ["signature", "cube-pair"])
def test_search_is_independent_of_chunk_size(monkeypatch, c4xc4, kind):
    whole = hit_summary(search(SearchSpec(group=c4xc4, kind=kind)))
    # many chunks and a ragged last one; the package's `search` attribute is
    # the function, so the module is looked up in sys.modules
    monkeypatch.setattr(sys.modules["frameforge.search"], "_CHUNK", 7)
    assert hit_summary(search(SearchSpec(group=c4xc4, kind=kind))) == whole


def test_search_bound_enforced():
    g = direct_product(cyclic(5), cyclic(8))  # order 40 > 36
    with pytest.raises(ValueError):
        search(SearchSpec(group=g, kind="signature"))
    with pytest.raises(ValueError):
        search(SearchSpec(group=direct_product(cyclic(4), cyclic(5)), kind="cube-pair"))


def test_search_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SearchSpec(group=cyclic(4), kind="other")


def test_search_trivial_group_is_safe():
    g = cyclic(1)
    assert search(SearchSpec(group=g, kind="signature")) == []
    assert search(SearchSpec(group=g, kind="cube-pair")) == []
    quasi_hits = search(SearchSpec(group=g, kind="cube-quasi"))
    # the bordered 2x2 exchange matrix certifies the degenerate (2,1) frame
    assert [h.verdict.params.k for h in quasi_hits] == [1]
    assert search(SearchSpec(group=g, kind="quasi")) == []


def test_search_force_overrides_bound():
    hits = search(SearchSpec(group=cyclic(17), kind="cube-pair", force=True))
    # only the trivial all-in-S pair survives in C17
    assert [h.verdict.params.k for h in hits] == [1]


def test_dedupe_conjugates(q8):
    full = search(SearchSpec(group=q8, kind="signature"))
    deduped = search(SearchSpec(group=q8, kind="signature", dedupe_conjugates=True))
    assert len(deduped) <= len(full)
    kept = {h.canonical_key for h in deduped}
    assert kept <= {h.canonical_key for h in full}
    # abelian groups: conjugation is trivial, nothing collapses
    full_ab = search(SearchSpec(group=cyclic(6), kind="signature"))
    dedup_ab = search(SearchSpec(group=cyclic(6), kind="signature", dedupe_conjugates=True))
    assert hit_summary(full_ab) == hit_summary(dedup_ab)


def brute_force_hits(group, kind):
    out = []
    if kind in ("signature", "quasi"):
        verify = verify_signature_set if kind == "signature" else verify_quasi_signature_set
        for s in all_nonidentity_subsets(group):
            verdict = verify(group, s)
            if isinstance(verdict, SignatureVerdict):
                out.append((tuple(sorted(s.labels(group))), (), verdict.mu, verdict.params.k))
    else:
        verify = verify_signature_pair if kind == "cube-pair" else verify_quasi_signature_pair
        for s, t in all_cube_assignments(group):
            verdict = verify(group, s, t)
            if isinstance(verdict, SignatureVerdict):
                out.append(
                    (tuple(sorted(s.labels(group))), tuple(sorted(t.labels(group))),
                     verdict.mu, verdict.params.k)
                )
    return sorted(out)


@pytest.mark.parametrize("kind", ["signature", "quasi", "cube-pair", "cube-quasi"])
def test_pruned_search_equals_brute_force_small_groups(kind):
    for group in small_groups_to_order_8():
        if kind.startswith("cube") and group.order > 6:
            continue  # covered separately below to keep runtime modest
        pruned = [
            (h.canonical_key[0], h.canonical_key[1], h.verdict.mu, h.verdict.params.k)
            for h in search(SearchSpec(group=group, kind=kind))
        ]
        assert pruned == brute_force_hits(group, kind), (group.name, kind)


@pytest.mark.parametrize("kind", ["cube-pair", "cube-quasi"])
def test_pruned_cube_search_equals_brute_force_order_7_8(kind):
    for group in (cyclic(7), cyclic(8), quaternion8()):
        pruned = [
            (h.canonical_key[0], h.canonical_key[1], h.verdict.mu, h.verdict.params.k)
            for h in search(SearchSpec(group=group, kind=kind))
        ]
        assert pruned == brute_force_hits(group, kind), (group.name, kind)


def test_every_hit_reverifies(c4xc4):
    for h in search(SearchSpec(group=c4xc4, kind="signature")):
        again = verify_signature_set(c4xc4, h.verdict.subset)
        assert again.ok and again.params == h.verdict.params


def reference_candidates(group, kind):
    """Inverse-closed subsets, or (S, T) pairs with S = S^-1 and V = T^-1,
    built orbit by orbit without the library's enumerators."""
    n, inv = group.order, group.inv.tolist()
    involutions = [x for x in range(1, n) if inv[x] == x]
    pairs = [(x, inv[x]) for x in range(1, n) if x < inv[x]]
    if not kind.startswith("cube"):
        orbits = [1 << x for x in involutions] + [(1 << x) | (1 << y) for x, y in pairs]
        for picks in product((False, True), repeat=len(orbits)):
            yield Subset(n, sum(compress(orbits, picks)))
        return
    for picks in product(range(3), repeat=len(pairs)):
        s, t = sum(1 << x for x in involutions), 0
        for pick, (x, y) in zip(picks, pairs):
            if pick == 0:
                s |= (1 << x) | (1 << y)
            else:
                t |= 1 << (x if pick == 1 else y)
        yield Subset(n, s), Subset(n, t)


def reference_scan(group, kind):
    """Reference candidates -> `seidel_identity` on their subsets' columns ->
    verifier, as (key, mu, k) rows in key order."""
    cube = kind.startswith("cube")
    candidates = list(reference_candidates(group, kind))
    rows = []
    for lo in range(0, len(candidates), 4096):
        chunk = candidates[lo:lo + 4096]
        for candidate in compress(chunk, screen(group, kind, chunk)):
            verdict = verify(group, kind, candidate)
            if isinstance(verdict, SignatureVerdict):
                s, t = candidate if cube else (candidate, None)
                key = (tuple(sorted(s.labels(group))), tuple(sorted(t.labels(group))) if cube else ())
                rows.append((key, verdict.mu, verdict.params.k))
    return sorted(rows)


@pytest.mark.parametrize("kind", KINDS)
def test_search_equals_reference_scan(kind):
    for descriptor in supported_descriptors(20):
        group = parse_group(descriptor)
        got = hit_summary(search(SearchSpec(group=group, kind=kind, force=True)))
        assert got == reference_scan(group, kind), (descriptor, kind)


@pytest.mark.parametrize("descriptor, kind", [("C4xC8", "signature"), ("C3xC6", "cube-quasi")])
def test_search_equals_reference_scan_past_order_20(descriptor, kind):
    group = parse_group(descriptor)
    got = hit_summary(search(SearchSpec(group=group, kind=kind, force=True)))
    assert got and got == reference_scan(group, kind)


@pytest.mark.parametrize("descriptor", ["C5", "C13", "C27", "C3xC9"])
def test_quasi_batches_hold_only_the_mu_band(monkeypatch, descriptor):
    # the empty S and S = G\{e} pass the screen but not the verifier's band
    # |3 mu| <= n - 6; in C27 and C3xC9 they were the only survivors
    batches, verify_batch = [], sys.modules["frameforge.search"].verify_batch

    def spy(group, kind, subsets):
        batches.append(subsets)
        return verify_batch(group, kind, subsets)

    monkeypatch.setattr(sys.modules["frameforge.search"], "verify_batch", spy)
    group = parse_group(descriptor)
    hits = search(SearchSpec(group=group, kind="quasi", force=True))
    n = group.order + 1
    sizes = [s.size for batch in batches for s in batch]
    assert all(abs(3 * (2 * size - (n - 2))) <= n - 6 for size in sizes)
    assert len(sizes) >= len(hits) and bool(hits) == (descriptor in ("C5", "C13"))


def test_a_real_survivor_the_verifier_rejects_is_a_hard_error(monkeypatch):
    # the pair counts at the last element, in S or in T, skewed by one fail
    # every survivor of the (untouched) screen, the full S included
    module = sys.modules["frameforge.signature_sets"]
    convolve = module.convolve

    def skewed(group, x, y):
        counts = convolve(group, x, y)
        counts[-1] += 1
        return counts

    monkeypatch.setattr(module, "convolve", skewed)
    for kind, descriptor in (("signature", "C4xC4"), ("quasi", "C5")):
        with pytest.raises(RuntimeError, match="survivor failed its verifier: count-mismatch"):
            search(SearchSpec(group=parse_group(descriptor), kind=kind))


def test_a_cube_survivor_the_verifier_rejects_is_a_hard_error(monkeypatch):
    refused = Rejection("not-two-eigenvalue", "refused by the test")
    monkeypatch.setattr(sys.modules["frameforge.signature_sets"], "certify_columns",
                        lambda group, a, b, bordered: [refused] * a.shape[1])
    for kind, descriptor in (("cube-pair", "C3"), ("cube-quasi", "Q8")):
        with pytest.raises(RuntimeError, match="survivor failed its verifier: not-two-eigenvalue"):
            search(SearchSpec(group=parse_group(descriptor), kind=kind))


def test_search_refuses_a_space_past_int64_codes():
    # 2^63 quasi candidates in C127 (63 inverse pairs), 3^40 cube ones in C81
    with pytest.raises(ValueError, match="int64"):
        search(SearchSpec(group=cyclic(127), kind="quasi", force=True))
    with pytest.raises(ValueError, match="int64"):
        search(SearchSpec(group=cyclic(81), kind="cube-quasi", force=True))


@pytest.mark.parametrize("cube", [False, True])
def test_a_count_only_candidates_builds_no_table(cube):
    # search builds a second Candidates only for its len(); the orbit map and
    # the digit table wait for the first columns, decode or join
    group = parse_group("C3xC6")
    counted = Candidates(group, cube)
    assert len(counted) == (3 ** 8 if cube else 2 ** 9)
    assert not {"_orbit", "_table"} & set(vars(counted))
    assert list(counted) == [reference_candidate(group, cube, code) for code in range(len(counted))]
    # the join of a count-only Candidates gives every code whose image
    # solves the quotient identity
    kind = "cube-quasi" if cube else "signature"
    quotient = choose_quotient(group, kind, len(counted))
    fresh = Candidates(group, cube)
    got = np.concatenate(list(fresh.join(quotient, kind)))
    codes = np.arange(len(fresh))
    a, b = fresh.columns(codes)
    images = (project(quotient, a), project(quotient, b) if cube else 0)
    holds = seidel_identity(quotient.group, kind, *images, quotient.h)[0]
    assert sorted(got.tolist()) == codes[holds].tolist()


def reference_candidate(group, cube, code):
    """The bit-level digit rule, independent of the coefficient table: the
    orbits in `Candidates` order each take the code's next digit, least
    significant first.  Real kinds: digit 1 puts the orbit in S.  Cube
    kinds: the involutions lie in S, and digit 0 puts the pair {x, x^-1} in
    S, 1 puts x into T and 2 puts x^-1 into T."""
    n, inv = group.order, group.inv.tolist()
    involutions = [x for x in range(1, n) if inv[x] == x]
    pairs = [x for x in range(1, n) if x < inv[x]]
    s_bits = sum(1 << x for x in involutions) if cube else 0
    t_bits = 0
    for x in pairs if cube else involutions + pairs:
        code, digit = divmod(code, 3 if cube else 2)
        if digit == (0 if cube else 1):
            s_bits |= 1 << x | 1 << inv[x]
        elif cube:
            t_bits |= 1 << (x if digit == 1 else inv[x])
    assert code == 0
    return (Subset(n, s_bits), Subset(n, t_bits)) if cube else Subset(n, s_bits)


@pytest.mark.parametrize("cube", [False, True])
@pytest.mark.parametrize("descriptor", supported_descriptors(12))
def test_candidates_decode_as_the_bit_level_digit_rule(descriptor, cube):
    group = parse_group(descriptor)
    space = Candidates(group, cube)
    want = [reference_candidate(group, cube, code) for code in range(len(space))]
    assert list(space) == want
    assert space[0] == want[0] and space[len(space) - 1] == want[-1]
    for code in (-1, len(space)):
        with pytest.raises(IndexError):
            space[code]


def test_candidates_iterate_across_chunks_as_the_digit_rule():
    group = parse_group("C3xC9")  # 13 inverse pairs, 8192 codes: two chunks
    space = Candidates(group, False)
    assert list(space) == [reference_candidate(group, False, code) for code in range(len(space))]


def test_candidate_table_is_the_coefficients_of_the_repunit_codes():
    # an element's coefficient depends on its orbit's digit alone, so the
    # code with every digit d gives column d of the (element, digit) table
    for descriptor in supported_descriptors(64):
        group = parse_group(descriptor)
        for kind in ("signature", "cube-pair"):
            space = Candidates(group, kind == "cube-pair")
            radix = 3 if kind == "cube-pair" else 2
            repunit = (len(space) - 1) // (radix - 1)
            want = seidel_coefficients(group.order, kind, [space[d * repunit] for d in range(radix)])
            for got, column in zip(space._table, want):
                assert np.asarray(got).dtype == np.asarray(column).dtype, (descriptor, kind)
                assert np.array_equal(np.ravel(got), np.ravel(column)), (descriptor, kind)
