"""Differential tests of the batched group-algebra screen in `search`.

The screen may only discard candidates: whenever a verifier accepts, the
screen must keep.  It is also tight: it keeps a candidate exactly when the
exact two-eigenvalue certificate accepts the candidate's Seidel matrix
(bordered for the quasi kinds), which squares the matrix itself and does no
group-algebra counting.  The screen and the verifiers' mutual oracles share
`seidel_identity`, so the certificate is also the independent check of the
verifiers: they accept exactly when it does, with the same mu.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameforge import (
    Subset,
    cube_candidates,
    cyclic,
    direct_product,
    enumerate_inverse_closed,
    pair_count_table,
    parse_group,
    quaternion8,
    quasi_signature_matrix,
    signature_matrix,
    verify_quasi_signature_pair,
    verify_quasi_signature_set,
    verify_signature_pair,
    verify_signature_set,
)
from frameforge.cube_root import build_cube_matrix
from frameforge.eisenstein import CUBE_ROOTS, ONE
from frameforge.matrices import border_standard, certify_two_eigenvalue
from frameforge.search import KINDS
from frameforge.subsets import convolve, indicator_columns, seidel_coefficients, seidel_identity
from frameforge.verdicts import Rejection, SignatureVerdict

from conftest import (
    all_nonidentity_subsets,
    brute_count_pair,
    full_nonidentity,
    small_groups_to_order_8,
    supported_descriptors,
)

VERIFIERS = {
    "signature": verify_signature_set,
    "quasi": verify_quasi_signature_set,
    "cube-pair": verify_signature_pair,
    "cube-quasi": verify_quasi_signature_pair,
}


#: Rejections made from n and |S| alone, before any counting; the matrix may
#: still have two eigenvalues (odd n, or the trivial sets).
PRE_COUNT_REASONS = {"odd-order", "odd-frame-size", "mu-out-of-range"}


def verify(group, kind, candidate):
    args = candidate if kind.startswith("cube") else (candidate,)
    return VERIFIERS[kind](group, *args)


def accepts(group, kind, candidate):
    return isinstance(verify(group, kind, candidate), SignatureVerdict)


def matrix_of(group, kind, candidate):
    if kind == "signature":
        return signature_matrix(group, candidate)
    if kind == "quasi":
        return quasi_signature_matrix(group, candidate)
    s, t = candidate
    q = build_cube_matrix(group, s, t)
    return border_standard(q) if kind == "cube-quasi" else q


def candidates(group, kind):
    if kind.startswith("cube"):
        return list(cube_candidates(group))
    return list(enumerate_inverse_closed(group))


def screen(group, kind, chunk):
    return seidel_identity(group, kind, *seidel_coefficients(group.order, kind, chunk))[0]


def check_screen(group, kind, chunk):
    kept = screen(group, kind, chunk)
    assert kept.shape == (len(chunk),) and kept.dtype == bool
    for candidate, keep in zip(chunk, kept):
        where = (group.name, kind, candidate)
        cert = certify_two_eigenvalue(matrix_of(group, kind, candidate))
        assert keep == (not isinstance(cert, Rejection)), where
        verdict = verify(group, kind, candidate)
        if isinstance(verdict, SignatureVerdict):
            assert keep and verdict.mu == cert.mu, where
        else:
            assert not keep or verdict.reason in PRE_COUNT_REASONS, where


@pytest.mark.parametrize("kind", KINDS)
def test_screen_keeps_every_accepted_candidate_exhaustively(kind):
    groups = small_groups_to_order_8() + [direct_product(cyclic(4), cyclic(4))]
    for group in groups:
        check_screen(group, kind, candidates(group, kind))


def _candidate_from_code(group, kind, code):
    """The candidate an enumerator yields at position `code`."""
    involutions = [x for x in range(1, group.order) if int(group.inv[x]) == x]
    paired = [(x, int(group.inv[x])) for x in range(1, group.order) if x < int(group.inv[x])]
    if not kind.startswith("cube"):
        orbits = [(x,) for x in involutions] + paired
        members = [x for i, orbit in enumerate(orbits) if code >> i & 1 for x in orbit]
        return Subset.of(group.order, members)
    s, t = list(involutions), []
    for x, y in paired:
        code, digit = divmod(code, 3)
        if digit == 0:
            s += [x, y]
        else:
            t.append(x if digit == 1 else y)
    return Subset.of(group.order, s), Subset.of(group.order, t)


def _space(group, kind):
    involutions = sum(1 for x in range(1, group.order) if int(group.inv[x]) == x)
    pairs = (group.order - 1 - involutions) // 2
    return 3 ** pairs if kind.startswith("cube") else 2 ** (involutions + pairs)


PROPERTY_GROUPS = {name: parse_group(name) for name in ("C4xC8", "C3xC6", "C20", "C5xC5", "Q8")}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PROPERTY_GROUPS)),
    kind=st.sampled_from(KINDS),
    fractions=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=6),
)
def test_screen_property_on_random_candidates(name, kind, fractions):
    group = PROPERTY_GROUPS[name]
    size = _space(group, kind)
    chunk = [_candidate_from_code(group, kind, int(f * size)) for f in fractions]
    check_screen(group, kind, chunk)


def test_candidate_codes_follow_enumeration_order():
    group = PROPERTY_GROUPS["C3xC6"]
    for kind in ("quasi", "cube-pair"):
        listed = candidates(group, kind)
        assert [_candidate_from_code(group, kind, c) for c in range(len(listed))] == listed


ENUMERATORS = {
    "signature": enumerate_inverse_closed,
    "quasi": enumerate_inverse_closed,
    "cube-pair": cube_candidates,
    "cube-quasi": cube_candidates,
}


def check_code_columns(group, kind, lo, hi):
    """The columns gathered from codes lo..hi-1 are those of the candidates
    the enumerator builds for the same codes."""
    candidates = ENUMERATORS[kind](group)
    a, b = candidates.columns(np.arange(lo, hi))
    want_a, want_b = seidel_coefficients(group.order, kind, [candidates[i] for i in range(lo, hi)])
    assert a.dtype == want_a.dtype and a.shape == want_a.shape, (group.name, kind, lo)
    assert np.array_equal(a, want_a), (group.name, kind, lo)
    assert np.ndim(b) == np.ndim(want_b) and np.array_equal(b, want_b), (group.name, kind, lo)


@pytest.mark.parametrize("kind", KINDS)
def test_code_columns_equal_subset_columns_exhaustively(kind):
    for descriptor in supported_descriptors(16):
        group = parse_group(descriptor)
        candidates = ENUMERATORS[kind](group)
        assert [candidates[i] for i in range(len(candidates))] == list(candidates)
        check_code_columns(group, kind, 0, len(candidates))


CODE_GROUPS = {name: parse_group(name) for name in ("C4xC8", "C6xC6", "C3xC9")}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(CODE_GROUPS)),
    kind=st.sampled_from(KINDS),
    start=st.floats(0, 1, exclude_max=True),
    width=st.integers(1, 50),
)
def test_code_columns_property_on_random_codes(name, kind, start, width):
    group = CODE_GROUPS[name]
    size = len(ENUMERATORS[kind](group))
    lo = int(start * size)
    check_code_columns(group, kind, lo, min(lo + width, size))


@pytest.mark.parametrize("order, kind, size", [
    (125, "quasi", 2 ** 62),      # 62 inverse pairs
    (79, "cube-pair", 3 ** 39),   # 39 inverse pairs
])
def test_code_columns_at_the_top_of_the_int64_range(order, kind, size):
    group = cyclic(order)
    assert len(ENUMERATORS[kind](group)) == size
    check_code_columns(group, kind, size - 5, size)
    with pytest.raises(IndexError):
        ENUMERATORS[kind](group)[size]


def test_screen_above_order_63():
    # order 73 > 63: the indicator columns span more than one machine word
    group = cyclic(73)
    residues = sorted({x * x % 73 for x in range(1, 73)})
    paley = Subset.of(73, residues)  # quadratic residues: the conference set
    nonresidues = Subset.of(73, [x for x in range(1, 73) if x not in residues])
    near_miss = Subset.of(73, [1, 72, 2, 71, 5, 68])
    chunk = [paley, nonresidues, near_miss]
    assert np.array_equal(indicator_columns(73, chunk).T.nonzero()[1],
                          np.concatenate([s.indices_array() for s in chunk]))
    assert list(screen(group, "quasi", chunk)) == [True, True, False]
    assert [accepts(group, "quasi", s) for s in chunk] == [True, True, False]

    full = full_nonidentity(73)
    empty = Subset.empty(73)
    pairs = [(full, empty), (Subset.of(73, [1, 72]), Subset.of(73, range(2, 37)))]
    assert list(screen(group, "cube-pair", pairs)) == [True, False]
    assert [accepts(group, "cube-pair", p) for p in pairs] == [True, False]


@pytest.mark.parametrize("kind", KINDS)
def test_int16_identity_is_exact_at_the_top_order(kind):
    # C4095: with S = G \ {e} or S empty, (sum c)^2 = 4094^2 overflows int16,
    # so the int16 columns must give the int64 columns' verdicts and mu
    order = 4095
    group, rng = cyclic(order), np.random.default_rng(order)
    half = np.arange(1, order // 2 + 1)  # one element of each inverse pair {x, -x}
    full, empty = full_nonidentity(order), Subset.empty(order)

    def subset(xs, ys):  # the elements x and -y for x in xs, y in ys
        return Subset.of(order, [*xs.tolist(), *(order - ys).tolist()])

    if kind.startswith("cube"):
        # each pair {x, -x} lies in S, or x in T and -x in V, or the reverse
        roles = [np.zeros(len(half), int), np.ones(len(half), int)]
        roles += [rng.integers(0, 3, len(half)) for _ in range(6)]
        chunk = [(subset(half[r == 0], half[r == 0]), subset(half[r == 1], half[r == 2])) for r in roles]
    else:
        picks = [half[rng.random(len(half)) < 0.5] for _ in range(6)]
        chunk = [full, empty] + [subset(x, x) for x in picks]
    a, b = seidel_coefficients(order, kind, chunk)
    for cut in (slice(0, 1), slice(1, 2), slice(None)):  # convolve's vector path, then its column path
        narrow = (a[:, cut], b[:, cut] if np.ndim(b) else 0)
        wide = (narrow[0].astype(np.int64), narrow[1].astype(np.int64) if np.ndim(b) else 0)
        holds, mu = seidel_identity(group, kind, *narrow)
        want_holds, want_mu = seidel_identity(group, kind, *wide)
        assert np.array_equal(holds, want_holds) and np.array_equal(mu[holds], want_mu[holds])
    assert holds[0]  # S = G \ {e} solves the identity of every kind


def test_unbordered_mu_is_the_floor_of_the_int64_square_rule():
    # every n up to one past MAX_ORDER and every sum c in [-(n-1), n-1]: the
    # mu of sum c in int16 columns is ((sum c)^2 - (n-1)) // sum c, taken in
    # int64, and 1 - n at sum c = 0; on the trivial group with h = n the
    # column's one coordinate is its sum
    trivial = cyclic(1)
    for n in range(2, 4098):
        total = np.arange(1 - n, n, dtype=np.int16)
        _, mu = seidel_identity(trivial, "signature", total[None, :], 0, h=n)
        wide = total.astype(np.int64)
        want = (wide * wide - (n - 1)) // np.where(wide == 0, 1, wide)
        assert mu.dtype == np.int16 and np.array_equal(mu, want), n


@pytest.mark.parametrize("kind", KINDS)
def test_coefficient_map_follows_its_definition(kind):
    # c = 1 / -1 on S / T for the real kinds; 1, omega, omega^2 on S, T, V
    # for the cube kinds; 0 at the identity
    group = quaternion8()
    chunk = candidates(group, kind)
    a, b = seidel_coefficients(group.order, kind, chunk)
    assert a.dtype == np.int16 and a.shape == (group.order, len(chunk))
    b = np.broadcast_to(b, a.shape)
    for j, candidate in enumerate(chunk):
        parts = candidate if kind.startswith("cube") else (candidate,)
        units = CUBE_ROOTS if kind.startswith("cube") else (ONE, -ONE)
        want = [(0, 0)] * group.order
        for x in range(1, group.order):
            unit = next((u for s, u in zip(parts, units) if x in s), units[-1])
            want[x] = (unit.a, unit.b)
        assert list(zip(a[:, j].tolist(), b[:, j].tolist())) == want


def test_cube_kinds_above_order_64():
    # the cube verifiers' group-algebra oracle now runs at every order
    group = parse_group("C9xC9")
    rng = random.Random(81)
    size = _space(group, "cube-pair")
    codes = [0] + [rng.randrange(size) for _ in range(5)]  # code 0: S = G \ {e}
    for kind in ("cube-pair", "cube-quasi"):
        chunk = [_candidate_from_code(group, kind, code) for code in codes]
        check_screen(group, kind, chunk)
        assert accepts(group, kind, chunk[0])


def test_convolve_is_pair_counting():
    rng = np.random.default_rng(5)
    for group in (cyclic(7), quaternion8(), direct_product(cyclic(2), cyclic(4))):
        subsets = list(all_nonidentity_subsets(group))
        picks = [subsets[i] for i in rng.integers(0, len(subsets), size=12)]
        x = indicator_columns(group.order, picks)
        y = indicator_columns(group.order, picks[::-1])
        got = convolve(group, x, y)
        for j, (a, b) in enumerate(zip(picks, picks[::-1])):
            brute = [brute_count_pair(group, a, b, g) for g in range(group.order)]
            assert got[:, j].tolist() == brute
            assert convolve(group, x[:, j], y[:, j]).tolist() == brute
            assert pair_count_table(group, a, b).tolist() == brute
