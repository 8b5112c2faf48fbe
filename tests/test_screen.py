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
from frameforge.cube_root import CubePartition, build_cube_matrix
from frameforge.matrices import border_standard, certify_two_eigenvalue
from frameforge.search import KINDS, screen
from frameforge.subsets import convolve, indicator_columns
from frameforge.verdicts import Rejection, SignatureVerdict

from conftest import all_nonidentity_subsets, brute_count_pair, small_groups_to_order_8

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
    q = build_cube_matrix(group, CubePartition.from_pair(group, s, t))
    return border_standard(q) if kind == "cube-quasi" else q


def candidates(group, kind):
    if kind.startswith("cube"):
        return list(cube_candidates(group))
    return list(enumerate_inverse_closed(group))


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

    full = Subset.full_nonidentity(73)
    empty = Subset.empty(73)
    pairs = [(full, empty), (Subset.of(73, [1, 72]), Subset.of(73, range(2, 37)))]
    assert list(screen(group, "cube-pair", pairs)) == [True, False]
    assert [accepts(group, "cube-pair", p) for p in pairs] == [True, False]


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
