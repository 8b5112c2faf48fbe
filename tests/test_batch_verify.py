"""Batch verification: `signature_sets.verify_batch`.

`search` passes each chunk's survivors to one batch, and the four public
verifiers are batches of one.  A batch must give every candidate the
verdict, or the Rejection with the same reason, detail and witness, that the
candidate gets alone; the mutual oracle must still raise inside a batch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from frameforge.cli import main
from frameforge.signature_sets import verify_batch
from frameforge.verdicts import SignatureVerdict

from conftest import all_nonidentity_subsets, supported_descriptors

SINGLE = {
    "signature": verify_signature_set,
    "quasi": verify_quasi_signature_set,
    "cube-pair": verify_signature_pair,
    "cube-quasi": verify_quasi_signature_pair,
}


def alone(group, kind, candidate):
    args = candidate if kind.startswith("cube") else (candidate,)
    return SINGLE[kind](group, *args)


def assert_batch_equals_single(group, kind, candidates):
    got = verify_batch(group, kind, candidates)
    assert len(got) == len(candidates)
    for candidate, result in zip(candidates, got):
        assert str(result) == str(alone(group, kind, candidate)), (group.name, kind, candidate)


# Reason tally over every identity-free subset of the 35 descriptors of order
# <= 16 (196,178 subsets per kind), as the one-candidate verifiers gave it.
TALLY = {
    "signature": {"accept": 180, "count-mismatch-on-s": 1569, "count-mismatch-on-t": 567,
                  "odd-order": 38486, "s-not-inverse-closed": 155376},
    "quasi": {"accept": 10, "count-mismatch-on-s": 179, "count-mismatch-on-t": 5,
              "mu-out-of-range": 16264, "odd-frame-size": 157692,
              "s-not-inverse-closed": 22028},
}


def test_exhaustive_tally_of_the_set_batches():
    descriptors = supported_descriptors(16)
    assert len(descriptors) == 35
    tally = {kind: Counter() for kind in TALLY}
    for descriptor in descriptors:
        group = parse_group(descriptor)
        subsets = list(all_nonidentity_subsets(group))
        for kind in TALLY:
            tally[kind].update(
                "accept" if isinstance(r, SignatureVerdict) else r.reason
                for r in verify_batch(group, kind, subsets)
            )
    assert {kind: dict(counts) for kind, counts in tally.items()} == TALLY


GROUPS = [cyclic(4), cyclic(5), cyclic(6), cyclic(7), cyclic(9), quaternion8(),
          direct_product(cyclic(2), cyclic(4)), direct_product(cyclic(3), cyclic(3)),
          direct_product(cyclic(4), cyclic(4))]
HITS = {
    (group.name, kind): [
        (h.verdict.subset, h.verdict.t_subset) if kind.startswith("cube") else h.verdict.subset
        for h in search(SearchSpec(group=group, kind=kind, force=True))
    ]
    for group in GROUPS
    for kind in SINGLE
}


@st.composite
def mixed_batches(draw, kind):
    """A group and a batch that mixes every failure with true hits: random
    bit masks (some holding the identity, some not inverse-closed, and for
    the cube kinds overlapping or with V != T^-1), subsets of a group of
    another order, closed candidates from the enumerator, and hits."""
    group = draw(st.sampled_from(GROUPS))
    n = group.order
    cube = kind.startswith("cube")
    enumerated = (cube_candidates if cube else enumerate_inverse_closed)(group)
    closed = st.integers(0, len(enumerated) - 1).map(enumerated.__getitem__)
    subset = st.builds(Subset, st.just(n), st.integers(0, (1 << n) - 1))
    wrong = st.builds(Subset, st.just(n + 1), st.integers(0, (1 << n) - 1).map(lambda b: b << 1))
    hits = st.sampled_from(HITS[group.name, kind] or [enumerated[0]])
    if cube:
        subset, wrong = st.tuples(subset, subset), st.tuples(wrong, wrong)
    return group, draw(st.lists(st.one_of(subset, wrong, closed, hits), min_size=1, max_size=24))


@pytest.mark.parametrize("kind", sorted(SINGLE))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mixed_batch_equals_one_at_a_time(kind, data):
    group, candidates = data.draw(mixed_batches(kind))
    assert_batch_equals_single(group, kind, candidates)


@pytest.mark.parametrize("kind", ["signature", "quasi"])
@pytest.mark.parametrize("descriptor", ["C8", "C11", "C13", "Q8", "C2xC4", "C3xC3", "C2xC6"])
def test_every_subset_of_small_groups(descriptor, kind):
    group = parse_group(descriptor)
    assert_batch_equals_single(group, kind, list(all_nonidentity_subsets(group)))


# sha256 of str(result), one line per inverse-closed subset in code order, as
# the one-candidate quasi verifier gave them before batching.  These groups
# reach count-mismatch-on-t with mu != 0 (11 and 14 times), which no group of
# order <= 16 does.
QUASI_DIGESTS = {
    "C23": "2fedb29b77690cc52d304ed6d96726710631ce4a65dd72016c80e0ac0d9931bf",
    "C29": "bb25e65e0a06818aaba16e903849f678faf7fa583dbed51a3fba4b9f3547d702",
}


@pytest.mark.parametrize("descriptor", sorted(QUASI_DIGESTS))
def test_quasi_batch_of_every_closed_subset_is_pinned(descriptor):
    group = parse_group(descriptor)
    results = verify_batch(group, "quasi", list(enumerate_inverse_closed(group)))
    digest = hashlib.sha256("\n".join(map(str, results)).encode()).hexdigest()
    assert digest == QUASI_DIGESTS[descriptor]


@pytest.mark.parametrize("kind", ["cube-pair", "cube-quasi"])
def test_every_cube_candidate_through_order_9(kind):
    for descriptor in supported_descriptors(9):
        group = parse_group(descriptor)
        assert_batch_equals_single(group, kind, list(cube_candidates(group)))


def test_results_do_not_depend_on_the_stack_size(monkeypatch):
    # cut a batch into stacks of one matrix each: the results stay the same
    group = direct_product(cyclic(3), cyclic(3))
    pairs = list(cube_candidates(group))
    want = [str(r) for r in verify_batch(group, "cube-quasi", pairs)]
    monkeypatch.setattr(sys.modules["frameforge.matrices"], "_STACK", 1)
    assert [str(r) for r in verify_batch(group, "cube-quasi", pairs)] == want


# The mutual oracle survives batching: with the verifiers' `seidel_identity`
# off by 3 in mu and the search screen's copy untouched, the survivors reach
# a batch whose oracle disagrees.
ORACLE_CASES = {
    "signature": "C4xC4",
    "quasi": "C5",
    "cube-pair": "C3",
    "cube-quasi": "Q8",
}


def off_by_three(monkeypatch):
    # the oracle of `verify_batch`, for all four kinds; no guard, so a move
    # of the oracle fails here instead of patching nothing
    real = sys.modules["frameforge.signature_sets"].seidel_identity

    def wrong(group, kind, a, b):
        holds, mu = real(group, kind, a, b)
        return holds, mu + 3
    monkeypatch.setattr("frameforge.signature_sets.seidel_identity", wrong)


@pytest.mark.parametrize("kind", sorted(SINGLE))
def test_oracle_disagreement_in_search_is_a_hard_error(kind, monkeypatch):
    group = parse_group(ORACLE_CASES[kind])
    spec = SearchSpec(group=group, kind=kind)
    hits = [h.verdict for h in search(spec)]
    assert len(hits) >= 2
    screen = sys.modules["frameforge.search"].seidel_identity
    off_by_three(monkeypatch)
    assert sys.modules["frameforge.search"].seidel_identity is screen
    with pytest.raises(RuntimeError, match="disagree"):
        search(spec)
    candidates = [(v.subset, v.t_subset) if kind.startswith("cube") else v.subset for v in hits]
    with pytest.raises(RuntimeError, match="disagree"):
        verify_batch(group, kind, candidates * 2)


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("group", ["C4xC4", "C16"])
@pytest.mark.parametrize("kind", ["signature", "cube-pair", "cube-quasi"])
def test_abelian_dedupe_keeps_every_hit(group, kind):
    argv = ["search", "--group", group, "--kind", kind]
    plain = cli_stdout(argv)
    assert plain[0] == 0 and cli_stdout(argv + ["--dedupe"]) == plain


# sha256 of `search --group Q8 --kind <kind> --dedupe` stdout, as the
# conjugation pass gave it before abelian groups skipped it
Q8_DEDUPE = {
    "signature": "edef9f0cd01f07a961bfe5e1f44766d06ba05e90713f07679a8e94fd2e234052",
    "cube-pair": "2d6388784f23f5ecd2330743d9253f7b6f0d0c39ff52c906e7b2ee538845f984",
    "cube-quasi": "92d3c12d3fad98c560a80dbf2aa889ca1a6409ae7df116497b6dc6fde2d7a163",
}


@pytest.mark.parametrize("kind", sorted(Q8_DEDUPE))
def test_q8_dedupe_output_is_pinned(kind):
    code, out = cli_stdout(["search", "--group", "Q8", "--kind", kind, "--dedupe"])
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == Q8_DEDUPE[kind]
