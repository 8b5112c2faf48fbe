"""Pins on the verifiers' exact results and on their mutual-oracle errors.

The digests are sha256 over `str(result)`, one result per line, for every
candidate of small groups: any change to a verdict, a rejection reason, its
detail text or its witness changes a digest.  The oracle tests make the
group-algebra identity disagree with the counting criterion, or refuse the
parameters of a mu it holds with, and require the hard error.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import combinations

import pytest

from frameforge import (
    Rejection,
    Subset,
    certify_two_eigenvalue,
    cyclic,
    diffset_to_signature,
    direct_product,
    quasi_signature_matrix,
    quaternion8,
    verify_difference_set,
    verify_quasi_signature_pair,
    verify_quasi_signature_set,
    verify_signature_pair,
    verify_signature_set,
)

from conftest import all_cube_assignments


def _groups():
    groups = {f"C{n}": cyclic(n) for n in range(1, 10)}
    groups["Q8"] = quaternion8()
    groups["C2xC4"] = direct_product(cyclic(2), cyclic(4))
    groups["C3xC3"] = direct_product(cyclic(3), cyclic(3))
    return groups


GROUPS = _groups()


def _digest(results) -> str:
    return hashlib.sha256("\n".join(map(str, results)).encode()).hexdigest()


def _all_subsets(group):
    return [Subset(group.order, bits) for bits in range(1 << group.order)]


SET_DIGESTS = {
    "C1": "1e6a63be7a7cc8332263fac88e6ace13c9c2590f730ec77df8ee6e1faea583e4",
    "C2": "61cbdf94db066602c1e553a16eeb52744a5f566fe0c8a1292b82ccde7a1af6ce",
    "C3": "80a755c31f06c25434d62ccc41343ac9a7b466d90caf22caa3de685ce407ac2d",
    "C4": "94a168de043829f9da5aede65b5b37d734749592313a0016e26db9f0b705ef5e",
    "C5": "f4f744ebba751be9f4c2925e7f15046caaee162a518bb279fe9918d2eeddb70a",
    "C6": "dd3bfa7a38082bfd8061b925f533fe65f059d3bb1bc6c319c48d073dbc4918f3",
    "C7": "14134194025bc29e8639fc134ae97f5b964d89c0ff47439d52967be3fed116f0",
    "C8": "7aa4e5145283f7a35523e48b29631bf0e15897494e132e4e50228ad8b910c638",
    "C9": "20fcb63b424db9b93e6d83e3e141622c5a782c525457a2a437413afce38d460e",
    "Q8": "4191c4e4d436886e430940d2afe7d3c9fd237807d5029db0ad63b3470f8acaa8",
    "C2xC4": "f742cc3292adb92ab06d4ceacc39605650fe6ebd9ef8c52968c88104326f2725",
    "C3xC3": "9169ad0e0807c76a2acb82e29e8e68d2a2c3957dacef81a07ba6d5786f4cc3d5",
}

PAIR_DIGESTS = {
    "C1": "b1b92a86a4ccf549aa609878f50f4e1db61392785c5c1cb429bf6c1990ba178d",
    "C2": "4b91c7263751908bc8c90ee3a8a82c489b3ee42435094b52c696744ea63df1b2",
    "C3": "bec3b4ff993f3062515ef22ff791c336292ff85a24ab7f610dcd618985a60d25",
    "C4": "5a696965b4cc4965c81258bcfcff0d67d9bb5d4b2290a71ea0b643ddb17c8d61",
    "C5": "11df636bfa7a70a1216de386935dd77a19a02a79361b087f9237a23ad664c348",
    "C6": "d2ed451c60c4ea097206e821a0e0040cc407245f34718877208033e913f34ff3",
    "C7": "4d45c22b204f8b32a69a6d9ac5106bc47503575a0da21e7693da6a3be1e128d2",
    "C8": "c5872fafe003a7909045846fd9bda8b8adaca12a7cd7294e272056f186430d7c",
    "C9": "8822788f85052b0da2fc54634bf329a9f84da2156e0b1a26377fb7dae6c4cd65",
    "Q8": "2d9de5cced7624943eb8ecf69a11d18d06a16c4954cd2501dcea65985ca63de0",
    "C2xC4": "f3e001afddc9cf6d2aedec270d120ddc9bec615debdc3ab5c1730590fb407404",
    "C3xC3": "641374777beebdaefb80a87f612e20a512fbf3e3244a20c3a6e804d82c3dd585",
}

DIFFSET_DIGESTS = {
    "C4": "1817d9bc5427f46edf71a5fd500580d1ca6238b5725ddb8830e1b2bea31a3e50",
    "C2xC2": "09e14a35e879fe6f36e32f0e9a50dd696c76f4cf71a8dc02718e5511f4a2269c",
    "C9": "6bfd2aadd7fc00e5971e65d983e6d149975db24db45674662ff52e32b9ad22fb",
    "C3xC3": "328b8ce13a3724647f74f0b48294baa8eb9f3c4fa3e05d2f9c54db2b2bb4cb22",
    "C4xC4": "499b7a057da79bd19a2d8003c4ae8b4fe7fe1bdc7aa30457ee5a76bb8e5994f3",
}


@pytest.mark.parametrize("name", sorted(SET_DIGESTS))
def test_set_verifier_results_are_pinned(name):
    group = GROUPS[name]
    subsets = _all_subsets(group)
    results = [
        verify(group, s)
        for verify in (verify_signature_set, verify_quasi_signature_set, verify_difference_set)
        for s in subsets
    ]
    assert _digest(results) == SET_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PAIR_DIGESTS))
def test_cube_verifier_results_are_pinned(name):
    group = GROUPS[name]
    pairs = list(all_cube_assignments(group))
    results = [
        verify(group, s, t)
        for verify in (verify_signature_pair, verify_quasi_signature_pair)
        for s, t in pairs
    ]
    assert _digest(results) == PAIR_DIGESTS[name]


DIFFSET_GROUPS = {
    "C4": GROUPS["C4"],
    "C2xC2": direct_product(cyclic(2), cyclic(2)),
    "C9": GROUPS["C9"],
    "C3xC3": GROUPS["C3xC3"],
    "C4xC4": direct_product(cyclic(4), cyclic(4)),
}


def _diffset_candidates(name):
    if name == "C4xC4":  # the sizes around (16 -+ 4)/2, not all 2**16 subsets
        return [
            Subset.of(16, members)
            for size in (6, 7, 10)
            for members in combinations(range(16), size)
        ]
    return _all_subsets(DIFFSET_GROUPS[name])


@pytest.mark.parametrize("name", sorted(DIFFSET_DIGESTS))
def test_diffset_to_signature_results_are_pinned(name):
    group = DIFFSET_GROUPS[name]
    results = [diffset_to_signature(group, d) for d in _diffset_candidates(name)]
    assert _digest(results) == DIFFSET_DIGESTS[name]


# One known hit per kind: the index-2 set {2} of C4 (mu = 2), the quadratic
# residues of C5 (the (6, 3) conference frame), the cube pair ({}, {1}) of C3
# and the quaternion quasi-pair ({-1}, {i, j, k}).
def _q8_pair():
    q8 = quaternion8()
    return verify_quasi_signature_pair, (q8, q8.subset(["-1"]), q8.subset(["i", "j", "k"]))


KNOWN_HITS = {
    "signature": lambda: (verify_signature_set, (cyclic(4), Subset.of(4, [2]))),
    "quasi": lambda: (verify_quasi_signature_set, (cyclic(5), Subset.of(5, [1, 4]))),
    "cube-pair": lambda: (
        verify_signature_pair, (cyclic(3), Subset.empty(3), Subset.of(3, [1]))
    ),
    "cube-quasi": _q8_pair,
}


@pytest.mark.parametrize("kind", sorted(KNOWN_HITS))
def test_mutual_oracle_disagreement_is_a_hard_error(kind, monkeypatch):
    verify, args = KNOWN_HITS[kind]()
    assert verify(*args).ok

    def wrong_mu(real):
        def patched(group, kind, a, b):
            holds, mu = real(group, kind, a, b)
            return holds, mu + 3
        return patched

    patched = 0
    for name, module in list(sys.modules.items()):
        if name.startswith("frameforge.") and hasattr(module, "seidel_identity"):
            monkeypatch.setattr(module, "seidel_identity", wrong_mu(module.seidel_identity))
            patched += 1
    assert patched
    with pytest.raises(RuntimeError):
        verify(*args)


def test_infeasible_parameters_for_a_true_identity_are_a_hard_error(monkeypatch):
    # the mu of any matrix that satisfies the two-eigenvalue identity is
    # feasible, so a refusal from params_from_mu is an implementation bug
    c4xc4 = direct_product(cyclic(4), cyclic(4))
    axis = c4xc4.subset(["(1,0)", "(2,0)", "(3,0)", "(0,1)", "(0,2)", "(0,3)"])
    quasi = quasi_signature_matrix(cyclic(5), Subset.of(5, [1, 4]))
    assert verify_signature_set(c4xc4, axis).ok and certify_two_eigenvalue(quasi).ok

    def infeasible(n, mu):
        return Rejection("infeasible-parameters", f"mu={mu}: non-integral-k")

    for name in ("frameforge.signature_sets", "frameforge.matrices"):
        monkeypatch.setattr(sys.modules[name], "params_from_mu", infeasible)
    with pytest.raises(RuntimeError, match="internal"):
        verify_signature_set(c4xc4, axis)
    with pytest.raises(RuntimeError, match="internal"):
        certify_two_eigenvalue(quasi)
