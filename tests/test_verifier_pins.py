"""Pins on the verifiers' exact results and on their mutual-oracle errors.

The digests are sha256 over `str(result)`, one result per line, for every
candidate of small groups: any change to a verdict, a rejection reason, its
detail text or its witness changes a digest.  The oracle tests make the
group-algebra identity disagree with the counting criterion and require the
hard error.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import combinations

import pytest

from frameforge import (
    Subset,
    cyclic,
    diffset_to_signature,
    direct_product,
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
    "C2": "5e6f76bb2ca461977bc99285cd37213e36f32813bdb5c546ee8ba8403e6f6696",
    "C3": "80a755c31f06c25434d62ccc41343ac9a7b466d90caf22caa3de685ce407ac2d",
    "C4": "f18ac0dcfd77fb40f52f2e5938371baf0dba2b090121605a329e234d06a40515",
    "C5": "16679e5554982acb82d8568f020f8b29faa1f1cb8e8a7d73e3e1cc4c25711178",
    "C6": "2e771b372fad338d54d3d878a689a49315d03e20656c05c55e9c3343e2ebc555",
    "C7": "14134194025bc29e8639fc134ae97f5b964d89c0ff47439d52967be3fed116f0",
    "C8": "8b12b3b31c7ce4756cfcbc66fa7e32df7eee784dbc2b03e21618f91c00041d6b",
    "C9": "20fcb63b424db9b93e6d83e3e141622c5a782c525457a2a437413afce38d460e",
    "Q8": "ecb140f2fe722d669fba2c9b8c13fbadd80d4706a796aa9cc7e7ebfee75a22ef",
    "C2xC4": "681fe402d95ce7ff997543110bffc423eea7f999e61cba14b3c59ee2fc358b25",
    "C3xC3": "b12871bcd394d5bc0b05e489ce90d8468fa979ee2581470da9a368edbd538056",
}

PAIR_DIGESTS = {
    "C1": "adc7acd2208d305165c591967dca1e8236d5f8a41ebd6c410d921808cdca6233",
    "C2": "63181aa5585433ed32dc31a51274c5bae88a3bfb8d1c5be6ff6043f5939e0873",
    "C3": "ae594c5b36f49cf0b6ca1feb3140f6a5969c2597d4d6afa354405afc8fdf1278",
    "C4": "744f614699f52335c2b46f617088fa519c9ddc2c485acfc388eddd87f9dc7d67",
    "C5": "0c3d688a10394ae76af15d68231d85ddfc0ae79e932c55559d59c00962073282",
    "C6": "457b4f3b75b5354e747f2719ed3e17f35888a72d44f0fdef4ca23ccf831a0bd9",
    "C7": "229600ed1d602fd3d981a7f4fe96fd67a0c70aa2eb331daea478b000bd168604",
    "C8": "9e9d970f908350818dbde734765e24e639a1f20fae7956a0fbed1796c8a7e746",
    "C9": "3a0c1da15a81442142a9eb4df8dda707ccad7ab99210c6c645f0488a29828c87",
    "Q8": "97c4b3c2d4233e597d5a8e70faba0d7929767038de3e0cabbb4f5dc6c2c96f22",
    "C2xC4": "f8bed7b98eaf047f4f9573ed2c71d129b77ff38e146ae4ce17b25c29ba67eacc",
    "C3xC3": "e532ec0fc8d6a59460218929fcdc2f85c15565f7134524f7209a17fca1468c86",
}

DIFFSET_DIGESTS = {
    "C4": "f777ae9190d07739f7b2aa74f1e084289794b9209628337825809ab05bc3150e",
    "C2xC2": "360529e285f21ace984e0b41980a152601f61ca275d9c790047a8a9153dea9d5",
    "C9": "6bfd2aadd7fc00e5971e65d983e6d149975db24db45674662ff52e32b9ad22fb",
    "C3xC3": "328b8ce13a3724647f74f0b48294baa8eb9f3c4fa3e05d2f9c54db2b2bb4cb22",
    "C4xC4": "302bec756289721671a6fde1f5ae99ce0c18bdca89c98c1ad72ab19c835af0e7",
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
