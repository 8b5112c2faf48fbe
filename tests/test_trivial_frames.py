"""The trivial frames (k = 1 or n - 1, mu = +-(n - 2)) that `search` lists in
closed form, against a full scan with no join and no screen.

A full scan verifies every candidate code of a group with `verify_batch`;
its hits with mu = +-(n - 2) must be the closed form's, and their number
what the proof in `search._trivial_candidates` predicts from |Hom(G, C_m)|,
counted here by brute force.  The groups are every group of order at most
16 that the conftest names, plus the dihedral groups D3-D8 and A4.
"""

from __future__ import annotations

import sys
from itertools import permutations, product

import numpy as np
import pytest

from frameforge import SearchSpec, feasible_mu_values, make_group, parse_group, search
from frameforge.params import cube_mod3_failures
from frameforge.search import KINDS, Candidates
from frameforge.signature_sets import verify_batch

from conftest import small_groups_to_order_8, supported_descriptors


def dihedral(k: int):
    """D_k of order 2k: r^i s^j at index i + k*j, with s r = r^-1 s."""
    i, j = np.divmod(np.arange(2 * k), k)[::-1]
    rot = (i[:, None] + np.where(j[:, None] == 1, -i, i)) % k
    mul = rot + k * ((j[:, None] + j) % 2)
    return make_group(f"D{k}", mul, [f"r{a}s{b}" for a, b in zip(i, j)])


def alternating4():
    """A4 as the even permutations of four points, the identity first."""
    perms = [p for p in permutations(range(4))
             if sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4)) % 2 == 0]
    index = {p: k for k, p in enumerate(perms)}
    mul = [[index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]
    return make_group("A4", np.array(mul), ["".join(map(str, p)) for p in perms])


def groups_to_order_16():
    named = {g.name: g for g in small_groups_to_order_8()}
    named |= {d: parse_group(d) for d in supported_descriptors(16)}
    return list(named.values()) + [dihedral(k) for k in range(3, 9)] + [alternating4()]


GROUPS = groups_to_order_16()


def homomorphisms(group, m: int) -> int:
    """|Hom(G, Z_m)| by brute force: every assignment of values to a greedy
    generating set, extended along products, kept when it is a homomorphism."""
    mul, gens, reached = group.mul, [], {0}
    while len(reached) < group.order:
        gens.append(min(set(range(group.order)) - reached))
        while len(grown := reached | {int(mul[x, g]) for x in reached for g in gens}) > len(reached):
            reached = grown
    count = 0
    for values in product(range(m), repeat=len(gens)):
        f, frontier = {0: 0}, [0]
        while frontier:
            x = frontier.pop()
            for g, v in zip(gens, values):
                if (y := int(mul[x, g])) not in f:
                    f[y] = (f[x] + v) % m
                    frontier.append(y)
        f = np.array([f[x] for x in range(group.order)])
        count += bool((f[mul] == (f[:, None] + f) % m).all())
    return count


def scan(group, kind: str) -> dict:
    """Every accepted candidate of a full scan, by (S, T), with its mu."""
    cube = kind.startswith("cube")
    candidates = list(Candidates(group, cube))
    return {c if cube else (c, None): v.mu
            for c, v in zip(candidates, verify_batch(group, kind, candidates)) if v.ok}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_closed_form_equals_the_full_scan(group, kind):
    n = group.order + kind.endswith("quasi")
    scanned = scan(group, kind)
    trivial = {c for c, mu in scanned.items() if abs(mu) == n - 2}
    closed = {(h.verdict.subset, h.verdict.t_subset)
              for mu in {n - 2, 2 - n} & set(feasible_mu_values(n, kind))
              for h in search(SearchSpec(group=group, kind=kind, mu=mu, force=True))}
    assert closed == trivial
    if kind == "signature":
        want = 0 if n % 2 else homomorphisms(group, 2) * (1 + (n > 2))  # at n = 2 the two coincide
    else:
        want = {"quasi": 0, "cube-pair": homomorphisms(group, 3) * (n > 1), "cube-quasi": 1}[kind]
    assert len(trivial) == want
    # the whole search, join included, is the scan, and its non-trivial cube
    # hits keep the mod-3 rule
    hits = search(SearchSpec(group=group, kind=kind, force=True))
    assert {(h.verdict.subset, h.verdict.t_subset): h.verdict.mu for h in hits} == scanned
    assert all(not cube_mod3_failures(n, mu) for c, mu in scanned.items()
               if kind.startswith("cube") and c not in trivial)


def test_the_census_groups_have_trivial_and_non_trivial_hits():
    # the scans above are not vacuous: Q8's eight (9, 6, -2) cube-quasi hits
    # and C4xC4's non-trivial signature sets are among them
    q8, c4xc4 = parse_group("Q8"), parse_group("C4xC4")
    assert sorted(scan(q8, "cube-quasi").values()) == [-2] * 8 + [7]
    assert sum(abs(mu) != 14 for mu in scan(c4xc4, "signature").values()) == 64


@pytest.mark.parametrize("descriptor, kind", [
    ("C9", "cube-pair"), ("C3xC3", "cube-pair"), ("Q8", "cube-quasi"), ("C4xC4", "cube-pair"),
    ("C15", "cube-quasi"), ("C4xC4", "signature"), ("C5", "quasi"), ("C37", "cube-quasi"),
    ("C29", "cube-pair"), ("C31", "cube-quasi"), ("C4xC8", "signature"),
])
def test_the_join_gets_only_the_mu_a_non_trivial_frame_can_have(monkeypatch, descriptor, kind):
    # mu = +-(n - 2) go to the closed form, and a cube kind joins only
    # mu = 1 with n = 0 (mod 3); with nothing to join, no quotient is chosen
    module = sys.modules["frameforge.search"]
    joins, quotients = [], []
    join, choose = Candidates.join, module.choose_quotient
    monkeypatch.setattr(Candidates, "join", lambda self, q, k, mus: joins.append(mus) or join(self, q, k, mus))
    monkeypatch.setattr(module, "choose_quotient", lambda *args: quotients.append(args) or choose(*args))
    group = parse_group(descriptor)
    n = group.order + kind.endswith("quasi")
    search(SearchSpec(group=group, kind=kind, force=True))
    want = [mu for mu in feasible_mu_values(n, kind) if abs(mu) != n - 2
            and (not kind.startswith("cube") or mu % 3 == 1 and n % 3 == 0)]
    assert joins == ([want] if want else []) and len(quotients) == len(joins)


@pytest.mark.parametrize("name, kind", [("C4xC8", "signature"), ("C2xC2xC2", "signature"),
                                        ("D6", "signature"), ("C9", "cube-pair"), ("A4", "cube-pair"),
                                        ("C16", "cube-quasi")])
def test_every_closed_form_hit_is_verified(monkeypatch, name, kind):
    # every hit, the closed form's among them, is a verdict that verify_batch gave
    verified = []

    def spy(group, kind, candidates):
        verdicts = verify_batch(group, kind, candidates)
        verified.extend(verdicts)
        return verdicts

    monkeypatch.setattr(sys.modules["frameforge.search"], "verify_batch", spy)
    group = parse_group(name) if name.startswith("C4x") else {g.name: g for g in GROUPS}[name]
    hits = search(SearchSpec(group=group, kind=kind, force=True))
    assert hits and sorted(id(h.verdict) for h in hits) == sorted(map(id, verified))
