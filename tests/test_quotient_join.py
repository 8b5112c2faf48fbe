"""The quotient-contraction join in `search`.

A quotient map rho: G -> G/H is a ring homomorphism of group algebras, so
the image of every hit solves the quotient identity, and `search` expands
only the codes whose image does.  These tests pin the hit sets of larger
searches (recorded with the full scan of every code), check the
homomorphism property for every quotient the rule can pick, and compare the
join's code set with a brute-force filter of all codes.
"""

import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameforge.groups
from frameforge import GroupTable, SearchSpec, Subset, cyclic, direct_product, make_group, parse_group, search
from frameforge.eisenstein import eis_product
from frameforge.quotients import (
    _KEYS_PER_HALF_CODE,
    Quotient,
    choose_quotient,
    key_count,
    normal_quotients,
    trivial_quotient,
)
from frameforge.search import KINDS, Candidates
from frameforge.subsets import conjugate_subset, convolve, seidel_identity

from conftest import supported_descriptors

SEARCH = sys.modules["frameforge.search"]  # the package's `search` attribute is the function


def permutation_group(name, generators):
    """The group of permutations that the generators produce, by closure;
    the identity comes first and the rest in order of discovery."""
    identity = tuple(range(len(generators[0])))
    elements, frontier = [identity], [identity]
    while frontier:
        frontier = [tuple(p[q[k]] for k in identity) for p in frontier for q in generators]
        frontier = [p for p in dict.fromkeys(frontier) if p not in elements]
        elements += frontier
    index = {p: i for i, p in enumerate(elements)}
    mul = [[index[tuple(p[q[k]] for k in identity)] for q in elements] for p in elements]
    return make_group(name, np.array(mul), [str(i) for i in range(len(elements))])


S3 = permutation_group("S3", [(1, 2, 0), (0, 2, 1)])
D4 = permutation_group("D4", [(1, 2, 3, 0), (0, 3, 2, 1)])  # <s> has index 4 and is not normal
D8 = permutation_group("D8", [(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)])
A4xC2 = direct_product(permutation_group("A4", [(1, 2, 0, 3), (1, 0, 3, 2)]), cyclic(2))  # squares: no subgroup

#: (descriptor, kind, hits, sha256 of the hit rows), recorded with the full scan
HIT_PINS = [
    ("C4xC8", "signature", 8, "a12110c8059dfd8698cd83cf21398bfb7884852e90906e7436e99ac6432ecb36"),
    ("C6xC6", "signature", 200, "041e520bc9eabac98d884e572459e393c7b970662a7b74af15ed8db85a7fe0b8"),
    ("C2xC20", "signature", 8, "00216ecffb2cc0832c3bb06b3640c7f02eb3114405983ad297fb4f893e27b992"),
    ("C40", "signature", 4, "d595abfd0665052a25a4be6b25d57bfcc96dcf28672f2386d5b051b0502acecb"),
    ("C5xC7", "quasi", 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("C37", "quasi", 2, "63794418fbae1cd83e53a5cd9e2024333c8c60a12885861bee6ca1da6cd749d0"),
    ("C21", "cube-pair", 3, "f6af01c4e4a3f1049ca3bd63496b91a9309231bd9bb7447a640ea9f874dac2ab"),
    ("C3xC9", "cube-pair", 9, "bf057a0ff15a313f7b348c2fb36d12bc35bbb94e891a7598f4624ac8fe543e64"),
    ("Q8", "cube-pair", 1, "b787560c7fa8ebceadc16f9ea1f267f4f5518e5a7f9ddcc4ce143819d88e4009"),
    ("Q8", "cube-quasi", 9, "7e61caecb48e97d7a2212c6e714c75f0c09e20469635bbeeb36ea280d4598f9e"),
]


@pytest.mark.parametrize("descriptor, kind, count, digest", HIT_PINS)
def test_hit_sets_match_the_full_scan(descriptor, kind, count, digest):
    hits = search(SearchSpec(group=parse_group(descriptor), kind=kind, force=True))
    rows = [[list(map(list, h.canonical_key)), h.verdict.mu, h.verdict.params.k] for h in hits]
    assert len(hits) == count
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def all_quotients(group):
    return [trivial_quotient(group.order)] + normal_quotients(group)


QUOTIENT_GROUPS = {name: parse_group(name) for name in
                   supported_descriptors(16) + ["C4xC8", "C6xC6", "C2xC20", "C40", "C3xC9", "C5xC7"]}
QUOTIENT_GROUPS.update(S3=S3, D4=D4)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(QUOTIENT_GROUPS)), seed=st.integers(0, 2**32 - 1),
       width=st.integers(1, 5))
def test_quotient_map_is_a_ring_homomorphism(name, seed, width):
    group = QUOTIENT_GROUPS[name]
    rng = np.random.default_rng(seed)
    x_a, x_b, y_a, y_b = rng.integers(-3, 4, size=(4, group.order, width), dtype=np.int16)
    product = eis_product(x_a, x_b, y_a, y_b, lambda x, y: convolve(group, x, y))
    for quotient in all_quotients(group):
        image = eis_product(*map(quotient.project, (x_a, x_b, y_a, y_b)),
                            lambda x, y: convolve(quotient.group, x, y))
        assert all(np.array_equal(quotient.project(p), q) for p, q in zip(product, image)), name


def test_cosets_multiply_by_the_quotient_table():
    # rho is a homomorphism exactly when coset(g h) = coset(g) coset(h), which
    # holds only for a normal subgroup; D4's <s> is not one
    for name, group in QUOTIENT_GROUPS.items():
        for quotient in all_quotients(group):
            coset = quotient.coset
            assert np.array_equal(coset[group.mul], quotient.group.mul[coset[:, None], coset]), name


def test_quaternion_quotient_by_its_centre_is_a_candidate():
    q8 = parse_group("Q8")
    centre = [q for q in normal_quotients(q8) if q.order == 4]
    assert len(centre) == 1
    assert sorted(np.flatnonzero(centre[0].coset == 0).tolist()) == [q8.index("1"), q8.index("-1")]
    assert choose_quotient(q8, "cube-quasi", 27).order == 4


def brute_force_joined(space, quotient, kind):
    """Every code whose image in the quotient solves the quotient identity."""
    codes = np.arange(len(space))
    a, b = space.columns(codes)
    images = (quotient.project(a), quotient.project(b) if np.ndim(b) else 0)
    return set(codes[seidel_identity(quotient.group, kind, *images, quotient.h)[0]].tolist())


def joined(space, quotient, kind):
    batches = list(space.join(quotient, kind))
    assert all(0 < len(codes) <= SEARCH._CHUNK for codes in batches)
    codes = np.concatenate(batches).tolist() if batches else []
    assert len(codes) == len(set(codes))
    return set(codes)


def quotient_identity(quotient, kind, a, b):
    """Reference: whether each image a + b*omega solves the identity on G/H,
    and its mu, in int64 with c*c by `convolve(a, a)` in Z[omega], both
    omega parts compared and mu from the augmentation,
    (sum c)^2 = n - 1 + mu * sum c."""
    n, shift = len(quotient.coset), kind in ("quasi", "cube-quasi")
    a, b = a.astype(np.int64), b.astype(np.int64) if np.ndim(b) else 0
    total = a.sum(axis=0)
    mu = total if shift else (total * total - (n - 1)) // np.where(total == 0, 1, total)
    sq_a, sq_b = eis_product(a, b, a, b, lambda x, y: convolve(quotient.group, x, y))
    sq_a = sq_a + shift * (n // quotient.order)
    sq_a[0] -= n - 1 + shift
    holds = (sq_a == mu * a).all(axis=0)
    if np.ndim(b):
        holds &= (sq_b == mu * b).all(axis=0)
    return holds, mu


@pytest.mark.parametrize("kind", KINDS)
def test_seidel_identity_equals_the_quotient_reference(kind):
    # every quotient the join can use, and H = 1, where G/H is G and the
    # real kinds take the shortcut for c = +-1 off e
    for group in [parse_group(d) for d in supported_descriptors(16)] + [S3, D4]:
        space = Candidates(group, kind.startswith("cube"))
        a, b = space.columns(np.arange(len(space)))
        for quotient in all_quotients(group) + [Quotient(np.arange(group.order), group)]:
            images = (quotient.project(a), quotient.project(b) if np.ndim(b) else 0)
            holds, mu = seidel_identity(quotient.group, kind, *images, quotient.h)
            want_holds, want_mu = quotient_identity(quotient, kind, *images)
            where = (group.name, kind, quotient.order)
            assert np.array_equal(holds, want_holds), where
            assert np.array_equal(mu[holds], want_mu[holds]), where


@pytest.mark.parametrize("kind", KINDS)
def test_join_equals_the_brute_force_filter(kind):
    for group in [parse_group(d) for d in supported_descriptors(16)] + [S3, D4]:
        space = Candidates(group, kind.startswith("cube"))
        for quotient in all_quotients(group):
            want = brute_force_joined(space, quotient, kind)
            assert joined(space, quotient, kind) == want, (group.name, kind, quotient.order)


@pytest.mark.parametrize("descriptor, kind", [("C4xC4", "signature"), ("C16", "cube-quasi"),
                                              ("C3xC5", "cube-pair"), ("C5xC5", "quasi")])
def test_join_with_small_tables_and_batches(monkeypatch, descriptor, kind):
    # the low and middle digits capped at 8 codes, so most digits are top
    # digits walked one value at a time, and ragged batches of 5 codes
    group = parse_group(descriptor)
    space = Candidates(group, kind.startswith("cube"))
    quotients = all_quotients(group)
    want = [joined(space, q, kind) for q in quotients]
    monkeypatch.setattr(SEARCH, "_HALF_CODES", 8)
    monkeypatch.setattr(SEARCH, "_CHUNK", 5)
    for quotient, codes in zip(quotients, want):
        assert joined(space, quotient, kind) == codes == brute_force_joined(space, quotient, kind)


@pytest.mark.parametrize("descriptor, kind, order, self_inverse", [
    ("C4xC8", "signature", 8, 2),    # C4xC8 -> C8
    ("C6xC6", "signature", 4, 4),    # -> C2xC2
    ("C2xC20", "signature", 4, 4),   # -> C2xC2
    ("C40", "signature", 8, 2),      # -> C8
    ("C5xC5", "quasi", 5, 1),        # -> C5
    ("C37", "quasi", 1, 1),          # no proper non-trivial subgroup: G/G
    ("C3xC9", "cube-pair", 9, 1),    # -> C3xC3
])
def test_rule_picks(descriptor, kind, order, self_inverse):
    group = parse_group(descriptor)
    quotient = choose_quotient(group, kind, len(Candidates(group, kind.startswith("cube"))))
    assert quotient.order == order
    assert int((quotient.group.inv == np.arange(order)).sum()) == self_inverse


def test_key_bound_covers_the_images():
    for descriptor in supported_descriptors(16):
        group = parse_group(descriptor)
        for cube in (False, True):
            space = Candidates(group, cube)
            a, b = space.columns(np.arange(len(space)))
            for quotient in all_quotients(group):
                image = quotient.project(a)
                if cube:
                    image = np.vstack([image, quotient.project(b)])
                distinct = len(np.unique(image, axis=1).T)
                assert distinct <= key_count(quotient, cube), (descriptor, cube, quotient.order)


def every_quotient(group):
    """Reference family: G/H for each normal cyclic subgroup of p-power index
    and each subgroup generated by the p^j-th powers (p the least prime
    dividing |G|), in that order, each H once; every quotient is built."""
    n, mul, inv = group.order, group.mul, group.inv
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    if p is None:
        return []
    powers = [list(range(n))]  # powers[k][g] = g^(k+1), up to the exponent
    while any(powers[-1]):
        powers.append([int(mul[x, g]) for g, x in enumerate(powers[-1])])
    cyclic_subgroups = [{powers[k][g] for k in range(len(powers))} for g in range(n)]
    subgroups = []
    for g, h in enumerate(cyclic_subgroups):
        index = n // len(h)
        if 1 < index < n and p ** round(math.log(index, p)) == index and all(
                int(mul[mul[x, g], inv[x]]) in h for x in range(n)):
            subgroups.append(h)
    k = p
    while len(powers) % k == 0:
        h = set(powers[k - 1])
        while (grown := h | {int(mul[x, y]) for x in h for y in h}) != h:
            h = grown
        subgroups.append(h)
        k *= p
    out, seen = [], []
    for h in subgroups:
        if 1 < len(h) < n and h not in seen:
            seen.append(h)
            cosets = sorted({min(int(mul[g, x]) for x in h) for g in range(n)})
            coset = np.array([cosets.index(min(int(mul[g, x]) for x in h)) for g in range(n)])
            table = coset[mul[np.ix_(cosets, cosets)]]
            quotient = GroupTable("G/H", table, np.argmin(table, axis=1), tuple(map(str, cosets)))
            out.append(Quotient(coset, quotient))
    return out


def test_ranked_choice_equals_building_every_quotient():
    # of the quotients within the key budget whose images fit in an int64:
    # the most cosets, then the largest key bound, then the first
    for group in [*map(parse_group, supported_descriptors(64)), S3, D4, D8, A4xC2]:
        for kind in KINDS:
            cube = kind.startswith("cube")
            candidates = len(Candidates(group, cube))
            budget = _KEYS_PER_HALF_CODE * math.isqrt(candidates)
            want = max([trivial_quotient(group.order)] + [
                q for q in every_quotient(group)
                if key_count(q, cube) <= budget and q.strides(cube)[-1] < 2 ** 62
            ], key=lambda q: (q.order, key_count(q, cube)))
            got = choose_quotient(group, kind, candidates)
            assert np.array_equal(got.coset, want.coset), (group.name, kind)
            assert np.array_equal(got.group.mul, want.group.mul), (group.name, kind)


def test_cyclic_quotients_read_no_table(monkeypatch):
    def refuse(name, *args):
        raise AssertionError(f"built the Cayley table of {name}")

    monkeypatch.setattr(frameforge.groups, "make_group", refuse)
    group = cyclic(40)
    assert [q.order for q in normal_quotients(group)] == [2, 4, 8]
    assert len(search(SearchSpec(group=group, kind="signature", force=True))) == 4
    assert "mul" not in vars(group)


def test_conjugate_subset_on_a_cyclic_group_reads_no_table(monkeypatch):
    def refuse(name, *args):
        raise AssertionError(f"built the Cayley table of {name}")

    monkeypatch.setattr(frameforge.groups, "make_group", refuse)
    group = cyclic(4096)
    s = Subset.of(4096, [1, 5, 4091, 4095])
    assert conjugate_subset(group, s, 3) == s
    with pytest.raises(ValueError, match="out of range"):
        conjugate_subset(group, s, 4096)
    assert "mul" not in vars(group)


def conjugate_by_loop(group, s, t):
    """Reference: {t * x * t^-1 : x in s}, one member at a time."""
    t_inv = int(group.inv[t])
    return Subset.of(s.order, [int(group.mul[group.mul[t, x], t_inv]) for x in s])


def test_conjugate_subset_equals_the_member_loop():
    rng = np.random.default_rng(16)
    for group in [parse_group(d) for d in supported_descriptors(16)] + [S3, D4]:
        for _ in range(5):
            s = Subset.from_mask(group.order, rng.random(group.order) < 0.5)
            for t in range(group.order):
                assert conjugate_subset(group, s, t) == conjugate_by_loop(group, s, t), (group.name, t)


def dedupe_by_each_conjugation(group, hits):
    """Reference: conjugate by every element with `conjugate_subset`."""
    def key(subset, g):
        return () if subset is None else tuple(sorted(conjugate_subset(group, subset, g).labels(group)))

    kept, seen = [], set()
    for hit in hits:
        s, t = hit.verdict.subset, hit.verdict.t_subset
        best = min((key(s, g), key(t, g)) for g in range(group.order))
        if best not in seen:
            seen.add(best)
            kept.append(hit)
    return kept


@pytest.mark.parametrize("group", [parse_group("Q8"), S3, D4, parse_group("C4xC4"), parse_group("C6")],
                         ids=lambda g: g.name)
def test_dedupe_equals_conjugation_by_every_element(group):
    for kind in KINDS:
        hits = search(SearchSpec(group=group, kind=kind))
        deduped = search(SearchSpec(group=group, kind=kind, dedupe_conjugates=True))
        assert deduped == dedupe_by_each_conjugation(group, hits), (group.name, kind)
