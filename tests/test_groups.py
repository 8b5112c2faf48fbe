import numpy as np
import pytest

import frameforge.groups

from frameforge import (
    Subset,
    conjugate_subset,
    cyclic,
    direct_product,
    inverse_set,
    make_group,
    parse_group,
    quaternion8,
    subgroup_generated,
    units_mod,
)
from frameforge.groups import _check_associative, _reached

from conftest import supported_descriptors


def test_cyclic_trivial():
    g = cyclic(1)
    assert g.order == 1
    assert g.mul.tolist() == [[0]]


def test_cyclic_modular_addition():
    g = cyclic(5)
    assert int(g.mul[1, 4]) == 0
    assert int(g.inv[2]) == 3


def test_cyclic_13_inverse():
    assert int(cyclic(13).inv[4]) == 9  # 4 + 9 = 13


def test_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        cyclic(0)


def test_klein_four_self_inverse():
    g = direct_product(cyclic(2), cyclic(2))
    assert g.order == 4
    assert np.array_equal(g.inv, np.arange(4))


def test_direct_product_componentwise_inverse(c4xc4):
    one_zero = c4xc4.index("(1,0)")
    assert c4xc4.labels[c4xc4.inv[one_zero]] == "(3,0)"


def test_direct_product_order(c6xc6):
    assert c6xc6.order == 36
    assert c6xc6.is_abelian


@pytest.mark.parametrize("build", [
    lambda: (cyclic(4), cyclic(8)),
    lambda: (cyclic(64), cyclic(64)),
    lambda: (cyclic(3), quaternion8()),
], ids=["C4xC8", "C64xC64", "C3xQ8"])
def test_direct_product_table_matches_index_gather(build):
    g1, g2 = build()
    n2 = g2.order
    packed = np.arange(g1.order * n2)
    left, right = packed // n2, packed % n2
    reference = (g1.mul[np.ix_(left, left)].astype(np.int32) * n2
                 + g2.mul[np.ix_(right, right)])
    mul = direct_product(g1, g2).mul
    assert mul.dtype == reference.dtype == np.int32
    assert mul.tobytes() == reference.tobytes()


def test_cyclic_factors_are_never_tabulated(monkeypatch):
    # the product table is written by index arithmetic, and validated once
    validated = []
    make_group = frameforge.groups.make_group
    monkeypatch.setattr(frameforge.groups, "make_group",
                        lambda name, *args: validated.append(name) or make_group(name, *args))
    for descriptor in supported_descriptors(64):
        if "x" in descriptor:
            a, b = (int(part[1:]) for part in descriptor.split("x"))
            g1, g2 = cyclic(a), cyclic(b)
            product = direct_product(g1, g2)
            assert "mul" not in vars(g1) and "mul" not in vars(g2), descriptor
            assert validated == [product.name] == [descriptor]
            validated.clear()
            left, right = np.divmod(np.arange(a * b), b)
            reference = (left[:, None] + left) % a * b + (right[:, None] + right) % b
            assert np.array_equal(product.mul, reference), descriptor


def test_direct_product_overflow_rejected():
    with pytest.raises(ValueError):
        direct_product(cyclic(128), cyclic(64))


def test_units_mod_3():
    g = units_mod(3)
    assert g.order == 2


def test_units_mod_13_generated_by_2(z13_units):
    assert z13_units.order == 12
    two = z13_units.index("2")
    assert subgroup_generated(z13_units, [two]).size == 12


def test_units_mod_7_order_of_2():
    g = units_mod(7)
    assert g.element_order(g.index("2")) == 3  # 2^3 = 8 = 1 mod 7


@pytest.mark.parametrize("x", [-3, -1, 8, 9])
def test_element_order_refuses_an_index_out_of_range(q8, x):
    # a negative index used to wrap: element_order(-3) read row 5 and gave 4
    with pytest.raises(ValueError, match=f"element index {x} out of range"):
        q8.element_order(x)


def test_subgroup_generated_refuses_an_index_out_of_range(q8):
    for g in (-1, 8):
        with pytest.raises(ValueError, match=f"generator index {g} out of range"):
            subgroup_generated(q8, [1, g])


def test_units_mod_rejects_composite():
    with pytest.raises(ValueError):
        units_mod(10)


def test_quaternion_relations(q8):
    i, j, k = q8.index("i"), q8.index("j"), q8.index("k")
    assert q8.labels[q8.mul[i, j]] == "k"
    assert q8.labels[q8.mul[j, i]] == "-k"
    assert q8.labels[q8.mul[j, k]] == "i"
    assert q8.labels[q8.mul[k, i]] == "j"
    assert q8.labels[q8.inv[i]] == "-i"
    assert not q8.is_abelian


def test_quaternion_table_matches_hamilton_product(q8):
    units = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}
    quat = dict(units)
    quat.update({"-" + lab: tuple(-c for c in q) for lab, q in units.items()})

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    for x, lx in enumerate(q8.labels):
        for y, ly in enumerate(q8.labels):
            assert quat[q8.labels[q8.mul[x, y]]] == hamilton(quat[lx], quat[ly])


def test_subgroup_generated_examples(q8, z13_units):
    g6 = cyclic(6)
    assert tuple(subgroup_generated(g6, [2])) == (0, 2, 4)

    g17 = units_mod(17)
    got = sorted(int(lab) for lab in subgroup_generated(g17, [g17.index("2")]).labels(g17))
    assert got == [1, 2, 4, 8, 9, 13, 15, 16]

    got13 = sorted(int(lab) for lab in subgroup_generated(z13_units, [z13_units.index("4")]).labels(z13_units))
    assert got13 == [1, 3, 4, 9, 10, 12]


def test_subgroup_generated_closure_property():
    rng = np.random.default_rng(7)
    for g in (cyclic(12), direct_product(cyclic(3), cyclic(4)), quaternion8()):
        for _ in range(5):
            gens = rng.integers(0, g.order, size=2)
            h = subgroup_generated(g, gens.tolist())
            members = h.indices_array()
            assert 0 in h
            assert np.isin(g.mul[np.ix_(members, members)], members).all()
            assert np.isin(g.inv[members], members).all()
            assert set(members.tolist()) == _brute_closure(g, gens.tolist())


def _brute_closure(g, gens):
    """Reference: every product of generators and their inverses, by a set loop."""
    members, frontier = {0}, [0]
    steps = [*gens, *(int(g.inv[x]) for x in gens)]
    while frontier:
        x = frontier.pop()
        for y in (int(g.mul[x, s]) for s in steps):
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def _frontier_reached(mul, gens):
    """Reference: breadth-first search from the identity, one round per
    Cayley-graph step."""
    reached = np.arange(mul.shape[0]) == 0
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        grown = reached.copy()
        grown[mul[frontier][:, gens]] = True
        frontier = np.flatnonzero(grown > reached)
        reached = grown
    return reached


def _dihedral(m):
    """D_m, index k + m*f standing for r^k s^f, with s r = r^-1 s."""
    k, f = np.divmod(np.arange(2 * m), m)[::-1]
    mul = (k[:, None] + np.where(f[:, None], -k, k)) % m + m * (f[:, None] ^ f)
    return make_group(f"D{m}", mul, [str(i) for i in range(2 * m)])


@pytest.mark.parametrize("descriptor", supported_descriptors(64) + ["D3", "D4", "D5", "D12", "D32"])
def test_log_step_closure_equals_the_frontier_search(descriptor):
    group = _dihedral(int(descriptor[1:])) if descriptor[0] == "D" else parse_group(descriptor)
    mul = group.mul
    for g in range(group.order):
        assert np.array_equal(_reached(mul, [g]), _frontier_reached(mul, [g])), g
    rng = np.random.default_rng(group.order)
    for size in (0, 2, 3, 5):
        gens = rng.integers(0, group.order, size=size).tolist()
        assert np.array_equal(_reached(mul, gens), _frontier_reached(mul, gens)), gens


def test_conjugation_abelian_fixes_sets():
    g = cyclic(10)
    s = Subset.of(10, [1, 9, 3, 7])
    for t in range(10):
        assert conjugate_subset(g, s, t) == s


def test_conjugation_quaternion(q8):
    s = q8.subset(["i", "-i"])
    assert conjugate_subset(q8, s, q8.index("j")) == s
    centre = q8.subset(["-1"])
    for t in range(8):
        assert conjugate_subset(q8, centre, t) == centre


@pytest.mark.parametrize("t", [-1, 8, 9])
def test_conjugation_refuses_an_index_out_of_range(q8, t):
    # t = -1 used to conjugate by element 7, and t = 9 to raise IndexError
    with pytest.raises(ValueError, match=f"element index {t} out of range"):
        conjugate_subset(q8, q8.subset(["i", "-i"]), t)


def test_conjugation_preserves_size_and_closure(q8):
    rng = np.random.default_rng(3)
    for _ in range(20):
        raw = [int(x) for x in rng.integers(1, 8, size=3)]
        s = Subset.of(8, set(raw) | {int(q8.inv[x]) for x in raw})
        t = int(rng.integers(0, 8))
        conj = conjugate_subset(q8, s, t)
        assert conj.size == s.size
        assert inverse_set(q8, conj) == conj


def test_make_group_rejects_broken_tables():
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        make_group("bad", bad, ["e", "a"])
    shifted = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        make_group("bad", shifted, ["e", "a"])
    for entry in (2, -1, 2**32):  # not an element index; 2**32 would wrap to 0 in int32
        with pytest.raises(ValueError, match="element indices"):
            make_group("bad", np.array([[0, 1], [1, entry]]), ["e", "a"])
    # the int32 cast would truncate 0.5 to 0 and accept C2
    for table in (np.array([[0, 1], [1, 0.5]]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(ValueError, match="integer dtype"):
            make_group("bad", table, ["e", "a"])


def test_make_group_rejects_non_associative():
    # a Latin square with identity that fails associativity (order 5 loop)
    table = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    with pytest.raises(ValueError):
        make_group("loop5", table, list("eabcd"))


def _swap_intercalate(mul, r1, r2, c1, c2):
    """Exchange the two values of the 2x2 Latin subsquare at rows r1, r2 and
    columns c1, c2; the table stays a Latin square with the same identity."""
    out = np.array(mul)
    assert out[r1, c1] == out[r2, c2] and out[r1, c2] == out[r2, c1]
    for r in (r1, r2):
        out[r, [c1, c2]] = out[r, [c2, c1]]
    return out


def _relabel(mul, perm):
    """The table of the same group after renaming x to perm[x] (perm[0] == 0)."""
    out = np.empty_like(mul)
    out[np.ix_(perm, perm)] = perm[mul]
    return out


def _random_intercalate(mul, rng):
    """Rows and columns (none of them the identity) of a random intercalate, or None."""
    n = mul.shape[0]
    for _ in range(200):
        r1, r2, c1 = (int(x) for x in rng.integers(1, n, size=3))
        c2 = int(np.flatnonzero(mul[r2] == mul[r1, c1])[0])
        if r1 != r2 and c2 != 0 and mul[r1, c2] == mul[r2, c1]:
            return r1, r2, c1, c2
    return None


def _brute_associative(mul):
    """Every triple: (x*y)*z == x*(y*z), i.e. mul[mul[x, y], z] == mul[x, mul[y, z]]."""
    return bool(np.array_equal(mul[mul], mul[:, mul]))


@pytest.mark.parametrize("n,a", [(4096, 1), (512, 200)])
def test_make_group_rejects_cyclic_table_with_swapped_intercalate(n, a):
    # Still a Latin square with identity and inverses, but not associative.
    # At order 4096 a million sampled triples did not find a failing one;
    # at order 512 the failing rows lie past the first 128 of each row block.
    h = n // 2
    mul = _swap_intercalate(cyclic(n).mul, a, a + h, 1, 1 + h)
    with pytest.raises(ValueError, match="associativity"):
        make_group(f"C{n}-swapped", mul, [str(k) for k in range(n)])


@pytest.mark.parametrize("descriptor", [
    "C2", "C3", "C4", "C6", "C8", "C9", "C12", "C16", "C30", "C64",
    "C2xC2", "C2xC4", "C3xC6", "C4xC4", "C2xC16", "C8xC8", "Q8",
])
def test_group_checks_agree_with_brute_force(descriptor):
    def accepted(check, mul):
        try:
            check(mul)
        except ValueError:
            return False
        return True

    def light(mul):
        return accepted(_check_associative, mul)

    def validated(mul):
        return accepted(lambda m: make_group("t", m, [str(k) for k in range(len(m))]), mul)

    rng = np.random.default_rng(sum(map(ord, descriptor)))
    base = parse_group(descriptor).mul
    n = base.shape[0]
    for _ in range(4):
        perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
        mul = _relabel(base, perm)
        assert light(mul) and _brute_associative(mul) and validated(mul)
        where = _random_intercalate(mul, rng)
        if where is not None:
            swapped = _swap_intercalate(mul, *where)
            assert light(swapped) == _brute_associative(swapped)
            assert validated(swapped) == _brute_is_group(swapped)
        if n > 1:  # one entry off the identity row and column, possibly out of range
            broken = mul.copy()
            r, c = (int(x) for x in rng.integers(1, n, size=2))
            broken[r, c] = (broken[r, c] + rng.integers(1, n + 1)) % (n + 1)
            assert not _brute_is_group(broken) and not validated(broken)


def _brute_is_group(mul):
    """Reference: entries in range, Latin rows and columns, identity 0, associative."""
    n = mul.shape[0]
    idx = np.arange(n)
    if mul.min() < 0 or mul.max() >= n:
        return False
    latin = (np.sort(mul, axis=1) == idx).all() and (np.sort(mul, axis=0) == idx[:, None]).all()
    identity = (mul[0] == idx).all() and (mul[:, 0] == idx).all()
    return bool(latin and identity and _brute_associative(mul))


def test_parse_group_descriptors():
    assert parse_group("C6").name == "C6"
    assert parse_group("C4xC4").order == 16
    assert parse_group("Zmult13").order == 12
    assert parse_group("Q8").name == "Q8"
    with pytest.raises(ValueError):
        parse_group("S3")


def test_involutions():
    g = cyclic(12)
    assert tuple(g.involutions()) == (6,)
    assert quaternion8().involutions().labels(quaternion8()) == ("-1",)
