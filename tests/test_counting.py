import numpy as np
import pytest

from frameforge import (
    Subset,
    complement_nonidentity,
    cyclic,
    direct_product,
    inverse_set,
    is_inverse_closed,
    pair_count_table,
    quaternion8,
    units_mod,
)

from conftest import all_nonidentity_subsets, brute_count_pair, small_groups_to_order_8


def test_count_pair_empty_set():
    g = cyclic(7)
    empty = Subset.empty(7)
    full = Subset.full_nonidentity(7)
    table = pair_count_table(g, empty, full)
    for target in range(7):
        assert table[target] == brute_count_pair(g, empty, full, target) == 0


def test_count_pair_z5_example():
    g = cyclic(5)
    a = Subset.of(5, [1, 4])
    b = Subset.of(5, [2, 3])
    # exhaustive enumeration: products of A x B are {3, 4, 1, 2}, never 0
    assert pair_count_table(g, a, b)[0] == brute_count_pair(g, a, b, 0) == 0
    # the pairs (2,3) and (3,2) live in B x B
    assert pair_count_table(g, b, b)[0] == brute_count_pair(g, b, b, 0) == 2


def test_count_pair_z13_quasi_set_is_constant_on_s():
    g = cyclic(13)
    s = Subset.of(13, [1, 3, 4, 9, 10, 12])
    table = pair_count_table(g, s, s)
    for x in s:
        assert table[x] == brute_count_pair(g, s, s, x) == 2


def test_is_inverse_closed():
    g = cyclic(5)
    assert is_inverse_closed(g, Subset.empty(5))
    assert is_inverse_closed(g, Subset.of(5, [1, 4]))
    assert not is_inverse_closed(g, Subset.of(5, [1, 2]))
    q8 = quaternion8()
    assert is_inverse_closed(q8, q8.subset(["-1"]))


def test_inverse_set_examples():
    q8 = quaternion8()
    assert inverse_set(q8, q8.subset(["i", "j", "k"])) == q8.subset(["-i", "-j", "-k"])
    g9 = cyclic(9)
    assert inverse_set(g9, Subset.of(9, [1, 2])) == Subset.of(9, [8, 7])
    # a subgroup minus the identity is inverse-closed
    g12 = cyclic(12)
    s = Subset.of(12, [3, 6, 9])
    assert inverse_set(g12, s) == s


def test_symmetry_of_cross_counts_exhaustive_small_orders():
    # N_(S,T)^g = N_(T,S)^g for every partition of the non-identity elements
    for g in small_groups_to_order_8():
        for s in all_nonidentity_subsets(g):
            t = complement_nonidentity(s)
            st = pair_count_table(g, s, t)
            ts = pair_count_table(g, t, s)
            assert np.array_equal(st, ts), (g.name, s.indices())


def test_symmetry_of_cross_counts_sampled_larger_orders():
    rng = np.random.default_rng(11)
    groups = [cyclic(n) for n in (9, 15, 24)] + [
        direct_product(cyclic(4), cyclic(5)),
        direct_product(cyclic(2), cyclic(9)),
    ]
    for g in groups:
        for _ in range(25):
            bits = int(rng.integers(0, 1 << (g.order - 1))) << 1
            s = Subset(g.order, bits)
            t = complement_nonidentity(s)
            assert np.array_equal(pair_count_table(g, s, t), pair_count_table(g, t, s))


def test_sum_rule():
    rng = np.random.default_rng(23)
    g = direct_product(cyclic(3), cyclic(4))
    for _ in range(20):
        a = Subset(12, int(rng.integers(0, 1 << 12)))
        b = Subset(12, int(rng.integers(0, 1 << 12)))
        table = pair_count_table(g, a, b)
        assert int(table.sum()) == sum(brute_count_pair(g, a, b, t) for t in range(12))
        assert int(table.sum()) == a.size * b.size


@pytest.mark.parametrize(
    "group",
    [cyclic(11), units_mod(13), direct_product(cyclic(8), cyclic(8)), quaternion8()],
    ids=lambda g: g.name,
)
def test_intersection_formula_matches_brute_force(group):
    rng = np.random.default_rng(5)
    n = group.order
    for _ in range(8):
        a = Subset(n, int(rng.integers(0, 1 << min(n, 60))))
        b = Subset(n, int(rng.integers(0, 1 << min(n, 60))))
        table = pair_count_table(group, a, b)
        targets = rng.integers(0, n, size=4)
        for t in targets:
            assert table[t] == brute_count_pair(group, a, b, int(t))


def test_table_matches_single_queries():
    g = quaternion8()
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = Subset(8, int(rng.integers(0, 256)))
        b = Subset(8, int(rng.integers(0, 256)))
        table = pair_count_table(g, a, b)
        for t in range(8):
            assert int(table[t]) == brute_count_pair(g, a, b, t)


def test_count_pair_rejects_foreign_subsets():
    with pytest.raises(ValueError):
        pair_count_table(cyclic(5), Subset.empty(6), Subset.empty(5))
    with pytest.raises(ValueError):
        pair_count_table(cyclic(5), Subset.empty(5), Subset.empty(6))
