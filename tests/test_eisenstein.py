import operator

import numpy as np
import pytest

from frameforge import cyclic
from frameforge.eisenstein import (
    CUBE_ROOTS,
    OMEGA,
    OMEGA2,
    ONE,
    ZERO,
    EisensteinInt,
    eis_product,
    unit_from_token,
    unit_to_token,
)
from frameforge.matrices import _exact_matmul
from frameforge.subsets import convolve


def test_omega_squared():
    assert OMEGA * OMEGA == OMEGA2
    assert OMEGA * OMEGA2 == ONE
    assert ONE + OMEGA + OMEGA2 == ZERO


def test_ring_operations():
    x = EisensteinInt(2, -3)
    y = EisensteinInt(-1, 4)
    assert x + y == EisensteinInt(1, 1)
    assert x - y == EisensteinInt(3, -7)
    assert x * y == EisensteinInt(2 * -1 - (-3 * 4), 2 * 4 + (-3) * (-1) - (-3) * 4)
    assert x * 3 == EisensteinInt(6, -9)
    assert 1 + x == EisensteinInt(3, -3)


def test_conjugation():
    z = EisensteinInt(5, 2)
    assert z.conjugate() == EisensteinInt(3, -2)
    assert OMEGA.conjugate() == OMEGA2
    for u in CUBE_ROOTS:
        assert u * u.conjugate() == ONE
        assert u.norm() == 1


def test_complex_embedding():
    z = OMEGA.to_complex()
    assert z.real == pytest.approx(-0.5)
    assert (z ** 3).real == pytest.approx(1.0)
    assert abs(OMEGA2.to_complex() - OMEGA.to_complex().conjugate()) < 1e-15


def test_tokens_round_trip():
    for token in ("0", "1", "-1", "w", "w2"):
        value = unit_from_token(token)
        assert unit_to_token(value) == token
    with pytest.raises(ValueError):
        unit_from_token("w3")


def test_str_forms():
    assert str(EisensteinInt(3, 0)) == "3"
    assert str(OMEGA) == "1w"
    assert str(EisensteinInt(2, -1)) == "2-1w"


def test_eis_product_matches_scalar_multiplication():
    values = [EisensteinInt(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for x in values:
        for y in values:
            assert EisensteinInt(*eis_product(x.a, x.b, y.a, y.b, operator.mul)) == x * y
            assert x * y == EisensteinInt(x.a * y.a - x.b * y.b, x.a * y.b + x.b * y.a - x.b * y.b)


def test_eis_product_under_matmul_matches_a_per_entry_reference():
    rng = np.random.default_rng(17)
    for n, m, k in ((1, 1, 1), (3, 4, 2), (6, 6, 6)):
        a1, b1 = rng.integers(-5, 6, size=(2, n, m))
        a2, b2 = rng.integers(-5, 6, size=(2, m, k))
        a, b = eis_product(a1, b1, a2, b2, np.matmul)
        for i in range(n):
            for j in range(k):
                z = sum(
                    (EisensteinInt(int(a1[i, t]), int(b1[i, t]))
                     * EisensteinInt(int(a2[t, j]), int(b2[t, j])) for t in range(m)),
                    ZERO,
                )
                assert (a[i, j], b[i, j]) == (z.a, z.b)


def test_eis_product_with_scalar_zero_omega_parts_forms_one_product():
    calls = []

    def op(x, y):
        calls.append((x, y))
        return x @ y

    a = np.arange(9).reshape(3, 3)
    zero = np.zeros((), dtype=np.int64)
    prod_a, prod_b = eis_product(a, zero, a, zero, op)
    assert len(calls) == 1 and np.array_equal(prod_a, a @ a) and prod_b == 0


def four_products(a1, b1, a2, b2, op):
    """The schoolbook product: (a1 a2 - b1 b2) + (a1 b2 + b1 a2 - b1 b2) w."""
    bb = op(b1, b2)
    return op(a1, a2) - bb, op(a1, b2) + op(b1, a2) - bb


C4096 = cyclic(4096)
PRODUCTS = {
    "multiply": (np.multiply, (64, 3)),
    "convolve": (lambda x, y: convolve(C4096, x, y), (4096, 2)),
    "matmul": (_exact_matmul, (48, 48)),
}


@pytest.mark.parametrize("name", PRODUCTS)
def test_three_products_equal_the_four_product_formula(name):
    # entries in {-1, 0, 1} as int16 columns, for a square and for two factors,
    # against the schoolbook formula in int64
    op, shape = PRODUCTS[name]
    rng = np.random.default_rng(len(name))
    x_a, x_b, y_a, y_b = rng.integers(-1, 2, size=(4, *shape)).astype(np.int16)
    for a1, b1, a2, b2 in [(x_a, x_b, x_a, x_b), (x_a, x_b, y_a, y_b)]:
        want = four_products(*(v.astype(np.int64) for v in (a1, b1, a2, b2)), op)
        got = eis_product(a1, b1, a2, b2, op)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_three_products_at_the_bound():
    # convolve in int16 on C4096: a + b = +-2 everywhere makes the cross
    # product +-4n = +-16384, and cross - aa reaches 3n; _exact_matmul at its
    # float32 tier's edge: n * max|a1 + b1| * max|a2 + b2| is just below 2**24
    # (m = 511), or exactly 2**24 (m = 512), where the cross product takes int64
    ones = np.ones((4096, 1), dtype=np.int16)
    op = PRODUCTS["convolve"][0]
    for a1, b1, a2, b2 in [(ones, ones, ones, ones), (ones, ones, -ones, -ones), (ones, -ones, ones, ones)]:
        want = four_products(*(v.astype(np.int64) for v in (a1, b1, a2, b2)), op)
        assert all(np.array_equal(g, w) for g, w in zip(eis_product(a1, b1, a2, b2, op), want))
    rng = np.random.default_rng(7)
    for m in (511, 512):
        a1, b1, a2, b2 = rng.choice([-m, m], size=(4, 16, 16))
        b1[0, 0], b2[0, 0] = a1[0, 0], a2[0, 0]  # max|a + b| = 2m
        want = four_products(a1, b1, a2, b2, np.matmul)
        assert all(np.array_equal(g, w) for g, w in zip(eis_product(a1, b1, a2, b2, _exact_matmul), want))
