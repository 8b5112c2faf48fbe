import math
from fractions import Fraction

import pytest

from frameforge import (
    FrameParams,
    Rejection,
    c_value,
    feasible_mu_values,
    mu_from_k,
    params_from_mu,
)


def test_params_16_2():
    p = params_from_mu(16, 2)
    assert isinstance(p, FrameParams)
    assert (p.k, p.lambda1, p.lambda2) == (6, -3.0, 5.0)
    assert p.discriminant == 64


def test_params_conference_case():
    p = params_from_mu(6, 0)
    assert p.k == 3


@pytest.mark.parametrize("n", [4, 6, 10, 16, 36, 64])
def test_params_trivial_line(n):
    p = params_from_mu(n, n - 2)
    assert p.k == 1


def test_params_infeasible_reasons():
    assert params_from_mu(7, 0).detail == "mu=0: odd-n-with-mu-zero"
    assert params_from_mu(8, 2).detail == "mu=2: non-square-discriminant"
    # n=7, mu=1: discriminant 25 is square but k = 7*4/10 is not integral
    assert params_from_mu(7, 1).detail == "mu=1: non-integral-k"


def test_params_rejects_tiny_n():
    with pytest.raises(ValueError):
        params_from_mu(1, 0)


def test_mu_from_k_examples():
    assert mu_from_k(16, 6).exact == 2
    assert mu_from_k(10, 5).exact == 0
    assert mu_from_k(9, 6).exact == -2
    inexact = mu_from_k(5, 2)
    assert inexact.exact is None
    assert inexact.value == pytest.approx((5 - 4) * math.sqrt(4 / 6))


def test_mu_from_k_rational_non_integer():
    got = mu_from_k(50, 5)
    assert got.exact == Fraction(56, 3)


def test_c_value_examples():
    assert c_value(6, 3) == pytest.approx(1 / (2 * math.sqrt(5)), abs=1e-15)
    assert c_value(14, 7) == pytest.approx(1 / (2 * math.sqrt(13)), abs=1e-15)
    assert c_value(4, 1) == pytest.approx(0.25, abs=1e-15)


def test_round_trip_mu_k():
    for n in range(2, 200):
        for mu in range(-(n - 2), n - 1):
            p = params_from_mu(n, mu)
            if isinstance(p, Rejection):
                continue
            back = mu_from_k(n, p.k)
            assert back.exact == mu, (n, mu, p.k)


def test_complement_duality():
    for n in range(2, 120):
        for mu in range(0, n - 1):
            p = params_from_mu(n, mu)
            q = params_from_mu(n, -mu)
            if isinstance(p, FrameParams) and isinstance(q, FrameParams):
                assert p.k + q.k == n


def test_invariant_relations():
    for n, mu in [(16, 2), (36, 2), (14, 0), (9, -2), (64, 2), (100, -2)]:
        p = params_from_mu(n, mu)
        assert isinstance(p, FrameParams)
        assert p.lambda1 + p.lambda2 == pytest.approx(mu, rel=1e-12)
        assert p.lambda1 * p.lambda2 == pytest.approx(-(n - 1), rel=1e-12)
        assert n == pytest.approx(1 - p.lambda1 * p.lambda2, rel=1e-12)
        assert 1 <= p.k <= n - 1
        assert p.c_value ** 2 * n * n * (n - 1) == pytest.approx(p.k * (n - p.k), rel=1e-12)


def test_feasible_mu_signature_2p():
    assert feasible_mu_values(10, "signature") == [-8, 0, 8]


def test_feasible_mu_signature_16():
    values = feasible_mu_values(16, "signature")
    assert values == [-14, -2, 2, 14]


def test_feasible_mu_quasi_14():
    assert feasible_mu_values(14, "quasi") == [0]


def test_feasible_mu_quasi_4p_empty():
    assert feasible_mu_values(12, "quasi") == []
    assert feasible_mu_values(20, "quasi") == []


def test_feasible_mu_odd_n_empty():
    assert feasible_mu_values(9, "signature") == []


def test_feasible_mu_rejects_unknown_context():
    with pytest.raises(ValueError):
        feasible_mu_values(10, "other")
