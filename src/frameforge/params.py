"""Exact arithmetic tying together n, k, mu, the eigenvalue pair and c_{n,k}.

A signature matrix of an equiangular (n,k)-frame satisfies
Q^2 = (n-1)I + mu*Q, and its two eigenvalues are the roots of
x^2 - mu*x - (n-1).  Feasibility screening is pure integer arithmetic;
floats only appear in the reported eigenvalues and c_{n,k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .verdicts import Rejection

__all__ = [
    "FrameParams",
    "MuResult",
    "params_from_mu",
    "mu_from_k",
    "c_value",
    "feasible_mu_values",
]


@dataclass(frozen=True)
class FrameParams:
    """Certified parameter tuple of an equiangular (n,k)-frame."""

    n: int
    k: int
    mu: int
    discriminant: int  # mu^2 + 4(n-1)
    lambda1: float     # negative eigenvalue
    lambda2: float     # positive eigenvalue
    c_value: float     # common |<f_i, f_j>| of the Parseval frame


def c_value(n: int, k: int) -> float:
    """The equiangularity constant sqrt(k(n-k) / (n^2 (n-1)))."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    return math.sqrt(k * (n - k) / (n * n * (n - 1)))


def params_from_mu(n: int, mu: int) -> FrameParams | Rejection:
    """Solve for k (and the eigenvalues) given the matrix trace parameter mu.

    mu = 0 needs n even (k = n/2); otherwise the discriminant mu^2 + 4(n-1)
    must be a perfect square s^2 with k = n(s - mu)/(2s) an integer.  As
    s > |mu| for n >= 2, such a k lies strictly between 0 and n.  All
    screening is exact.  A failure is an infeasible-parameters rejection
    whose detail names the condition: odd-n-with-mu-zero,
    non-square-discriminant or non-integral-k.
    """
    if n < 2:
        raise ValueError("frame size n must be at least 2")
    d = mu * mu + 4 * (n - 1)
    if mu == 0:
        if n % 2:
            return Rejection("infeasible-parameters", f"mu={mu}: odd-n-with-mu-zero")
        return _build(n, n // 2, mu, d, math.sqrt(d))
    s = math.isqrt(d)
    if s * s != d:
        return Rejection("infeasible-parameters", f"mu={mu}: non-square-discriminant")
    if (n * (s - mu)) % (2 * s):
        return Rejection("infeasible-parameters", f"mu={mu}: non-integral-k")
    k = n * (s - mu) // (2 * s)
    return _build(n, k, mu, d, float(s))


def _build(n: int, k: int, mu: int, d: int, s: float) -> FrameParams:
    return FrameParams(
        n=n,
        k=k,
        mu=mu,
        discriminant=d,
        lambda1=(mu - s) / 2.0,
        lambda2=(mu + s) / 2.0,
        c_value=c_value(n, k),
    )


@dataclass(frozen=True)
class MuResult:
    """mu for given (n, k); exact is a Fraction when (n-1)k(n-k) is square."""

    value: float
    exact: Fraction | None


def mu_from_k(n: int, k: int) -> MuResult:
    """mu = (n - 2k) sqrt((n-1) / (k(n-k)))."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    if 2 * k == n:
        return MuResult(0.0, Fraction(0))
    radicand = (n - 1) * k * (n - k)
    root = math.isqrt(radicand)
    if root * root == radicand:
        exact = Fraction((n - 2 * k) * root, k * (n - k))
        return MuResult(float(exact), exact)
    return MuResult((n - 2 * k) * math.sqrt((n - 1) / (k * (n - k))), None)


def in_quasi_band(n, mu):
    """The quasi range 2 - n/3 <= mu <= n/3 - 2, for an int or array mu."""
    return abs(3 * mu) <= n - 6


def feasible_mu_values(n: int, kind: str = "signature") -> list[int]:
    """Every mu, ascending, that a frame of size n found by the search kind
    can have: where `params_from_mu` succeeds, and the kind's own rules hold.

    mu = 0 needs n even.  Any other mu has mu^2 + 4(n-1) = s^2, so
    u = (s - mu)/2 and v = (s + mu)/2 are a factor pair of n - 1 with
    mu = v - u and k = nu/(u + v) an integer; the divisors u <= sqrt(n-1)
    give each pair and both signs of mu.  The real kinds also need n even
    and the counting values (n-2 -+ mu)/4 integers, and "quasi" the band
    `in_quasi_band`; the cube kinds need feasible parameters only.
    """
    if kind not in ("signature", "quasi", "cube-pair", "cube-quasi"):
        raise ValueError(f"unknown kind {kind!r}")
    real = not kind.startswith("cube")
    if n < 2 or real and n % 2:
        return []
    found = {0} if n % 2 == 0 else set()
    for u in range(1, math.isqrt(n - 1) + 1):
        v = (n - 1) // u
        if u * v == n - 1 and n * u % (u + v) == 0:
            found |= {v - u, u - v}
    return [mu for mu in sorted(found)
            if not real or (n - 2 - mu) % 4 == 0 and (kind == "signature" or in_quasi_band(n, mu))]


def cube_mod3_failures(n: int, mu: int) -> list[str]:
    """The rules n = 0 and mu = 1 (mod 3) that (n, mu) fails; a cube-root Seidel
    matrix Q that fails one is switched to J - I, with mu = n - 2.  Mod 3,
    Z[omega] is F_3[pi]/(pi^2), pi = 1 - omega, omega^a = 1 - a*pi, and
    Q = J - I - pi*A with A antisymmetric, of row sums r.  Q^2 = (n-1)I + mu*Q
    reads n - 2 = mu and r_i - r_j = (mu + 2)A_ij, so mu != 1 gives
    A_ij = s_i - s_j (Bodmann, Paulsen, Tomforde, Linear Algebra Appl. 430, 2009)."""
    return [rule for rule, fails in (("n-not-divisible-by-3", n % 3), ("mu-not-1-mod-3", mu % 3 != 1)) if fails]
