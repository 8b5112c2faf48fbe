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

from .numbertheory import is_prime
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


def feasible_mu_values(n: int, context: str = "signature") -> list[int]:
    """Even mu values that survive every exact screen for the given context.

    context="signature": |mu| <= n-2, the counting values (n-2 -+ mu)/4 must
    be integers, params_from_mu must succeed, and for n = 2p or 4p (p an odd
    prime) only the classified values survive.
    context="quasi": range 2 - n/3 <= mu <= n/3 - 2 plus the same
    integrality/feasibility screens and the 2p / 4p refinements.
    """
    if context not in ("signature", "quasi"):
        raise ValueError(f"unknown context {context!r}")
    if n < 2:
        raise ValueError("frame size n must be at least 2")
    if n % 2:
        return []
    out = []
    for mu in range(-(n - 2), n - 1):
        if mu % 2 or (n - 2 - mu) % 4:
            continue
        if context == "quasi" and not (6 - n <= 3 * mu <= n - 6):
            continue
        if isinstance(params_from_mu(n, mu), Rejection):
            continue
        out.append(mu)
    half = n // 2
    if half % 2 and is_prime(half) and half > 2:          # n = 2p
        allowed = {0, n - 2, -(n - 2)} if context == "signature" else {0}
        out = [mu for mu in out if mu in allowed]
    elif half % 2 == 0 and is_prime(half // 2) and half // 2 > 2:  # n = 4p
        allowed = {n - 2, -(n - 2)} if context == "signature" else set()
        out = [mu for mu in out if mu in allowed]
    return out
