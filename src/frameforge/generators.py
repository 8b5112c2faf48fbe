"""Generate (2k, k) equiangular frames from primes.

Two families of quasi-signature sets in (Z_p, +):

* p = 8m+5 with 2 a primitive root mod p: the even powers of 2 (the
  quadratic residues) form a quasi-signature set for a (p+1, (p+1)/2)
  frame; algorithm id "thm59".
* p = 8m+1 with <2> of index 2 in (Z_p, .): the powers of 2 themselves
  form one; algorithm id "thm511".

Either way the bordered matrix is a symmetric conference matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import MAX_ORDER, cyclic
from .numbertheory import is_prime, multiplicative_order
from .signature_sets import verify_quasi_signature_set
from .subsets import Subset
from .verdicts import Rejection, SignatureVerdict

__all__ = [
    "GeneratorHit",
    "ALGORITHM_IDS",
    "generate",
]

ALGORITHM_5MOD8 = "thm59"
ALGORITHM_1MOD8 = "thm511"
ALGORITHM_IDS = (ALGORITHM_5MOD8, ALGORITHM_1MOD8)


@dataclass(frozen=True)
class GeneratorHit:
    m: int
    p: int
    n: int
    k: int
    residues: tuple[int, ...]
    algorithm: str


def _power_set(p: int, step: int) -> tuple[int, ...]:
    """Sorted residues {2^(step*r) mod p : 1 <= r <= (p-1)/2}."""
    base = pow(2, step, p)
    out = set()
    x = 1
    for _ in range((p - 1) // 2):
        x = x * base % p
        out.add(x)
    return tuple(sorted(out))


# algorithm id -> (p mod 8, index of <2> in (Z_p, .), power step)
_FAMILIES = {ALGORITHM_5MOD8: (5, 1, 2), ALGORITHM_1MOD8: (1, 2, 1)}


def generate(algorithm: str, max_m: int, verify: bool = True) -> list[GeneratorHit]:
    """Hits of one family ("thm59" or "thm511") for m = 0..max_m; every p
    must be a group order within MAX_ORDER, so max_m <= 511."""
    if algorithm not in _FAMILIES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if max_m < 0:
        raise ValueError(f"max_m must be non-negative, got {max_m}")
    residue, index, step = _FAMILIES[algorithm]
    if 8 * max_m + residue > MAX_ORDER:
        raise ValueError(f"max_m={max_m} gives p = {8 * max_m + residue} > MAX_ORDER = {MAX_ORDER}")
    hits = []
    for m in range(max_m + 1):
        p = 8 * m + residue
        if not is_prime(p) or multiplicative_order(2, p) != (p - 1) // index:
            continue
        hit = GeneratorHit(
            m=m, p=p, n=p + 1, k=(p + 1) // 2,
            residues=_power_set(p, step), algorithm=algorithm,
        )
        if verify:
            _reverify(hit)
        hits.append(hit)
    return hits


def _reverify(hit: GeneratorHit) -> SignatureVerdict:
    group = cyclic(hit.p)
    verdict = verify_quasi_signature_set(group, Subset.of(hit.p, hit.residues))
    if isinstance(verdict, Rejection):
        fault = str(verdict)
    elif (verdict.params.n, verdict.params.k, verdict.mu) != (hit.n, hit.k, 0):
        fault = f"gave (n, k, mu) = ({verdict.params.n}, {verdict.params.k}, {verdict.mu})"
    else:
        return verdict
    raise RuntimeError(f"internal: generated set for p={hit.p} failed re-verification: {fault}")
