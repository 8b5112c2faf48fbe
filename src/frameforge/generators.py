"""Generate (2k, k) equiangular frames from primes.

Two families of quasi-signature sets in (Z_p, +):

* p = 8m+5 with 2 a primitive root mod p: the even powers of 2 form a
  quasi-signature set for a (p+1, (p+1)/2) frame; algorithm id "thm59".
* p = 8m+1 with <2> of index 2 in (Z_p, .): the powers of 2 themselves
  form one; algorithm id "thm511".

In both families the set is the quadratic residues mod p (Paley's
construction), and the bordered matrix is a symmetric conference matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class GeneratorHit:
    m: int
    p: int
    n: int
    k: int
    residues: tuple[int, ...]
    algorithm: str


def _quadratic_residues(p: int) -> np.ndarray:
    """The set of both families as a length-p 0/1 mask: the quadratic
    residues {r*r mod p : 1 <= r <= (p-1)/2}.

    (Z_p, .) is cyclic of even order p - 1, so it has exactly one subgroup
    of index 2, the squares; r and p - r have the same square, so the
    squares are the r*r with r <= (p-1)/2.  For thm59, 2 generates
    (Z_p, .) and its even powers 2^(2r) are the squares.  For thm511, <2>
    has index 2, so it is the squares.
    """
    r = np.arange(1, (p + 1) // 2, dtype=np.int64)
    mask = np.zeros(p, dtype=np.uint8)
    mask[r * r % p] = 1
    return mask


# algorithm id -> (p mod 8, index of <2> in (Z_p, .))
_FAMILIES = {"thm59": (5, 1), "thm511": (1, 2)}
ALGORITHM_IDS = tuple(_FAMILIES)


def generate(algorithm: str, max_m: int, verify: bool = True) -> list[GeneratorHit]:
    """Hits of one family ("thm59" or "thm511") for m = 0..max_m; every p
    must be a group order within MAX_ORDER, so max_m <= 511."""
    if algorithm not in _FAMILIES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if max_m < 0:
        raise ValueError(f"max_m must be non-negative, got {max_m}")
    residue, index = _FAMILIES[algorithm]
    if 8 * max_m + residue > MAX_ORDER:
        raise ValueError(f"max_m={max_m} gives p = {8 * max_m + residue} > MAX_ORDER = {MAX_ORDER}")
    hits = []
    for m in range(max_m + 1):
        p = 8 * m + residue
        if not is_prime(p) or multiplicative_order(2, p) != (p - 1) // index:
            continue
        mask = _quadratic_residues(p)
        hit = GeneratorHit(
            m=m, p=p, n=p + 1, k=(p + 1) // 2,
            residues=tuple(np.flatnonzero(mask).tolist()), algorithm=algorithm,
        )
        if verify:
            _reverify(hit, Subset.from_mask(p, mask))
        hits.append(hit)
    return hits


def _reverify(hit: GeneratorHit, subset: Subset) -> SignatureVerdict:
    """Certify the hit's set, given as the Subset of its residues."""
    group = cyclic(hit.p)
    verdict = verify_quasi_signature_set(group, subset)
    if isinstance(verdict, Rejection):
        fault = str(verdict)
    elif (verdict.params.n, verdict.params.k, verdict.mu) != (hit.n, hit.k, 0):
        fault = f"gave (n, k, mu) = ({verdict.params.n}, {verdict.params.k}, {verdict.mu})"
    else:
        return verdict
    raise RuntimeError(f"internal: generated set for p={hit.p} failed re-verification: {fault}")
