"""Cube-root signature pairs and quasi-signature pairs.

A pair (S, T) splits G\\{e} into S, T and V = (S u T)^c\\{e}, weighted
1, omega, omega^2 in the regular-representation sum.  Hermiticity forces
S = S^-1 and V = T^-1; acceptance is the exact matrix identity
Q^2 = (n-1)I + mu*Q with rational mu, cross-checked against the same
identity in group-algebra form (`seidel_identity`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eisenstein import CUBE_ROOTS
from .groups import GroupTable
from .matrices import (
    SeidelMatrixEis,
    border_standard,
    certify_two_eigenvalue,
    regrep_sum_eis,
)
from .numbertheory import is_perfect_square
from .signature_sets import accept_verdict
from .subsets import (  # noqa: F401 - perfbench/tracer.py patches pair_count_table here
    Subset,
    complement_nonidentity,
    inverse_set,
    pair_count_table,
)
from .verdicts import Rejection, SignatureVerdict

__all__ = [
    "CubePartition",
    "build_cube_matrix",
    "verify_signature_pair",
    "verify_quasi_signature_pair",
    "cube_necessary_conditions",
    "unique_square_root",
    "nmu_excluded",
]

@dataclass(frozen=True)
class CubePartition:
    """Disjoint S, T, V covering the non-identity elements of one group."""

    s: Subset
    t: Subset
    v: Subset

    @classmethod
    def from_pair(cls, group: GroupTable, s: Subset, t: Subset) -> "CubePartition":
        if s.order != group.order or t.order != group.order:
            raise ValueError("subsets do not belong to this group")
        if s.has_identity or t.has_identity:
            raise ValueError("partition sets must not contain the identity")
        if not s.isdisjoint(t):
            raise ValueError("S and T overlap")
        return cls(s, t, complement_nonidentity(s.union(t)))


def build_cube_matrix(group: GroupTable, partition: CubePartition) -> SeidelMatrixEis:
    """Weights 1 on S, omega on T, omega^2 on V; Hermitian exactly when
    S = S^-1 and V = T^-1."""
    n = group.order
    covered = partition.s.union(partition.t).union(partition.v)
    if covered.bits != (1 << n) - 2 or covered.size != (
        partition.s.size + partition.t.size + partition.v.size
    ):
        raise ValueError("S, T, V must partition the non-identity elements")
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    for subset, unit in zip((partition.s, partition.t, partition.v), CUBE_ROOTS):
        for x in subset:
            a[x], b[x] = unit.a, unit.b
    return SeidelMatrixEis(*regrep_sum_eis(group, a, b))


def verify_signature_pair(
    group: GroupTable, s: Subset, t: Subset
) -> SignatureVerdict | Rejection:
    """Decide whether (S, T) is a cube-root signature pair on n = |G|."""
    return _verify_pair(group, s, t, quasi=False)


def verify_quasi_signature_pair(
    group: GroupTable, s: Subset, t: Subset
) -> SignatureVerdict | Rejection:
    """Decide whether (S, T) is a cube-root quasi-signature pair; the
    bordered matrix has size n = |G| + 1 and mu must equal |S| - |T|."""
    return _verify_pair(group, s, t, quasi=True)


def _verify_pair(
    group: GroupTable, s: Subset, t: Subset, quasi: bool
) -> SignatureVerdict | Rejection:
    if s.order != group.order or t.order != group.order:
        return Rejection("wrong-group", "subsets do not belong to this group")
    if s.has_identity or t.has_identity:
        return Rejection("identity-in-set", "the identity cannot be a member")
    if not s.isdisjoint(t):
        return Rejection("overlapping-sets", "S and T must be disjoint")
    v = complement_nonidentity(s.union(t))
    if inverse_set(group, s).bits != s.bits:
        w = group.labels[next(iter(inverse_set(group, s).difference(s)))]
        return Rejection("s-not-inverse-closed", "S must be closed under inverses", witness=w)
    if inverse_set(group, t).bits != v.bits:
        return Rejection("v-neq-t-inverse", "V must equal T^-1")

    q = build_cube_matrix(group, CubePartition(s, t, v))
    cert = certify_two_eigenvalue(border_standard(q) if quasi else q)
    if isinstance(cert, Rejection):
        return cert
    # checked against the group-algebra form, whose mu is |S| - |T| when bordered
    return accept_verdict(group, "cube-quasi" if quasi else "cube-pair", cert.mu, s, t)


def cube_necessary_conditions(n: int, mu: int, quasi: bool = False) -> tuple[bool, list[str]]:
    """Necessary (n, mu) screens for nontrivial cube-root frames.

    Base: n divisible by 3, mu = 1 mod 3, and 4(n-1) + mu^2 a perfect
    square divisible by 9.  In the quasi context the partition sizes
    (n+2mu-2)/3 and (n-2-mu)/3 must additionally be non-negative integers.
    """
    failures = []
    if n % 3:
        failures.append("n-not-divisible-by-3")
    if mu % 3 != 1:
        failures.append("mu-not-1-mod-3")
    d = 4 * (n - 1) + mu * mu
    if not is_perfect_square(d):
        failures.append("discriminant-not-square")
    elif d % 9:
        failures.append("discriminant-not-divisible-by-9")
    if quasi:
        s_size3, t_size3 = n + 2 * mu - 2, n - 2 - mu
        if s_size3 % 3 or s_size3 < 0:
            failures.append("s-size-not-admissible")
        if t_size3 % 3 or t_size3 < 0:
            failures.append("t-size-not-admissible")
    return not failures, failures


def unique_square_root(group: GroupTable, x: int) -> int:
    """In an abelian group of odd order, the unique h != e with h*h = x."""
    if group.order % 2 == 0:
        raise ValueError("the group must have odd order")
    if not group.is_abelian:
        raise ValueError("the group must be abelian")
    if x == 0:
        raise ValueError("x must not be the identity")
    order = group.element_order(x)
    h = 0
    for _ in range((order + 1) // 2):
        h = int(group.mul[h, x])
    roots = [y for y in range(1, group.order) if int(group.mul[y, y]) == x]
    if roots != [h]:
        raise RuntimeError("internal: square root not unique in odd abelian group")
    return h


def nmu_excluded(n: int, mu: int, abelian: bool) -> bool:
    """True when no signature pair can exist: abelian group, n = 3 mod 6,
    mu = 4 mod 6."""
    return abelian and n % 6 == 3 and mu % 6 == 4
