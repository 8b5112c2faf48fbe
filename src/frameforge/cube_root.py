"""Cube-root signature pairs and quasi-signature pairs.

A pair (S, T) splits G\\{e} into S, T and V = (S u T)^c\\{e}, weighted
1, omega, omega^2 in the regular-representation sum.  Hermiticity forces
S = S^-1 and V = T^-1; acceptance is the exact matrix identity
Q^2 = (n-1)I + mu*Q with rational mu, cross-checked against the same
identity in group-algebra form (`seidel_identity`), both in
`signature_sets.verify_batch`.
"""

from __future__ import annotations

from .groups import GroupTable
from .matrices import SeidelMatrixEis, regrep_sum
from .numbertheory import is_perfect_square
from .signature_sets import screen_members, verify_batch
from .subsets import Subset, seidel_coefficients
from .verdicts import Rejection, SignatureVerdict

# perfbench/tracer.py patches these names here
from .matrices import border_standard, certify_two_eigenvalue  # noqa: F401
from .subsets import inverse_set, pair_count_table  # noqa: F401

__all__ = [
    "build_cube_matrix",
    "verify_signature_pair",
    "verify_quasi_signature_pair",
    "cube_necessary_conditions",
    "unique_square_root",
    "nmu_excluded",
]


def build_cube_matrix(group: GroupTable, s: Subset, t: Subset) -> SeidelMatrixEis:
    """Weights 1 on S, omega on T, omega^2 on V = (S u T)^c minus e;
    Hermitian exactly when S = S^-1 and V = T^-1."""
    if fault := screen_members(group, s, t):
        raise ValueError(fault.detail)
    a, b = seidel_coefficients(group.order, "cube-pair", [(s, t)])
    return SeidelMatrixEis(regrep_sum(group, a[:, 0]), regrep_sum(group, b[:, 0]))


def verify_signature_pair(
    group: GroupTable, s: Subset, t: Subset
) -> SignatureVerdict | Rejection:
    """Decide whether (S, T) is a cube-root signature pair on n = |G|."""
    return verify_batch(group, "cube-pair", [(s, t)])[0]


def verify_quasi_signature_pair(
    group: GroupTable, s: Subset, t: Subset
) -> SignatureVerdict | Rejection:
    """Decide whether (S, T) is a cube-root quasi-signature pair; the
    bordered matrix has size n = |G| + 1 and mu must equal |S| - |T|."""
    return verify_batch(group, "cube-quasi", [(s, t)])[0]


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
    if group.element_index(x) == 0:
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
