"""Cube-root signature pairs and quasi-signature pairs.

A pair (S, T) splits G\\{e} into S, T and V = (S u T)^c\\{e}, weighted
1, omega, omega^2 in the regular-representation sum.  Hermiticity forces
S = S^-1 and V = T^-1; acceptance is the exact matrix identity
Q^2 = (n-1)I + mu*Q with rational mu, cross-checked against the same
identity in group-algebra form (`seidel_identity`).
"""

from __future__ import annotations

import numpy as np

from .groups import GroupTable
from .matrices import SeidelMatrixEis, certify_columns, regrep_sum
from .numbertheory import is_perfect_square
from .signature_sets import accept_verdicts, closure_faults, screen_members
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
    return verify_pairs(group, "cube-pair", [(s, t)])[0]


def verify_quasi_signature_pair(
    group: GroupTable, s: Subset, t: Subset
) -> SignatureVerdict | Rejection:
    """Decide whether (S, T) is a cube-root quasi-signature pair; the
    bordered matrix has size n = |G| + 1 and mu must equal |S| - |T|."""
    return verify_pairs(group, "cube-quasi", [(s, t)])[0]


def verify_pairs(
    group: GroupTable, kind: str, pairs: list[tuple[Subset, Subset]]
) -> list[SignatureVerdict | Rejection]:
    """The verdict or Rejection the kind's verifier ("cube-pair" or
    "cube-quasi") gives each pair alone.  S = S^-1 and V = T^-1, masks on
    the columns of the pairs past the member screen, make a matrix
    self-adjoint; all are certified in one batch before `accept_verdicts`."""
    results = [screen_members(group, s, t) for s, t in pairs]
    a, b = seidel_coefficients(group.order, kind, [p for p, r in zip(pairs, results) if r is None])
    # c = 1, w, w^2 = -1 - w on S, T, V: (a, b) = (1, 0), (0, 1), (-1, -1)
    v_open = ((b[group.inv] == 1) != (a == -1)).any(axis=0)  # T^-1 != V
    mus = certify_columns(group, a, b, bordered=kind == "cube-quasi")
    checks = [closure_faults(group, a == 1, "S must be closed under inverses"),
              (v_open, lambda j: Rejection("v-neq-t-inverse", "V must equal T^-1")),
              (np.array([isinstance(m, Rejection) for m in mus], dtype=bool), mus.__getitem__)]
    mu = np.array([0 if isinstance(m, Rejection) else m for m in mus], dtype=np.int64)
    return accept_verdicts(group, kind, results, checks, pairs, mu, a, b)


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
