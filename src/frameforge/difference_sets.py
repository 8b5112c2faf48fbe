"""Difference sets in abelian groups and their bridge to signature sets.

D is an (n,k,lambda) difference set when every non-identity element arises
as x*y^-1 with x, y in D in exactly lambda ways.  A reversible difference
set with the Hadamard parameter pattern (4m^2, 2m^2-m, m^2-m) not containing
the identity is precisely a signature set for an (n, (n-sqrt n)/2)-frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupTable
from .signature_sets import verify_signature_set
from .subsets import Subset, inverse_set, pair_count_table
from .verdicts import Rejection, SignatureVerdict

__all__ = [
    "DifferenceSetReport",
    "verify_difference_set",
    "complement_report",
    "diffset_to_signature",
]


@dataclass(frozen=True)
class DifferenceSetReport:
    n: int
    k: int
    lam: int
    reversible: bool
    hadamard_family: bool
    contains_identity: bool

    @property
    def ok(self) -> bool:
        return True


def _hadamard_family(n: int, k: int, lam: int) -> bool:
    root = math.isqrt(n)
    if root * root != n or root % 2:
        return False
    m = root // 2
    return k == 2 * m * m - m and lam == m * m - m


def verify_difference_set(
    group: GroupTable, d: Subset
) -> DifferenceSetReport | Rejection:
    """Check the constant-difference property; identity membership is allowed."""
    if d.order != group.order:
        return Rejection("wrong-group", "subset does not belong to this group")
    if not group.is_abelian:
        return Rejection("non-abelian-group", f"{group.name} is not abelian")
    n = group.order
    d_inv = inverse_set(group, d)
    counts = pair_count_table(group, d, d_inv)  # x * y^-1 = t
    lam = int(counts[1]) if n > 1 else 0
    if n > 1 and not np.all(counts[1:] == lam):
        t = 1 + int(np.argmax(counts[1:] != lam))
        return Rejection(
            "non-constant-differences",
            f"element {group.labels[t]} arises {int(counts[t])} times, others {lam}",
            witness=group.labels[t],
        )
    report = DifferenceSetReport(
        n=n,
        k=d.size,
        lam=lam,
        reversible=d_inv.bits == d.bits,
        hadamard_family=_hadamard_family(n, d.size, lam),
        contains_identity=d.has_identity,
    )
    if lam * (n - 1) != report.k * (report.k - 1):
        raise RuntimeError("internal: difference-set count identity violated")
    return report


def complement_report(report: DifferenceSetReport) -> DifferenceSetReport:
    """Parameters of the complementary difference set, by the exact formula."""
    n, k = report.n, report.k
    if n > 1:
        num = (n - k) * (n - k - 1)
        if num % (n - 1):
            raise RuntimeError("internal: complement count is not integral")
        lam_bar = num // (n - 1)
    else:
        lam_bar = 0
    return DifferenceSetReport(
        n=n,
        k=n - k,
        lam=lam_bar,
        reversible=report.reversible,
        hadamard_family=_hadamard_family(n, n - k, lam_bar),
        contains_identity=not report.contains_identity,
    )


def diffset_to_signature(
    group: GroupTable, d: Subset
) -> SignatureVerdict | Rejection:
    """Certify D (or D minus the identity) as a signature set.

    With sign = +1 when D lacks the identity and -1 when it contains it,
    the requirements are reversibility and k = (n - sign*sqrt n)/2; the
    verified set is D\\{e}, with mu = 2*sign.  The sign = +1 sets are the
    reversible Hadamard-family sets.
    """
    report = verify_difference_set(group, d)
    if isinstance(report, Rejection):
        return report
    n = group.order
    root = math.isqrt(n)
    if root * root != n:
        return Rejection("order-not-square", f"group order {n} is not a perfect square")
    if not report.reversible:
        return Rejection("not-reversible", "D must equal its elementwise inverse")
    sign = -1 if d.has_identity else 1
    if 2 * report.k != n - sign * root:
        return Rejection(
            "size-mismatch",
            f"|D|={report.k}, need (n {'-' if sign > 0 else '+'} sqrt n)/2 = "
            f"{(n - sign * root) // 2}",
        )
    if n % 2:
        # only n = 1 gets here: for odd sqrt n > 1 neither size gives an integer lambda
        return Rejection("odd-order", f"group order {n} is odd")
    verdict = verify_signature_set(group, Subset(d.order, d.bits & ~1))
    if isinstance(verdict, Rejection) or verdict.mu != 2 * sign:
        raise RuntimeError("internal: reversible difference set failed signature check")
    if sign > 0 and not report.hadamard_family:
        raise RuntimeError("internal: accepted set is not in the Hadamard family")
    return verdict
