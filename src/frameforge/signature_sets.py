"""Verify signature sets and quasi-signature sets by exact pair counting.

A subset S of G\\{e} (with T the complementary non-identity elements) is a
signature set when the +-1 regular-representation sum is a two-eigenvalue
Seidel matrix; it is a quasi-signature set when the bordered (standard-form)
matrix is.  Both are decided here by the single-count criteria, checked
against the group-algebra form of the matrix identity (`seidel_identity`)
as a mutual oracle; the matrix identity itself is exercised by the test
suite and by the certificate invariant of every verdict.
"""

from __future__ import annotations

import numpy as np

from .groups import GroupTable
from .matrices import SeidelMatrixInt, border_standard, regrep_sum
from .params import params_from_mu
from .subsets import (
    Subset,
    complement_nonidentity,
    inverse_set,
    pair_count_table,
    seidel_coefficients,
    seidel_identity,
)
from .verdicts import Rejection, SignatureVerdict

__all__ = [
    "complement_set",
    "signature_matrix",
    "quasi_signature_matrix",
    "verify_signature_set",
    "verify_quasi_signature_set",
    "index2_subgroup_set",
]


def complement_set(group: GroupTable, s: Subset) -> Subset:
    """T = S^c minus the identity."""
    if fault := screen_members(group, s):
        raise ValueError(fault.detail)
    return complement_nonidentity(s)


def signature_matrix(group: GroupTable, s: Subset) -> SeidelMatrixInt:
    """The +-1 matrix with +1 on S and -1 on the complementary T."""
    if fault := screen_members(group, s):
        raise ValueError(fault.detail)
    a, _ = seidel_coefficients(group.order, "signature", [s])
    return SeidelMatrixInt(regrep_sum(group, a[:, 0]))


def quasi_signature_matrix(group: GroupTable, s: Subset) -> SeidelMatrixInt:
    """The bordered (standard-form) matrix of size |G| + 1."""
    return border_standard(signature_matrix(group, s))


def verify_signature_set(group: GroupTable, s: Subset) -> SignatureVerdict | Rejection:
    """Decide whether S is a signature set; n is the group order.

    Criteria: S and T closed under inverses, and one mu with
    4*N_{(S,T)}^g = n-2-mu on S and 4*N_{(S,T)}^h = n-2+mu on T.
    Odd group order is rejected outright (no signature set exists there).
    For even n, mu = n-2-4N is even and N <= min(|S|, |T|) <= (n-2)/2.
    """
    n = group.order
    if fault := screen_members(group, s):
        return fault
    if n % 2:
        # covers the degenerate one-element group as well
        return Rejection("odd-order", f"group order {n} is odd")
    t = complement_nonidentity(s)
    if fault := screen_closure(group, s, "S is not closed under inverses"):
        return fault

    ct_st = pair_count_table(group, s, t)
    mu = n - 2 - 4 * int(ct_st[next(iter(s))]) if s else -(n - 2)
    return (
        _count_mismatch(group, "count-mismatch-on-s", s, ct_st, n - 2 - mu, "S,T", "(n-2-mu)/4")
        or _count_mismatch(group, "count-mismatch-on-t", t, ct_st, n - 2 + mu, "S,T", "(n-2+mu)/4")
        or accept_verdict(group, "signature", mu, s)
    )


def verify_quasi_signature_set(group: GroupTable, s: Subset) -> SignatureVerdict | Rejection:
    """Decide whether S is a quasi-signature set; the frame size is |G| + 1.

    mu is forced to |S| - |T|.  Criteria: S, T closed under inverses,
    4*N_{(S,S)}^g = n+3mu-6 on S and 4*N_{(T,T)}^h = n-3mu-6 on T, and mu
    within the admissible band 2 - n/3 <= mu <= n/3 - 2 (which excludes the
    trivial all-or-nothing subsets).
    """
    if fault := screen_members(group, s):
        return fault
    n = group.order + 1
    if n % 2:
        return Rejection("odd-frame-size", f"|G|+1 = {n} is odd")
    t = complement_nonidentity(s)
    mu = s.size - t.size
    if not 6 - n <= 3 * mu <= n - 6:
        return Rejection("mu-out-of-range", f"mu={mu} outside [2-n/3, n/3-2]")
    if fault := screen_closure(group, s, "S is not closed under inverses"):
        return fault

    ct_ss = pair_count_table(group, s, s)
    # on T, N_(T,T) = N_(S,S) + |G| - 2 - 2|S|, as 1_T = 1 - delta_e - 1_S
    ct_tt = ct_ss + (group.order - 2 - 2 * s.size)
    return (
        _count_mismatch(group, "count-mismatch-on-s", s, ct_ss, n + 3 * mu - 6, "S,S",
                        "(n+3mu-6)/4")
        or _count_mismatch(group, "count-mismatch-on-t", t, ct_tt, n - 3 * mu - 6, "T,T",
                           "(n-3mu-6)/4")
        or accept_verdict(group, "quasi", mu, s)
    )


def index2_subgroup_set(group: GroupTable, h: Subset) -> SignatureVerdict | Rejection:
    """H\\{e} is a signature set exactly when H has index 2 (then k = 1)."""
    if not h.has_identity:
        raise ValueError("subgroup mask must contain the identity")
    members = h.indices_array()
    products = group.mul[np.ix_(members, members)]
    if not np.isin(products, members).all() or not np.isin(group.inv[members], members).all():
        raise ValueError("mask is not a subgroup")
    if 2 * h.size != group.order:
        return Rejection("index-not-two", f"|H|={h.size} in a group of order {group.order}")
    verdict = verify_signature_set(group, Subset(h.order, h.bits & ~1))
    if isinstance(verdict, Rejection) or verdict.mu != group.order - 2 or verdict.params.k != 1:
        raise RuntimeError("internal: index-2 subgroup failed to verify as the trivial set")
    return verdict


def _count_mismatch(
    group: GroupTable, reason: str, subset: Subset, counts: np.ndarray, need: int,
    label: str, formula: str,
) -> Rejection | None:
    """The first member g of the subset with 4 * counts[g] != need, as a
    rejection with this reason witnessed by g; None when all match."""
    members = subset.indices_array()
    off = members[4 * counts[members] != need]
    if not off.size:
        return None
    g = int(off[0])
    return Rejection(
        reason,
        f"N_({label}) at {group.labels[g]} is {int(counts[g])}, need {formula}",
        witness=group.labels[g],
    )


def screen_members(group: GroupTable, s: Subset, t: Subset | None = None) -> Rejection | None:
    """The member check every verifier starts with, and whose detail every
    matrix builder raises as a ValueError: S, and T when given, must be
    subsets of this group without the identity, and S and T must be
    disjoint.  The first fault found, or None."""
    sets = (s,) if t is None else (s, t)
    if any(x.order != group.order for x in sets):
        return Rejection("wrong-group", "subset does not belong to this group")
    if any(x.has_identity for x in sets):
        return Rejection("identity-in-set", "the identity cannot be a member")
    if t is not None and not s.isdisjoint(t):
        return Rejection("overlapping-sets", "S and T must be disjoint")
    return None


def screen_closure(group: GroupTable, s: Subset, detail: str) -> Rejection | None:
    """S must be closed under inverses; the witness is the first element of
    S^-1 minus S.  A complement of S in G\\{e} then is closed too, as
    inversion is a bijection that fixes e."""
    mismatch = inverse_set(group, s).difference(s)
    if mismatch:
        return Rejection(
            "s-not-inverse-closed", detail, witness=group.labels[next(iter(mismatch))]
        )
    return None


def accept_verdict(
    group: GroupTable, kind: str, mu: int, s: Subset, t: Subset | None = None
) -> SignatureVerdict | Rejection:
    """The acceptance every verifier ends in, once its own criterion has
    fixed mu: the matrix identity in group-algebra form (`seidel_identity`)
    must give the same mu, which then gives the frame parameters.

    kind is a `SignatureVerdict` kind; t is the T of a cube pair.  The
    matrix has size |G|, plus one for the bordered kinds.  Disagreement of
    the two criteria, or infeasible parameters for a mu the identity holds
    with, would mean an implementation bug, hence the hard error.
    """
    columns = seidel_coefficients(group.order, kind, [s if t is None else (s, t)])
    holds, identity_mu = seidel_identity(group, kind, *columns)
    if not holds[0] or identity_mu[0] != mu:
        raise RuntimeError("internal: the counting criterion and the matrix identity disagree")
    n = group.order + (kind in ("quasi", "cube-quasi"))
    params = params_from_mu(n, mu)
    if isinstance(params, Rejection):
        raise RuntimeError(f"internal: a matrix satisfying the identity got {params}")
    return SignatureVerdict(
        kind=kind, params=params, mu=mu, subset=s, t_subset=t, matrix_dim=n
    )
