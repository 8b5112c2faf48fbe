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
from .params import Infeasible, params_from_mu
from .subsets import (
    Subset,
    complement_nonidentity,
    inverse_set,
    pair_count_table,
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
    if s.has_identity:
        raise ValueError("subset must not contain the identity")
    if s.order != group.order:
        raise ValueError("subset does not belong to this group")
    return complement_nonidentity(s)


def signature_matrix(group: GroupTable, s: Subset) -> SeidelMatrixInt:
    """The +-1 matrix with +1 on S and -1 on the complementary T."""
    coeffs = np.full(group.order, -1, dtype=np.int64)
    coeffs[0] = 0
    for x in s:
        coeffs[x] = 1
    return SeidelMatrixInt(regrep_sum(group, coeffs))


def quasi_signature_matrix(group: GroupTable, s: Subset) -> SeidelMatrixInt:
    """The bordered (standard-form) matrix of size |G| + 1."""
    return border_standard(signature_matrix(group, s))


def verify_signature_set(group: GroupTable, s: Subset) -> SignatureVerdict | Rejection:
    """Decide whether S is a signature set; n is the group order.

    Criteria: S and T closed under inverses, and one even mu with
    4*N_{(S,T)}^g = n-2-mu on S and 4*N_{(S,T)}^h = n-2+mu on T.
    Odd group order is rejected outright (no signature set exists there).
    """
    n = group.order
    bad = _common_screens(group, s)
    if bad is not None:
        return bad
    if n % 2:
        # covers the degenerate one-element group as well
        return Rejection("odd-order", f"group order {n} is odd")
    t = complement_nonidentity(s)
    closure = _closure_check(group, s, t)
    if closure is not None:
        return closure

    ct_st = pair_count_table(group, s, t)
    mu = n - 2 - 4 * int(ct_st[next(iter(s))]) if s else -(n - 2)
    if mu % 2:
        return Rejection("odd-mu", f"candidate mu={mu} is odd")
    if not -(n - 2) <= mu <= n - 2:
        return Rejection("mu-out-of-range", f"mu={mu} outside [-(n-2), n-2]")
    return (
        _count_mismatch(group, "s", s, ct_st, n - 2 - mu, "S,T", "(n-2-mu)/4")
        or _count_mismatch(group, "t", t, ct_st, n - 2 + mu, "S,T", "(n-2+mu)/4")
        or accept_verdict(group, "signature", mu, s)
    )


def verify_quasi_signature_set(group: GroupTable, s: Subset) -> SignatureVerdict | Rejection:
    """Decide whether S is a quasi-signature set; the frame size is |G| + 1.

    mu is forced to |S| - |T|.  Criteria: S, T closed under inverses,
    4*N_{(S,S)}^g = n+3mu-6 on S and 4*N_{(T,T)}^h = n-3mu-6 on T, and mu
    within the admissible band 2 - n/3 <= mu <= n/3 - 2 (which excludes the
    trivial all-or-nothing subsets).
    """
    bad = _common_screens(group, s)
    if bad is not None:
        return bad
    n = group.order + 1
    if n % 2:
        return Rejection("odd-frame-size", f"|G|+1 = {n} is odd")
    t = complement_nonidentity(s)
    mu = s.size - t.size
    if not 6 - n <= 3 * mu <= n - 6:
        return Rejection("mu-out-of-range", f"mu={mu} outside [2-n/3, n/3-2]")
    closure = _closure_check(group, s, t)
    if closure is not None:
        return closure

    ct_ss = pair_count_table(group, s, s)
    # on T, N_(T,T) = N_(S,S) + |G| - 2 - 2|S|, as 1_T = 1 - delta_e - 1_S
    ct_tt = ct_ss + (group.order - 2 - 2 * s.size)
    return (
        _count_mismatch(group, "s", s, ct_ss, n + 3 * mu - 6, "S,S", "(n+3mu-6)/4")
        or _count_mismatch(group, "t", t, ct_tt, n - 3 * mu - 6, "T,T", "(n-3mu-6)/4")
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


def _common_screens(group: GroupTable, s: Subset) -> Rejection | None:
    if s.order != group.order:
        return Rejection("wrong-group", "subset does not belong to this group")
    if s.has_identity:
        return Rejection("identity-in-set", "the identity cannot be a member")
    return None


def _closure_check(group: GroupTable, s: Subset, t: Subset) -> Rejection | None:
    for name, subset in (("s", s), ("t", t)):
        mismatch = inverse_set(group, subset).difference(subset)
        if mismatch:
            w = group.labels[next(iter(mismatch))]
            return Rejection(
                f"{name}-not-inverse-closed", f"{name.upper()} is not closed under inverses",
                witness=w,
            )
    return None


def _count_mismatch(
    group: GroupTable, name: str, subset: Subset, counts: np.ndarray, need: int,
    label: str, formula: str,
) -> Rejection | None:
    """The first member g of the subset with 4 * counts[g] != need, as a
    count-mismatch-on-<name> rejection witnessed by g; None when all match."""
    members = subset.indices_array()
    off = members[4 * counts[members] != need]
    if not off.size:
        return None
    g = int(off[0])
    return Rejection(
        f"count-mismatch-on-{name}",
        f"N_({label}) at {group.labels[g]} is {int(counts[g])}, need {formula}",
        witness=group.labels[g],
    )


def accept_verdict(
    group: GroupTable, kind: str, mu: int, s: Subset, t: Subset | None = None
) -> SignatureVerdict | Rejection:
    """The acceptance every verifier ends in, once its own criterion has
    fixed mu: the matrix identity in group-algebra form (`seidel_identity`)
    must give the same mu, and mu must give feasible frame parameters.

    kind is a `SignatureVerdict` kind; t is the T of a cube pair.  The
    matrix has size |G|, plus one for the bordered kinds.  Disagreement of
    the two criteria would mean an implementation bug, hence the hard error.
    """
    holds, identity_mu = seidel_identity(group, kind, [s if t is None else (s, t)])
    if not holds[0] or identity_mu[0] != mu:
        raise RuntimeError("internal: the counting criterion and the matrix identity disagree")
    n = group.order + (kind in ("quasi", "cube-quasi"))
    params = params_from_mu(n, mu)
    if isinstance(params, Infeasible):
        return Rejection("infeasible-parameters", f"mu={mu}: {params.reason}")
    return SignatureVerdict(
        kind=kind, params=params, mu=mu, subset=s, t_subset=t, matrix_dim=n
    )
