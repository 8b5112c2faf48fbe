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

from .groups import GroupTable, subgroup_generated
from .matrices import SeidelMatrixInt, border_standard, regrep_sum
from .params import in_quasi_band, params_from_mu
from .subsets import (  # noqa: F401 - perfbench/tracer.py patches two of these names here
    Subset,
    _check_group,
    complement_nonidentity,
    convolve,
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
    return verify_sets(group, "signature", [s])[0]


def verify_quasi_signature_set(group: GroupTable, s: Subset) -> SignatureVerdict | Rejection:
    """Decide whether S is a quasi-signature set; the frame size is |G| + 1.

    mu is forced to |S| - |T|.  Criteria: S, T closed under inverses,
    4*N_{(S,S)}^g = n+3mu-6 on S and 4*N_{(T,T)}^h = n-3mu-6 on T, and mu
    within the admissible band 2 - n/3 <= mu <= n/3 - 2 (which excludes the
    trivial all-or-nothing subsets).
    """
    return verify_sets(group, "quasi", [s])[0]


def verify_sets(
    group: GroupTable, kind: str, subsets: list[Subset]
) -> list[SignatureVerdict | Rejection]:
    """The verdict or Rejection the kind's verifier ("signature" or "quasi")
    gives each subset alone.  Its checks are masks on the columns of all the
    subsets past the member screen, all pair counts from one `convolve`
    (single-vector for one subset), and `accept_verdicts` applies them."""
    results = [screen_members(group, s) for s in subsets]
    quasi = kind == "quasi"
    n = group.order + quasi
    if n % 2:  # covers the degenerate one-element group as well
        odd = (Rejection("odd-frame-size", f"|G|+1 = {n} is odd") if quasi
               else Rejection("odd-order", f"group order {n} is odd"))
        return [fault or odd for fault in results]
    a, _ = seidel_coefficients(group.order, kind, [x for x, r in zip(subsets, results) if r is None])
    s = (a + 1) >> 1  # the indicator of S; a is 1 on S, -1 on T and 0 at e
    mu = 2 * s.sum(axis=0) - (group.order - 1)  # |S| - |T|, the quasi kind's mu
    counts = convolve(group, s, s if quasi else (1 - a) >> 1)  # N_(S,S) or N_(S,T)
    if quasi:
        # 1_T = 1 - delta_e - 1_S and |S| - |T| = mu give N_(T,T) = N_(S,S) - 1 - mu,
        # so 4 N_(T,T) = n-3mu-6 on T reads 4 N_(S,S) = n-2+mu there
        need = (n + 3 * mu - 6, n - 2 + mu)
        texts = (("S,S", "(n+3mu-6)/4"), ("T,T", "(n-3mu-6)/4"))
    else:  # the first member of S fixes mu; an empty S gives -(n-2)
        mu = np.where(s.any(axis=0), n - 2 - 4 * counts[s.argmax(axis=0), range(s.shape[1])], 2 - n)
        need = (n - 2 - mu, n - 2 + mu)
        texts = (("S,T", "(n-2-mu)/4"), ("S,T", "(n-2+mu)/4"))
    on_s = a > 0  # members of S; a < 0 on T
    off = (a != 0) & (4 * counts != np.where(on_s, *need))

    def mismatch(j: int) -> Rejection:
        # the first member of S whose count is off, or else the first of T
        on_t = not (off[:, j] & on_s[:, j]).any()
        g = int((off[:, j] & (on_s[:, j] != on_t)).argmax())
        (label, formula), witness = texts[on_t], group.labels[g]
        count = counts[g, j] - on_t * quasi * (1 + mu[j])
        detail = f"N_({label}) at {witness} is {count}, need {formula}"
        if on_t:
            return Rejection("count-mismatch-on-t", detail, witness=witness)
        return Rejection("count-mismatch-on-s", detail, witness=witness)

    checks = [closure_faults(group, s, "S is not closed under inverses"),
              (off.any(axis=0), mismatch)]
    if quasi:  # ahead of both, the band of the forced mu = |S| - |T|
        checks.insert(0, (~in_quasi_band(n, mu), lambda j: Rejection(
            "mu-out-of-range", f"mu={mu[j]} outside [2-n/3, n/3-2]")))
    return accept_verdicts(group, kind, results, checks, subsets, mu, a, 0)


def index2_subgroup_set(group: GroupTable, h: Subset) -> SignatureVerdict | Rejection:
    """H\\{e} is a signature set exactly when H has index 2 (then k = 1)."""
    _check_group(group, h)
    if not h.has_identity:
        raise ValueError("subgroup mask must contain the identity")
    if subgroup_generated(group, h.indices_array()) != h:  # a finite closed subset is a subgroup
        raise ValueError("mask is not a subgroup")
    if 2 * h.size != group.order:
        return Rejection("index-not-two", f"|H|={h.size} in a group of order {group.order}")
    verdict = verify_signature_set(group, Subset(h.order, h.bits & ~1))
    if isinstance(verdict, Rejection) or verdict.mu != group.order - 2 or verdict.params.k != 1:
        raise RuntimeError("internal: index-2 subgroup failed to verify as the trivial set")
    return verdict


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


def closure_faults(group: GroupTable, s: np.ndarray, detail: str) -> tuple:
    """Which indicator columns s fail S = S^-1, and column -> its Rejection,
    witnessed by the first element of S^-1 minus S.  A complement of S in
    G\\{e} then is closed too, as inversion is a bijection that fixes e."""
    outside = s[group.inv] > s  # y^-1 in S, y not in S
    return outside.any(axis=0), lambda j: Rejection(
        "s-not-inverse-closed", detail, witness=group.labels[outside[:, j].argmax()]
    )


def accept_verdicts(
    group: GroupTable, kind: str, results: list, checks: list, candidates: list,
    mu: np.ndarray, a: np.ndarray, b: np.ndarray | int,
) -> list[SignatureVerdict | Rejection]:
    """The end of every verifier.  checks lists (failed mask, j -> Rejection)
    in the verifier's order; the masks, mu and the columns (a, b) cover the
    candidates that passed the member screen (results[k] is None), and each
    gets the Rejection of the first check it fails.  On the rest, one
    `seidel_identity` call must give the mu the verifier fixed, and
    `params_from_mu`, once per distinct mu, feasible parameters (n = |G|,
    plus one when bordered).  Either failing is a bug, a hard error."""
    live = [k for k, fault in enumerate(results) if fault is None]
    passed = ~np.logical_or.reduce([failed for failed, _ in checks])
    for j in (~passed).nonzero()[0]:
        results[live[j]] = next(rejection(j) for failed, rejection in checks if failed[j])
    mu, a = mu[passed], a[:, passed]
    holds, identity_mu = seidel_identity(group, kind, a, b[:, passed] if np.ndim(b) else b)
    if not holds.all() or (identity_mu != mu).any():
        raise RuntimeError("internal: the counting criterion and the matrix identity disagree")
    n, mus = group.order + (kind in ("quasi", "cube-quasi")), mu.tolist()
    params = {m: params_from_mu(n, m) for m in dict.fromkeys(mus)}
    if infeasible := [p for p in params.values() if isinstance(p, Rejection)]:
        raise RuntimeError(f"internal: a matrix satisfying the identity got {infeasible[0]}")
    for k, m in zip([k for k in live if results[k] is None], mus):
        s, t = candidates[k] if kind.startswith("cube") else (candidates[k], None)
        results[k] = SignatureVerdict(kind=kind, params=params[m], mu=m, subset=s, t_subset=t)
    return results
