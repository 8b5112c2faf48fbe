"""Quotients G/H by normal subgroups, where `search` joins its candidates.

The quotient map rho: G -> G/H sums a coefficient function over each coset,
and it is a ring homomorphism of group algebras: rho(x*y) = rho(x)*rho(y).
So a candidate whose coefficients c satisfy the Seidel identity

    c*c + shift * 1_G = (n - 1 + shift) delta_e + mu * c

(shift 1 for the bordered kinds, where mu = sum c; the augmentation fixes mu
for the others) has an image that satisfies

    rho(c)*rho(c) + shift * |H| * 1 = (n - 1 + shift) delta_e + mu * rho(c).

`search` keeps the candidates whose image solves it: `seidel_identity`, h = |H|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import CyclicGroup, GroupTable, cyclic, subgroup_generated
from .numbertheory import prime_factors

__all__ = ["Quotient", "trivial_quotient", "normal_quotients", "key_count", "choose_quotient"]

#: Distinct images a chosen quotient may allow per code of a join half table.
_KEYS_PER_HALF_CODE = 16


@dataclass(frozen=True, eq=False)
class Quotient:
    """G/H: coset[g] is the coset of element g of G, coset 0 being H itself,
    and group the group of the cosets."""

    coset: np.ndarray
    group: GroupTable

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def h(self) -> int:
        """|H|, the size of each coset."""
        return len(self.coset) // self.order

    def project(self, x: np.ndarray) -> np.ndarray:
        """rho(x): the sums of x over each coset along the first axis, as int64."""
        out = np.zeros((self.order, *x.shape[1:]), dtype=np.int64)
        np.add.at(out, self.coset, x)
        return out

    def strides(self, cube: bool) -> list[int]:
        """`_strides` of this quotient."""
        return _strides(self.h, self.order, cube)

    def unpack(self, packed: np.ndarray, cube: bool) -> tuple[np.ndarray, np.ndarray | int]:
        """The images a + b*omega, one int64 column each, of packed integers."""
        h, stride = self.h, np.array(self.strides(cube)[:-1])
        digits = ((packed[:, None] + h * stride.sum()) // stride % (2 * h + 1) - h).T
        return tuple(np.split(digits, 2)) if cube else (digits, 0)


def _strides(h: int, order: int, cube: bool) -> list[int]:
    """How an image in G/H, |H| = h, packs into one integer: coordinate j
    (of order, or 2 * order in Z[omega], rational parts first) is a coset
    sum in [-h, h] weighted by (2h + 1)^j.  The last entry bounds the range."""
    return [(2 * h + 1) ** j for j in range(order * (1 + cube) + 1)]


def trivial_quotient(order: int) -> Quotient:
    """G/G: one coset, whose key is the total sum c."""
    return Quotient(np.zeros(order, dtype=np.intp), cyclic(1))


def normal_quotients(group: GroupTable) -> list[Quotient]:
    """G/H for each H of `_subgroup_masks`, in its order."""
    return [_quotient(group, mask) for mask in _subgroup_masks(group)]


def _subgroup_masks(group: GroupTable) -> np.ndarray:
    """One membership row per H in a fixed family of normal subgroups H != 1
    with G/H a p-group, p the least prime dividing |G|: the normal cyclic
    subgroups of p-power index, then those generated by the p^j-th powers.

    In a cyclic group these are all the subgroups <p^j>, and no table is
    read.  In an abelian group the p^j-th powers already form a subgroup.
    """
    n, factors = group.order, prime_factors(group.order)
    if not factors:
        return np.zeros((0, n), dtype=bool)
    p = min(factors)
    e, top = np.arange(n), p ** factors[p]  # top: the largest power of p that divides n
    if isinstance(group, CyclicGroup):
        d = [p ** j for j in range(1, n.bit_length()) if top % p ** j == 0 and p ** j < n]
        return e % np.array(d, dtype=int)[:, None] == 0
    mul, inv = group.mul, group.inv
    powers = [e]  # powers[k][g] = g^(k+1), up to the exponent
    while powers[-1].any():
        powers.append(mul[powers[-1], e])
    member = np.zeros((n, n), dtype=bool)  # member[g, x]: x lies in <g>
    member[e, np.array(powers)] = True
    size, same = member.sum(axis=1), member & member.T  # same[g, x]: <g> = <x>
    keep = (top % (n // size) == 0) & (1 < size) & (size < n) & (same.argmax(axis=1) == e)
    if not group.is_abelian:  # x g x^-1 in <g> for every x
        keep &= member[e, mul[mul[e[:, None], e], inv[:, None]]].all(axis=0)
    masks = member[keep]  # one row per subgroup, at its least generator
    k = p
    while len(powers) % k == 0:
        generated = np.zeros(n, dtype=bool)
        generated[powers[k - 1]] = True
        if not group.is_abelian:
            generated = subgroup_generated(group, np.flatnonzero(generated)).mask() == 1
        if 1 < generated.sum() < n and not (masks == generated).all(axis=1).any():
            masks = np.vstack([masks, generated])
        k *= p
    return masks


def _quotient(group: GroupTable, mask: np.ndarray) -> Quotient:
    """G/H for the normal subgroup H with this membership mask."""
    n = group.order
    if isinstance(group, CyclicGroup):
        d = n // int(mask.sum())
        return Quotient(np.arange(n) % d, cyclic(d))
    mul = group.mul
    coset_min = mul[:, mask].min(axis=1)  # the least element of gH
    reps = np.flatnonzero(coset_min == np.arange(n))
    coset = np.zeros(n, dtype=np.intp)
    coset[reps] = np.arange(len(reps))
    coset = coset[coset_min]
    table = coset[mul[reps][:, reps]]  # a group table because H is normal
    labels = tuple(f"{group.labels[r]}H" for r in reps)
    return Quotient(coset, GroupTable(f"{group.name}/H", table, np.argmin(table, axis=1), labels))


def key_count(quotient: Quotient, cube: bool) -> int:
    """`_key_bound` of a built quotient."""
    self_inverse = int((quotient.group.inv == np.arange(quotient.order)).sum())
    return _key_bound(quotient.h, quotient.order, self_inverse, cube)


def _key_bound(h: int, order: int, self_inverse: int, cube: bool) -> int:
    """A bound on the distinct images rho(c) in G/H, |H| = h, with this many
    self-inverse cosets.  A coset sum of h unit coefficients takes at most
    h + 1 values, or (h + 1)(h + 2)/2 in Z[omega]; the sum on q^-1 H follows
    from the one on qH; and in Z[omega] a coset with qH = q^-1 H sums
    conjugate pairs, c + conj(c) in {2, -1}, and involutions, whose c is 1:
    at most h/2 + 1 values."""
    pairs = (order - self_inverse) // 2
    if cube:
        return (h // 2 + 1) ** self_inverse * ((h + 1) * (h + 2) // 2) ** pairs
    return (h + 1) ** (self_inverse + pairs)


def choose_quotient(group: GroupTable, kind: str, candidates: int) -> Quotient:
    """The quotient `search` joins through.  Of `normal_quotients` whose key
    bound is at most _KEYS_PER_HALF_CODE times the square root of the
    candidate count (the size of each half table of the join) and whose
    images pack into one int64, the one with the most cosets, then the
    largest bound, then the first; G/G when there is none.

    The subgroups are ranked before any quotient is built: |H| gives the
    order and the packed range, and the self-inverse cosets qH, those with
    q^2 in H, number #{g : g^2 in H} / |H|.  Only the chosen one is built.
    """
    cube, n, e = kind.startswith("cube"), group.order, np.arange(group.order)
    budget = _KEYS_PER_HALF_CODE * math.isqrt(candidates)
    masks = _subgroup_masks(group)
    squares = 2 * e % n if isinstance(group, CyclicGroup) else group.mul[e, e]
    sizes = masks.sum(axis=1)
    best, best_rank = None, (1, 0)
    for mask, h, s in zip(masks, sizes.tolist(), (masks[:, squares].sum(axis=1) // sizes).tolist()):
        rank = (n // h, _key_bound(h, n // h, s, cube))
        if best_rank < rank and rank[1] <= budget and _strides(h, n // h, cube)[-1] < 2 ** 62:
            best, best_rank = mask, rank
    return trivial_quotient(n) if best is None else _quotient(group, best)
