"""Quotients G/H by normal subgroups, and the Seidel identity's image in them.

The quotient map rho: G -> G/H sums a coefficient function over each coset,
and it is a ring homomorphism of group algebras: rho(x*y) = rho(x)*rho(y).
So a candidate whose coefficients c satisfy the Seidel identity

    c*c + shift * 1_G = (n - 1 + shift) delta_e + mu * c

(shift 1 for the bordered kinds, where mu = sum c; the augmentation fixes mu
for the others) has an image that satisfies

    rho(c)*rho(c) + shift * |H| * 1 = (n - 1 + shift) delta_e + mu * rho(c).

`search` screens only the candidates whose image solves this small identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eisenstein import eis_product
from .groups import CyclicGroup, GroupTable, cyclic, subgroup_generated
from .subsets import convolve

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

    def project(self, x: np.ndarray) -> np.ndarray:
        """rho(x): the sums of x over each coset along the first axis, as int64."""
        out = np.zeros((self.order, *x.shape[1:]), dtype=np.int64)
        np.add.at(out, self.coset, x)
        return out

    def strides(self, cube: bool) -> list[int]:
        """How an image packs into one integer: each coordinate (order of
        them, or 2 * order in Z[omega]: rational parts, then omega parts) is
        a coset sum in [-h, h], and coordinate j is weighted by
        strides[j] = (2h + 1)^j.  The last entry bounds the packed range."""
        span = 2 * (len(self.coset) // self.order) + 1
        return [span ** j for j in range(self.order * (1 + cube) + 1)]

    def unpack(self, packed: np.ndarray, cube: bool) -> tuple[np.ndarray, np.ndarray | int]:
        """The images a + b*omega, one int64 column each, of packed integers."""
        h, stride = len(self.coset) // self.order, np.array(self.strides(cube)[:-1])
        digits = ((packed[:, None] + h * stride.sum()) // stride % (2 * h + 1) - h).T
        return tuple(np.split(digits, 2)) if cube else (digits, 0)

    def solves(self, kind: str, a: np.ndarray, b: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """Whether each image column a + b*omega (int64, shape (order, B))
        solves the quotient identity, and its mu."""
        n, shift = len(self.coset), kind in ("quasi", "cube-quasi")
        total = a.sum(axis=0)  # the omega part of sum c vanishes, as c(x^-1) = conj(c(x))
        # mu from (sum c)^2 = n - 1 + mu * sum c.  The coordinates of the
        # identity sum to that equation, so where no integer mu solves it,
        # the comparison below fails.
        mu = total if shift else (total * total - (n - 1)) // np.where(total == 0, 1, total)
        sq_a, sq_b = eis_product(a, b, a, b, lambda x, y: convolve(self.group, x, y))
        sq_a = sq_a + shift * (n // self.order)
        sq_a[0] -= n - 1 + shift
        holds = (sq_a == mu * a).all(axis=0)
        if np.ndim(b):
            holds &= (sq_b == mu * b).all(axis=0)
        return holds, mu


def trivial_quotient(order: int) -> Quotient:
    """G/G: one coset, whose key is the total sum c."""
    return Quotient(np.zeros(order, dtype=np.intp), cyclic(1))


def normal_quotients(group: GroupTable) -> list[Quotient]:
    """G/H for each H in a fixed family of normal subgroups H != 1 with G/H
    a p-group, p the least prime dividing |G|: the normal cyclic subgroups of
    p-power index, and the subgroups generated by the p^j-th powers.

    In a cyclic group these are all the subgroups <p^j>, and the cosets are
    the residues mod p^j, so no table is read.
    """
    n = group.order
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    if p is None:
        return []
    if isinstance(group, CyclicGroup):
        out, d = [], p
        while n % d == 0 and d < n:
            out.append(Quotient(np.arange(n) % d, cyclic(d)))
            d *= p
        return out
    mul, inv, e = group.mul, group.inv, np.arange(n)
    powers = [e]  # powers[k][g] = g^(k+1), up to the exponent
    while powers[-1].any():
        powers.append(mul[powers[-1], e])
    member = np.zeros((n, n), dtype=bool)  # member[g, x]: x lies in <g>
    member[e, np.array(powers)] = True
    index = n // member.sum(axis=1)
    normal = member[e, mul[mul[e[:, None], e], inv[:, None]]].all(axis=0)  # x g x^-1 in <g>
    masks = [member[g] for g in e if normal[g] and 1 < index[g] < n and _is_power(index[g], p)]
    k = p
    while len(powers) % k == 0:
        masks.append(subgroup_generated(group, set(powers[k - 1].tolist())).mask() == 1)
        k *= p
    out, seen = [], set()
    for mask in masks:
        if mask.sum() in (1, n) or mask.tobytes() in seen:
            continue
        seen.add(mask.tobytes())
        coset_min = mul[:, mask].min(axis=1)  # the least element of gH
        reps = np.flatnonzero(coset_min == e)
        coset = np.zeros(n, dtype=np.intp)
        coset[reps] = np.arange(len(reps))
        coset = coset[coset_min]
        table = coset[mul[reps][:, reps]]  # a group table because H is normal
        labels = tuple(f"{group.labels[r]}H" for r in reps)
        out.append(Quotient(coset, GroupTable(f"{group.name}/H", table, np.argmin(table, axis=1), labels)))
    return out


def _is_power(x: int, p: int) -> bool:
    while x % p == 0:
        x //= p
    return x == 1


def key_count(quotient: Quotient, cube: bool) -> int:
    """A bound on the distinct images rho(c).  A coset sum of h unit
    coefficients takes at most h + 1 values, or (h + 1)(h + 2)/2 in Z[omega];
    the sum on q^-1 H follows from the one on qH; and in Z[omega] a coset
    with qH = q^-1 H sums conjugate pairs, c + conj(c) in {2, -1}, and
    involutions, whose c is 1: at most h/2 + 1 values."""
    h = len(quotient.coset) // quotient.order
    self_inverse = int((quotient.group.inv == np.arange(quotient.order)).sum())
    pairs = (quotient.order - self_inverse) // 2
    if cube:
        return (h // 2 + 1) ** self_inverse * ((h + 1) * (h + 2) // 2) ** pairs
    return (h + 1) ** (self_inverse + pairs)


def choose_quotient(group: GroupTable, kind: str, candidates: int) -> Quotient:
    """The quotient `search` joins through.  Of `normal_quotients` whose key
    bound is at most _KEYS_PER_HALF_CODE times the square root of the
    candidate count (the size of each half table of the join) and whose
    images pack into one int64, the one with the most cosets, then the
    largest bound, then the first; G/G when there is none."""
    cube = kind.startswith("cube")
    budget = _KEYS_PER_HALF_CODE * math.isqrt(candidates)
    best, best_rank = trivial_quotient(group.order), (1, 0)
    for quotient in normal_quotients(group):
        rank = (quotient.order, key_count(quotient, cube))
        if best_rank < rank and rank[1] <= budget and quotient.strides(cube)[-1] < 2 ** 62:
            best, best_rank = quotient, rank
    return best

