"""Subsets of group elements as bit masks, and the group-algebra product.

The pair statistic N_{(A,B)}^g = #{(a,b) in A x B : a*b = g} is the product
1_A * 1_B in the group algebra.  `convolve` evaluates that product, for the
pair counts and for `seidel_identity`, the two-eigenvalue identity every
verification criterion in this library comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .eisenstein import eis_product

if TYPE_CHECKING:
    from .groups import GroupTable


@dataclass(frozen=True)
class Subset:
    """A subset of the elements 0..order-1 of one group, stored as a bit mask.

    Most callers require the identity (index 0) to be absent; difference-set
    verification is the one place a subset may contain it.
    """

    order: int
    bits: int

    @classmethod
    def empty(cls, order: int) -> Subset:
        return cls(order, 0)

    @classmethod
    def of(cls, order: int, indices: Iterable[int]) -> Subset:
        bits = 0
        for i in indices:
            if not 0 <= i < order:
                raise ValueError(f"element index {i} out of range for order {order}")
            bits |= 1 << i
        return cls(order, bits)

    @classmethod
    def from_mask(cls, order: int, mask: np.ndarray) -> Subset:
        """The subset whose members are the non-zero entries of a
        length-order vector; the inverse of `mask`."""
        if len(mask) != order:
            raise ValueError(f"mask of length {len(mask)} for order {order}")
        packed = np.packbits(mask, bitorder="little").tobytes()
        return cls(order, int.from_bytes(packed, "little"))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __bool__(self) -> bool:
        return self.bits != 0

    def indices_array(self) -> np.ndarray:
        return np.flatnonzero(self.mask())

    def mask(self) -> np.ndarray:
        """Membership as a length-order 0/1 uint8 vector."""
        raw = np.frombuffer(self.bits.to_bytes((self.order + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.order, bitorder="little")

    def labels(self, group: "GroupTable") -> tuple[str, ...]:
        return tuple(group.labels[i] for i in self)

    @property
    def has_identity(self) -> bool:
        return bool(self.bits & 1)

    def difference(self, other: Subset) -> Subset:
        self._check_owner(other)
        return Subset(self.order, self.bits & ~other.bits)

    def isdisjoint(self, other: Subset) -> bool:
        self._check_owner(other)
        return self.bits & other.bits == 0

    def _check_owner(self, other: Subset) -> None:
        if self.order != other.order:
            raise ValueError("subsets belong to groups of different orders")


def complement_nonidentity(s: Subset) -> Subset:
    """The complement of s inside the non-identity elements."""
    return Subset(s.order, ((1 << s.order) - 2) & ~s.bits)


def inverse_set(group: "GroupTable", s: Subset) -> Subset:
    """{x^-1 : x in s}: y is a member when y^-1 is in s, so one gather of
    the mask through inv gives the inverse set's mask."""
    _check_group(group, s)
    return Subset.from_mask(s.order, s.mask()[group.inv])


def pair_count_table(group: "GroupTable", a: Subset, b: Subset) -> np.ndarray:
    """N_{(A,B)}^g for every g at once, as a length-order int vector."""
    _check_group(group, a, b)
    x, y = indicator_columns(group.order, [a, b]).T
    return convolve(group, x, y).astype(np.int64)


def indicator_columns(order: int, subsets: Sequence[Subset]) -> np.ndarray:
    """Membership of each subset as an (order, len(subsets)) int16 0/1 array:
    column j is the indicator of subsets[j]."""
    return np.array([s.mask() for s in subsets], dtype=np.int16).reshape(-1, order).T.copy()


#: Entries in one gathered block of translates.  A block's temporaries are
#: its entries in y's dtype, 128 KB of int16 at the cap, and in a table group
#: the row indices, `GroupTable.index_bytes` = 12 more per entry: 896 KB in
#: all.  An int8 block (see `convolve`) holds 2 * _BLOCK entries, the same
#: 128 KB, where translates need no index array (a cyclic group's are
#: windows).  Certifying both generator tables in-process (2 cores), 2**15
#: int16 entries took 1.24x as long, 2**17 0.87x for twice the memory, and
#: 2**18 1.25x.  A block of k translates of an (order,) or (order, B) y
#: holds k * y.size <= _BLOCK entries and k * order row indices, so one
#: bound covers every branch.
_BLOCK = 1 << 16


def convolve(group: "GroupTable", x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The group-algebra product x*y: out[g] = sum_a x[a] * y[a^-1 g], so
    0/1 vectors give N_{(A,B)}^g.  Every pair count in this library comes from here.

    x and y are integer arrays of shape (order,) or (order, B) for B columns
    at once.  Only the rows a where x is non-zero are visited, in blocks of
    left translates y[a^-1 g] (`GroupTable.left_translates`: gathered table
    rows, or windows of a slice in a cyclic group) sized by _BLOCK.  A
    vector x, of shape (order,) or (order, 1), whose non-zero entries share
    one weight sums each block by one reduction and scales it once; over
    several blocks it sums in int8 where blocks of at most 127 // max|y|
    translates, so every partial sum fits, are no smaller, casting y once
    and widening each block sum.  Where a block holds one translate it is
    weighted and added as it is, a view in a cyclic group.  Every other
    block, of a column batch or of a vector with several weights, is
    weighted and summed by one einsum.  Accumulation stays in the inputs'
    dtype.  For int16 that is exact while sum_a |x[a]| * max|y| < 2**15:
    every partial sum of a block, scaled by its weights, and every running
    total is bounded by it.  Entries in {-1, 0, 1} qualify for every order
    up to MAX_ORDER = 4096.  The quotient join passes coset sums, int16
    under the rule of `Quotient.unpack`.
    """
    out = np.zeros(y.shape, dtype=np.result_type(x, y))
    step, acc = max(1, _BLOCK // max(y.size, 1)), out.dtype
    vector = x.size == len(x)
    rows = np.flatnonzero(x if vector else x.any(axis=1))
    one_weight = vector and not np.count_nonzero(x[rows] != x[rows[:1]])
    if one_weight and len(rows) > step:
        peak = max(int(y.max()), -int(y.min()), 1)
        if step <= 127 // peak:  # int8 holds every partial sum of a wide block
            step = min(step * (1 if group.index_bytes else 2), 127 // peak)
            y, acc = y.astype(np.int8), np.int8
    translate = group.left_translates(y)
    for a in range(0, len(rows), step):  # one expression each, so no gathered block outlives its term
        if one_weight:
            out += x[rows[0]] * translate(rows[a:a + step]).sum(axis=0, dtype=acc).astype(out.dtype, copy=False)
        elif step == 1:
            out += x[rows[a]] * translate(rows[a])
        else:
            out += np.einsum("k...,kg...->g...", x[rows[a:a + step]], translate(rows[a:a + step]))
    return out


def seidel_coefficients(
    order: int, kind: str, candidates: Sequence
) -> tuple[np.ndarray, np.ndarray | int]:
    """The coefficients c = a + b*omega of Q = sum c(g) R(g): one int16
    column per candidate, 0 at the identity unless the candidate holds it.

    Real kinds ("signature", "quasi"; subsets S): c = 1 on S and -1 on the
    rest of G\\{e}, and b is the scalar 0.  Cube kinds (disjoint (S, T)
    pairs): c = 1, omega, omega^2 = -1 - omega on S, T, V = (S u T)^c\\{e}.
    """
    if kind in ("signature", "quasi"):
        a = 2 * indicator_columns(order, candidates) - 1
        a[0] += 1
        return a, 0
    s = indicator_columns(order, [pair[0] for pair in candidates])
    t = indicator_columns(order, [pair[1] for pair in candidates])
    v = 1 - s - t
    v[0] = 0
    return s - v, t - v


def seidel_identity(
    group: "GroupTable", kind: str, a: np.ndarray, b: np.ndarray | int, h: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each column c = a + b*omega solves the Seidel identity
    c*c + shift*h*1 = (n - 1 + shift) delta_e + mu*c, n = h * group.order,
    on every coordinate, and the mu it gives (meaningful only where it
    holds): sum c for the bordered (quasi) kinds, whose shift is 1, and
    ((sum c)^2 - (n - 1)) / sum c for the others, whose shift is 0.  With
    h = 1 the columns are candidates on G, from `seidel_coefficients` or
    `search.Candidates.columns` (cube pairs with S = S^-1, V = T^-1), and
    this is Q^2 = (n-1)I + mu*Q for Q = sum c(g) R(g): the search screen
    and every verifier's oracle.  With h = |H| they are images in G/H, for
    the join (`quotients`).  Every value stays in the columns' dtype: sum c
    divides (sum c)^2, so the unbordered mu is the floor sum c + (1 - n) //
    sum c (1 - n at sum c = 0), and |sum c|, |mu| <= n - 1; in a candidate's
    int16 columns every other value is at most 5n <= 20480 < 2**15 in
    magnitude, the largest being cross - aa of `eis_product`, as |a + b| <= 2.
    """
    shift = 1 if kind in ("quasi", "cube-quasi") else 0
    n = h * group.order
    total = a.sum(axis=0, dtype=a.dtype)  # the omega part of sum c vanishes, as c(x^-1) = conj(c(x))
    # (sum c)^2 = n - 1 + mu * sum c is the sum of the identity's
    # coordinates, so where no integer mu solves it the comparison fails
    mu = total if shift else total + (1 - n) // np.where(total == 0, 1, total)
    if np.ndim(b) or h > 1:
        sq_a, sq_b = eis_product(a, b, a, b, lambda x, y: convolve(group, x, y))
        sq_a += shift * h
    else:
        # c = +-1 off e, so c = 2u - 1 + delta_e, u = (c + 1) >> 1 the indicator of S, and
        # c*c + shift = 2 u*c - (sum(c) - shift) + c: for one candidate a gathered sum over S
        sq_a = 2 * convolve(group, (a + 1) >> 1, a) - (total - shift) + a
    sq_a[0] -= n - 1 + shift
    holds = (sq_a == mu * a).all(axis=0)
    if np.ndim(b):
        holds &= (sq_b == mu * b).all(axis=0)
    return holds, mu


def conjugate_subset(group: "GroupTable", s: Subset, t: int) -> Subset:
    """{t * x * t^-1 : x in s}; preserves cardinality and inverse closure.
    y is a member when t^-1 * y * t is in s, so one gather of the mask
    through those products gives the conjugate's mask, as in `inverse_set`.
    An abelian group returns s, and a cyclic one builds no table."""
    _check_group(group, s)
    t = group.element_index(t)
    if group.is_abelian:
        return s
    mul = group.mul
    return Subset.from_mask(s.order, s.mask()[mul[mul[group.inv[t]], t]])


def _check_group(group: "GroupTable", *subsets: Subset) -> None:
    if any(s.order != group.order for s in subsets):
        raise ValueError("subset does not belong to this group")
