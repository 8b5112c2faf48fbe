"""Subsets of group elements as bit masks, and ordered-pair counting.

The pair statistic N_{(A,B)}^g = #{(a,b) in A x B : a*b = g} is the
primitive every verification criterion in this library is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

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
    def full_nonidentity(cls, order: int) -> Subset:
        return cls(order, (1 << order) - 2)

    @classmethod
    def from_labels(cls, group: "GroupTable", labels: Iterable[str]) -> Subset:
        return cls.of(group.order, (group.index(lab) for lab in labels))

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

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def indices_array(self) -> np.ndarray:
        return np.fromiter(self, dtype=np.int64, count=self.size)

    def labels(self, group: "GroupTable") -> tuple[str, ...]:
        return tuple(group.labels[i] for i in self)

    @property
    def has_identity(self) -> bool:
        return bool(self.bits & 1)

    def union(self, other: Subset) -> Subset:
        self._check_owner(other)
        return Subset(self.order, self.bits | other.bits)

    def intersection(self, other: Subset) -> Subset:
        self._check_owner(other)
        return Subset(self.order, self.bits & other.bits)

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
    """{x^-1 : x in s}."""
    _check_group(group, s)
    bits = 0
    for x in s:
        bits |= 1 << int(group.inv[x])
    return Subset(s.order, bits)


def is_inverse_closed(group: "GroupTable", s: Subset) -> bool:
    return inverse_set(group, s).bits == s.bits


def count_pair(group: "GroupTable", a: Subset, b: Subset, target: int) -> int:
    """N_{(A,B)}^target, computed as |A  intersect  target*B^-1|."""
    _check_group(group, a)
    _check_group(group, b)
    mask = 0
    mul, inv = group.mul, group.inv
    for y in b:
        mask |= 1 << int(mul[target, inv[y]])
    return (a.bits & mask).bit_count()


def pair_count_table(group: "GroupTable", a: Subset, b: Subset) -> np.ndarray:
    """N_{(A,B)}^g for every g at once, as a length-order int vector."""
    _check_group(group, a)
    _check_group(group, b)
    if not a or not b:
        return np.zeros(group.order, dtype=np.int64)
    products = group.mul[np.ix_(a.indices_array(), b.indices_array())]
    return np.bincount(products.ravel(), minlength=group.order).astype(np.int64)


def indicator_columns(order: int, subsets: Sequence[Subset]) -> np.ndarray:
    """Membership of each subset as an (order, len(subsets)) int16 0/1 array:
    column j is the indicator of subsets[j].  Exact for every order."""
    width = (order + 7) // 8
    raw = np.frombuffer(
        b"".join(s.bits.to_bytes(width, "little") for s in subsets), dtype=np.uint8
    ).reshape(len(subsets), width)
    bits = np.unpackbits(raw.T, axis=0, count=order, bitorder="little")
    return bits.astype(np.int16, order="C")


def convolve(group: "GroupTable", x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Group-algebra products x*y of many coefficient columns at once:
    out[g, j] = sum_a x[a, j] * y[a^-1 g, j], so 0/1 columns give N_{(A,B)}^g.

    x and y are (order, B) int16 arrays.  Accumulation stays in int16, which
    is exact while sum_a |x[a, j]| * max|y| < 2**15; entries in {-1, 0, 1}
    qualify for every order up to MAX_ORDER = 4096.
    """
    left = group.mul[group.inv]  # left[a, g] = a^-1 g
    out = np.zeros(y.shape, dtype=np.int16)
    for a in range(group.order):
        out += x[a] * y[left[a]]
    return out


def conjugate_subset(group: "GroupTable", s: Subset, t: int) -> Subset:
    """{t * x * t^-1 : x in s}; preserves cardinality and inverse closure."""
    _check_group(group, s)
    mul, inv = group.mul, group.inv
    t_inv = int(inv[t])
    bits = 0
    for x in s:
        bits |= 1 << int(mul[mul[t, x], t_inv])
    return Subset(s.order, bits)


def _check_group(group: "GroupTable", s: Subset) -> None:
    if group.order != s.order:
        raise ValueError("subset does not belong to this group")
