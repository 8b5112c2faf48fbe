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


def pair_count_table(group: "GroupTable", a: Subset, b: Subset) -> np.ndarray:
    """N_{(A,B)}^g for every g at once, as a length-order int vector."""
    _check_group(group, a, b)
    x, y = indicator_columns(group.order, [a, b]).T
    return convolve(group, x, y).astype(np.int64)


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
    """The group-algebra product x*y: out[g] = sum_a x[a] * y[a^-1 g], so
    0/1 vectors give N_{(A,B)}^g.  Every pair count in this library comes from here.

    x and y are int16, of shape (order,) or (order, B) for B columns at once.
    Only the rows a where x is non-zero are visited, one gathered row of the
    Cayley table each.  Accumulation stays in int16, which is exact while
    sum_a |x[a]| * max|y| < 2**15; entries in {-1, 0, 1} qualify for every
    order up to MAX_ORDER = 4096.
    """
    out = np.zeros(y.shape, dtype=np.int16)
    rows = np.flatnonzero(x.reshape(len(x), -1).any(axis=1))
    for a, a_inv in zip(rows, group.inv[rows]):
        out += x[a] * y.take(group.mul[a_inv], axis=0)
    return out


def seidel_identity(
    group: "GroupTable", kind: str, candidates: Sequence
) -> tuple[np.ndarray, np.ndarray]:
    """Whether each candidate's matrix satisfies Q^2 = (n-1)I + mu*Q, and
    the mu it gives (meaningful only where the identity holds).

    kind is "signature" or "quasi" with candidates subsets S (weight 1 on S,
    -1 on the other non-identity elements), or "cube-pair" or "cube-quasi"
    with disjoint (S, T) pairs (weights 1, omega, omega^2 on S, T and the
    rest), which must satisfy S = S^-1 and V = T^-1.  With c the coefficient
    function of Q = sum c(g) R(g), the identity reads c*c = mu*c off the
    identity, and c*c + 1 = mu*c with mu = sum c for the bordered (quasi)
    kinds.  All arithmetic is exact int16: every intermediate value is at
    most 5n <= 20480 < 2**15 in magnitude.
    """
    n = group.order
    shift = 1 if kind in ("quasi", "cube-quasi") else 0
    if kind in ("signature", "quasi"):
        u = indicator_columns(n, candidates)
        c = 2 * u - 1
        c[0] = 0
        total = c.sum(axis=0, dtype=np.int16)
        # c = 2u - 1 + delta_e, so c*c = 2 u*c - sum(c) + c: the loop in
        # convolve covers the members of S only
        value = (2 * convolve(group, u, c)[1:] - total + c[1:] + shift) * c[1:]
    else:
        s = indicator_columns(n, [pair[0] for pair in candidates])
        t = indicator_columns(n, [pair[1] for pair in candidates])
        v = 1 - s - t
        v[0] = 0
        # c = a + b*omega: 1 on S, omega on T, omega^2 = -1 - omega on V
        a, b = s - v, t - v
        total = a.sum(axis=0, dtype=np.int16)
        aa, ab, ba, bb = (convolve(group, x, y)[1:] for x, y in ((a, a), (a, b), (b, a), (b, b)))
        # mu = (c*c + shift) * conj(c), conj(c) = (a - b) - b*omega.  Only the
        # rational part is compared: c(x^-1) = conj(c(x)), so the value at
        # x^-1 is the conjugate of the value at x, and one rational part for
        # both forces the omega parts to vanish.
        value = (aa - bb + shift) * (a - b)[1:] + (ab + ba - bb) * b[1:]
    # the first value, or 0 in the trivial group, fixes mu for the unbordered kinds
    mu = total if shift else value[:1].sum(axis=0, dtype=np.int16)
    return (value == mu).all(axis=0), mu


def conjugate_subset(group: "GroupTable", s: Subset, t: int) -> Subset:
    """{t * x * t^-1 : x in s}; preserves cardinality and inverse closure."""
    _check_group(group, s)
    mul, inv = group.mul, group.inv
    t_inv = int(inv[t])
    bits = 0
    for x in s:
        bits |= 1 << int(mul[mul[t, x], t_inv])
    return Subset(s.order, bits)


def _check_group(group: "GroupTable", *subsets: Subset) -> None:
    if any(s.order != group.order for s in subsets):
        raise ValueError("subset does not belong to this group")
