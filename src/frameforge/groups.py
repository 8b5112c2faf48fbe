"""Finite groups with 0-based element indices, given by Cayley tables.

The identity always sits at index 0, so the non-identity elements form the
contiguous range 1..n-1 and subset masks can ignore bit 0.  Every table is
validated exactly, at every order, by `make_group`: entries in range, a
two-sided identity and inverses, and associativity by Light's test on a
generating set (O(n^2 log n)).  These make the table a group, so every row
and column is a permutation (a Latin square) without a separate check.

Cyclic groups store no table: their group-algebra products need only the
left translates y -> y[a^-1 g], which are slices of y repeated twice, and
their `mul` is built and validated by `make_group` when first read; a
product of two is tabulated without reading either factor's `mul`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .numbertheory import is_prime
from .subsets import Subset

#: Largest supported group order (dense tables, 64-bit safe matrix products).
MAX_ORDER = 4096


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group given by its multiplication table.

    mul[a, b] is the index of the product a*b; inv[a] the index of a^-1.
    Instances are immutable and safe to share across threads.
    """

    name: str
    mul: np.ndarray
    inv: np.ndarray
    labels: tuple[str, ...]
    index_bytes = 12  # per translated entry: int32 mul[inv[a]] and take's intp copy

    @property
    def order(self) -> int:
        return len(self.inv)

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise ValueError(f"{label!r} is not an element of {self.name}") from None

    def subset(self, labels: Iterable[str]) -> Subset:
        return Subset.of(self.order, (self.index(lab) for lab in labels))

    def left_translates(self, y: np.ndarray) -> Callable[[int | np.ndarray], np.ndarray]:
        """The map a -> T_a(y), where T_a(y)[g] = y[a^-1 g] along the first
        axis of y.  For one element a the translate has y's shape; an index
        array a stacks one translate per entry on a new first axis.  Each
        translate gathers the table row of a^-1."""
        mul, inv = self.mul, self.inv
        return lambda a: y.take(mul[inv[a]], axis=0)

    def element_index(self, x: int, what: str = "element") -> int:
        """x as an element index; a ValueError when it is out of range."""
        if not 0 <= x < self.order:
            raise ValueError(f"{what} index {x} out of range")
        return int(x)

    def element_order(self, x: int) -> int:
        x = self.element_index(x)
        k, y = 1, x
        while y != 0:
            y = int(self.mul[y, x])
            k += 1
        return k

    def involutions(self) -> Subset:
        """Non-identity elements equal to their own inverse."""
        idx = np.nonzero(self.inv == np.arange(self.order))[0]
        return Subset.of(self.order, (int(i) for i in idx if i != 0))

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


def make_group(name: str, mul: np.ndarray, labels: Sequence[str]) -> GroupTable:
    """Validate a multiplication table and package it as a GroupTable."""
    mul = np.asarray(mul)
    n = len(labels)
    if n == 0:
        raise ValueError("a group needs at least the identity element")
    _check_order(n)
    if mul.shape != (n, n):
        raise ValueError("multiplication table shape does not match label count")
    if not np.issubdtype(mul.dtype, np.integer):  # the int32 cast would truncate 0.5 to 0
        raise ValueError(f"multiplication table must have an integer dtype, got {mul.dtype}")
    if mul.min() < 0 or mul.max() >= n:  # before the cast, which would wrap
        raise ValueError("multiplication table entries are not element indices")
    mul = np.ascontiguousarray(mul, dtype=np.int32)
    rng = np.arange(n, dtype=np.int32)
    if not np.array_equal(mul[0], rng) or not np.array_equal(mul[:, 0], rng):
        raise ValueError("index 0 is not a two-sided identity")
    inv = _inverse_table(mul)
    _check_associative(mul)
    mul.setflags(write=False)
    inv.setflags(write=False)
    return GroupTable(name=name, mul=mul, inv=inv, labels=tuple(labels))


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ValueError(f"group order {n} exceeds the supported maximum {MAX_ORDER}")


def _inverse_table(mul: np.ndarray) -> np.ndarray:
    n = mul.shape[0]
    inv = np.argmin(mul, axis=1).astype(np.int32)  # first zero of each row
    if not (mul[np.arange(n), inv] == 0).all() or not (mul[inv, np.arange(n)] == 0).all():
        raise ValueError("inverses are not two-sided")
    return inv


def _check_associative(mul: np.ndarray) -> None:
    """Light's test, (x*g)*y == x*(g*y) for all x, y, on a greedy generating set.

    The g that pass are closed under products, since (x(gh))y = ((xg)h)y =
    (xg)(hy) = x(g(hy)) = x((gh)y); so the table is associative once the
    passing generators reach every element from the identity.  `_reached`
    also steps by g^2, g^4, ...: each is a product of passing elements, so it
    passes too.  With inverses checked first, the reached set M is a
    subgroup; each new generator lies outside it and Mg is disjoint from M,
    so M at least doubles: at most log2(n) exact checks of n^2 entries.
    """
    gens: list[int] = []
    while not (reached := _reached(mul, gens)).all():
        g = int(np.argmin(reached))
        for lo in range(0, mul.shape[0], 256):  # row blocks keep temporaries small
            rows = mul[lo:lo + 256]
            if not np.array_equal(mul[rows[:, g]], rows.take(mul[g], axis=1)):
                raise ValueError(f"associativity fails for some triple with middle element {g}")
        gens.append(g)


def _reached(mul: np.ndarray, gens: Sequence[int]) -> np.ndarray:
    """Mask of the elements reached from the identity by right-multiplying by
    gens: passes over the steps g, g^2, g^4, ... of each generator, one gather
    each, until the reached set is closed under every generator."""
    n, steps = mul.shape[0], {}
    for g in gens:
        for _ in range((n - 1).bit_length()):  # to g^(2^k) with 2^(k+1) >= n
            steps[g] = None
            g = int(mul[g, g])
    steps.pop(0, None)
    reached = np.arange(n) == 0
    while True:
        for s in steps:
            reached[mul[:, s][reached]] = True
        if all(reached[mul[:, g][reached]].all() for g in gens):
            return reached


class CyclicGroup(GroupTable):
    """(Z_n, +) without a stored table; element i is residue i.

    A left translate is the slice y2[n-a : 2n-a] of y2 = (y, y): a view,
    with no index array.  `labels` is built, and `mul` built and validated
    by `make_group`, the first time it is read.
    """

    is_abelian = True
    index_bytes = 0

    def __init__(self, n: int):
        inv = -np.arange(n, dtype=np.int32) % n
        inv.setflags(write=False)
        object.__setattr__(self, "name", f"C{n}")
        object.__setattr__(self, "inv", inv)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(str(k) for k in range(self.order))

    @cached_property
    def mul(self) -> np.ndarray:
        return make_group(self.name, _table(self), self.labels).mul

    def left_translates(self, y: np.ndarray) -> Callable[[int | np.ndarray], np.ndarray]:
        n = self.order
        y2 = np.concatenate([y, y])
        # windows[k] = y2[k : k+n], so T_a(y) = windows[n - a].  Built on
        # y2's buffer, not by as_strided: the __array_interface__ that
        # as_strided reads keeps about 1 MB once it has been read 6,000 to
        # 26,000 times (numpy 2.4), so the peak memory grew with the calls.
        windows = np.ndarray((n + 1, *y.shape), y2.dtype, y2, strides=(y2.strides[0], *y2.strides))
        windows.setflags(write=False)
        return lambda a: windows[n - a]


def cyclic(n: int) -> GroupTable:
    """The cyclic group (Z_n, +); element i is labelled by its residue."""
    if n < 1:
        raise ValueError("cyclic group order must be at least 1")
    _check_order(n)
    return CyclicGroup(n)


def _table(group: GroupTable) -> np.ndarray:
    """group.mul, but a cyclic group's by index arithmetic, with `mul` unread."""
    if not isinstance(group, CyclicGroup):
        return group.mul
    i = np.arange(group.order, dtype=np.int32)
    return (i[:, None] + i) % np.int32(group.order)


def direct_product(g1: GroupTable, g2: GroupTable) -> GroupTable:
    """Componentwise product; element (i, j) lives at index i*|g2| + j."""
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2)
    n = n1 * n2
    mul = (_table(g1)[:, None, :, None] * np.int32(n2) + _table(g2)[None, :, None, :]).reshape(n, n)
    labels = [f"({la},{lb})" for la in g1.labels for lb in g2.labels]
    return make_group(f"{g1.name}x{g2.name}", mul, labels)


def units_mod(p: int) -> GroupTable:
    """The multiplicative group (Z_p, .) for prime p; labels are residues."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _check_order(p - 1)
    res = np.arange(1, p, dtype=np.int32)  # index i holds residue i+1
    mul = res[:, None] * res
    mul %= p
    mul -= 1
    return make_group(f"Zmult{p}", mul, [str(r) for r in res])


_Q8_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")


def quaternion8() -> GroupTable:
    """The quaternion group {1,-1,i,-i,j,-j,k,-k} with i*j = k, j*i = -k."""
    axis, neg = np.divmod(np.arange(8), 2)  # index = 2*axis + neg, axes 1, i, j, k
    # the product of two axes is the axis XOR; these products of axes are negative:
    # i*i, j*j, k*k, i*k, j*i, k*j
    flip = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    mul = 2 * (axis[:, None] ^ axis) + (neg[:, None] ^ neg ^ flip[np.ix_(axis, axis)])
    return make_group("Q8", mul, _Q8_LABELS)


def subgroup_generated(group: GroupTable, generators: Iterable[int]) -> Subset:
    """Subgroup generated by the given elements (identity included).

    Every inverse in a finite group is a positive power, so closing under
    right multiplication by the generators also closes under inverses.
    """
    gens = [group.element_index(g, "generator") for g in generators]
    return Subset.from_mask(group.order, _reached(group.mul, gens))


_DESCRIPTOR_RES = (
    (re.compile(r"^C(\d+)xC(\d+)$"), lambda m: direct_product(cyclic(int(m[1])), cyclic(int(m[2])))),
    (re.compile(r"^C(\d+)$"), lambda m: cyclic(int(m[1]))),
    (re.compile(r"^Zmult(\d+)$"), lambda m: units_mod(int(m[1]))),
    (re.compile(r"^Q8$"), lambda m: quaternion8()),
)


def parse_group(descriptor: str) -> GroupTable:
    """Build a group from a descriptor string: C<n>, C<a>xC<b>, Zmult<p>, Q8."""
    for pattern, build in _DESCRIPTOR_RES:
        m = pattern.match(descriptor)
        if m:
            return build(m)
    raise ValueError(f"unrecognised group descriptor {descriptor!r}")
