"""Exact arithmetic over the Eisenstein integers a + b*omega.

omega = -1/2 + i*sqrt(3)/2 is a primitive cube root of unity, so
omega**2 = -1 - omega and 1 + omega + omega**2 = 0.  Storing the pair
(a, b) of ordinary integers keeps every ring operation exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

OMEGA_COMPLEX = complex(-0.5, 3 ** 0.5 / 2)


@dataclass(frozen=True)
class EisensteinInt:
    a: int
    b: int

    def __add__(self, other: EisensteinInt | int) -> EisensteinInt:
        other = _coerce(other)
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: EisensteinInt | int) -> EisensteinInt:
        other = _coerce(other)
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: EisensteinInt | int) -> EisensteinInt:
        return _coerce(other) - self

    def __neg__(self) -> EisensteinInt:
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: EisensteinInt | int) -> EisensteinInt:
        other = _coerce(other)
        return EisensteinInt(*eis_product(self.a, self.b, other.a, other.b, operator.mul))

    __rmul__ = __mul__

    def conjugate(self) -> EisensteinInt:
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        """Field norm z * conj(z) = a^2 - a*b + b^2 (a non-negative integer)."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def to_complex(self) -> complex:
        return self.a + self.b * OMEGA_COMPLEX

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}w"
        return f"{self.a}{self.b:+}w"


def eis_product(a1, b1, a2, b2, op):
    """(a1 + b1 w)(a2 + b2 w) = (a1 a2 - b1 b2) + (a1 b2 + b1 a2 - b1 b2) w
    by w^2 = -1 - w, as the pair (a, b), with products under the bilinear op
    (`*` on numbers or arrays, a matrix product, a group-algebra product).
    Three products suffice, as in Gauss's complex product: with aa = a1 a2,
    bb = b1 b2 and cross = (a1 + b1)(a2 + b2), the omega part is
    cross - aa - 2 bb.  When both omega parts are the scalar 0 only a1 op a2
    is formed."""
    if not (np.ndim(b1) or np.ndim(b2) or b1 or b2):
        return op(a1, a2), b1
    aa, bb, total = op(a1, a2), op(b1, b2), a1 + b1
    cross = op(total, total if a2 is a1 and b2 is b1 else a2 + b2)  # a square converts one factor
    return aa - bb, cross - aa - 2 * bb


def _coerce(x: EisensteinInt | int) -> EisensteinInt:
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to EisensteinInt")


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
OMEGA = EisensteinInt(0, 1)
OMEGA2 = EisensteinInt(-1, -1)

#: The three unit cube roots of unity, in the order 1, w, w^2.
CUBE_ROOTS = (ONE, OMEGA, OMEGA2)


_CELLS = {"0": ZERO, "1": ONE, "-1": -ONE, "w": OMEGA, "w2": OMEGA2}

#: The matrix-cell tokens, one for each value a Seidel matrix cell can hold.
CELL_TOKENS = tuple(_CELLS)


def unit_from_token(token: str) -> EisensteinInt:
    """Parse a matrix-cell token: "0", "1", "-1", "w" or "w2"."""
    try:
        return _CELLS[token]
    except KeyError:
        raise ValueError(f"unknown Eisenstein cell token {token!r}") from None


def unit_to_token(z: EisensteinInt) -> str:
    for token, value in _CELLS.items():
        if z == value:
            return token
    raise ValueError(f"{z} is not 0 or a unit cube root")
