"""Exact Seidel matrices over the integers and the Eisenstein integers.

Everything that certifies a frame happens here in exact arithmetic: the
regular-representation sums, the two-eigenvalue identity Q^2 = (n-1)I + mu*Q,
bordering, switching, and the Hadamard / conference predicates.  Floating
point never decides acceptance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .eisenstein import (
    CELL_TOKENS,
    CUBE_ROOTS,
    ONE,
    ZERO,
    EisensteinInt,
    unit_from_token,
    unit_to_token,
)
from .groups import GroupTable
from .params import FrameParams, Infeasible, params_from_mu
from .verdicts import Rejection

_OMEGA_COMPLEX = complex(-0.5, np.sqrt(3.0) / 2.0)


def _exact_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for integer matrices.  BLAS float64 is exact while every inner
    product is an integer below 2**53; past that bound int64 takes over."""
    n = x.shape[1]
    bound = n * max(int(np.abs(x).max(initial=0)), 1) * max(int(np.abs(y).max(initial=0)), 1)
    if bound >= 2 ** 53:
        return x @ y
    return np.rint(x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64)


class SeidelMatrixInt:
    """Square integer matrix with zero diagonal and +-1 off the diagonal.

    Symmetry is required for certification but not at construction, so that
    diagnostic paths can build and inspect ill-formed candidates.
    """

    def __init__(self, data: np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.int64)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError("matrix must be square")
        if np.any(np.diagonal(data) != 0):
            raise ValueError("diagonal entries must be 0")
        off = ~np.eye(data.shape[0], dtype=bool)
        if not np.isin(data[off], (-1, 1)).all():
            raise ValueError("off-diagonal entries must be +1 or -1")
        self.data = data
        self.data.setflags(write=False)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.data, self.data.T))

    def square(self) -> np.ndarray:
        return _exact_matmul(self.data, self.data)

    def to_complex(self) -> np.ndarray:
        return self.data.astype(np.complex128)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SeidelMatrixInt) and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"SeidelMatrixInt(n={self.n})"


class SeidelMatrixEis:
    """Square matrix of Eisenstein integers a + b*omega, zero diagonal,
    unit cube roots off the diagonal; Hermitian when certified."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("component matrices must be square and congruent")
        if np.any(np.diagonal(a) != 0) or np.any(np.diagonal(b) != 0):
            raise ValueError("diagonal entries must be 0")
        off = ~np.eye(a.shape[0], dtype=bool)
        # unit cube roots: (1,0), (0,1), (-1,-1)
        ok = ((a == 1) & (b == 0)) | ((a == 0) & (b == 1)) | ((a == -1) & (b == -1))
        if not ok[off].all():
            raise ValueError("off-diagonal entries must be unit cube roots")
        self.a, self.b = a, b
        self.a.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def is_hermitian(self) -> bool:
        # conj(a + b w) = (a - b) - b w
        return bool(
            np.array_equal(self.a, (self.a - self.b).T) and np.array_equal(self.b, (-self.b).T)
        )

    def square(self) -> tuple[np.ndarray, np.ndarray]:
        # (A1 + B1 w)(A2 + B2 w) = A1A2 - B1B2 + (A1B2 + B1A2 - B1B2) w
        aa = _exact_matmul(self.a, self.a)
        bb = _exact_matmul(self.b, self.b)
        ab = _exact_matmul(self.a, self.b)
        ba = _exact_matmul(self.b, self.a)
        return aa - bb, ab + ba - bb

    def entry(self, i: int, j: int) -> EisensteinInt:
        return EisensteinInt(int(self.a[i, j]), int(self.b[i, j]))

    def to_complex(self) -> np.ndarray:
        return self.a.astype(np.complex128) + self.b.astype(np.complex128) * _OMEGA_COMPLEX

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SeidelMatrixEis)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )

    def __repr__(self) -> str:
        return f"SeidelMatrixEis(n={self.n})"


SeidelMatrix = SeidelMatrixInt | SeidelMatrixEis


def regrep_sum(group: GroupTable, coeffs: Sequence[int] | np.ndarray) -> np.ndarray:
    """Sum of regular-representation permutation matrices with these weights.

    The entry at (row r, column r*g) is coeffs[g]; equivalently
    M[r, c] = coeffs[r^-1 * c], which is the layout that makes the
    group-subset constructions print in their standard form.  The identity
    coefficient must be 0 so the diagonal vanishes.
    """
    c = np.asarray(coeffs, dtype=np.int64)
    if c.shape != (group.order,):
        raise ValueError("need one coefficient per group element")
    if c[0] != 0:
        raise ValueError("identity coefficient must be 0")
    return c[group.mul[group.inv, :]]


def regrep_sum_eis(
    group: GroupTable, coeffs_a: Sequence[int], coeffs_b: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Eisenstein variant of regrep_sum; returns the (a, b) component pair."""
    return regrep_sum(group, coeffs_a), regrep_sum(group, coeffs_b)


@dataclass(frozen=True)
class TwoEigenvalueCertificate:
    """Witness that Q^2 = (n-1)I + mu*Q holds entrywise in exact arithmetic."""

    mu: int
    params: FrameParams

    @property
    def ok(self) -> bool:
        return True


def certify_two_eigenvalue(q: SeidelMatrix) -> TwoEigenvalueCertificate | Rejection:
    """Check the exact two-eigenvalue identity and derive the frame parameters.

    mu is read off entry (0, 1) and then verified at every position.  For
    Eisenstein matrices mu must additionally be rational (zero omega part).
    """
    n = q.n
    if n < 2:
        return Rejection("matrix-too-small", f"n={n} admits no frame")
    if isinstance(q, SeidelMatrixInt):
        if not q.is_symmetric():
            return Rejection("not-self-adjoint")
        sq = q.square()
        mu = int(sq[0, 1]) * int(q.data[0, 1])  # divide by the unit +-1
        expected = mu * q.data
        np.fill_diagonal(expected, n - 1)
        if not np.array_equal(sq, expected):
            i, j = np.argwhere(sq != expected)[0]
            return Rejection(
                "not-two-eigenvalue",
                f"entry ({i},{j}): got {sq[i, j]}, need {expected[i, j]} for mu={mu}",
            )
    else:
        if not q.is_hermitian():
            return Rejection("not-self-adjoint")
        sqa, sqb = q.square()
        mu_e = EisensteinInt(int(sqa[0, 1]), int(sqb[0, 1])) * q.entry(0, 1).conjugate()
        if not mu_e.is_rational:
            return Rejection("mu-not-real", f"entry (0,1) gives mu = {mu_e}")
        mu = mu_e.a
        exp_a = mu * q.a
        exp_b = mu * q.b
        np.fill_diagonal(exp_a, n - 1)
        if not (np.array_equal(sqa, exp_a) and np.array_equal(sqb, exp_b)):
            bad = (sqa != exp_a) | (sqb != exp_b)
            i, j = np.argwhere(bad)[0]
            got = EisensteinInt(int(sqa[i, j]), int(sqb[i, j]))
            need = EisensteinInt(int(exp_a[i, j]), int(exp_b[i, j]))
            return Rejection(
                "not-two-eigenvalue", f"entry ({i},{j}): got {got}, need {need} for mu={mu}"
            )
    params = params_from_mu(n, mu)
    if isinstance(params, Infeasible):
        # cannot happen for a genuine Seidel matrix; surface it loudly
        return Rejection("infeasible-parameters", f"mu={mu}: {params.reason}")
    return TwoEigenvalueCertificate(mu=mu, params=params)


def border_standard(q: SeidelMatrix) -> SeidelMatrix:
    """Prepend an all-ones first row and column (0 in the corner)."""
    n = q.n
    if isinstance(q, SeidelMatrixInt):
        out = np.ones((n + 1, n + 1), dtype=np.int64)
        out[0, 0] = 0
        out[1:, 1:] = q.data
        return SeidelMatrixInt(out)
    a = np.ones((n + 1, n + 1), dtype=np.int64)
    b = np.zeros((n + 1, n + 1), dtype=np.int64)
    a[0, 0] = 0
    a[1:, 1:] = q.a
    b[1:, 1:] = q.b
    return SeidelMatrixEis(a, b)


def switch(
    q: SeidelMatrix,
    diagonal: Sequence[int] | Sequence[EisensteinInt],
    permutation: Sequence[int] | None = None,
) -> SeidelMatrix:
    """Conjugate by a permutation and a unimodular diagonal.

    result[i, j] = d[i] * q[perm[i], perm[j]] * conj(d[j]); this preserves
    the Seidel invariants and any two-eigenvalue certificate.
    """
    n = q.n
    perm = np.arange(n) if permutation is None else np.asarray(permutation, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("permutation must rearrange 0..n-1")
    if len(diagonal) != n:
        raise ValueError("diagonal length must match matrix size")
    if isinstance(q, SeidelMatrixInt):
        d = np.asarray(diagonal, dtype=np.int64)
        if not np.isin(d, (-1, 1)).all():
            raise ValueError("diagonal entries must be +1 or -1")
        data = q.data[np.ix_(perm, perm)] * np.outer(d, d)
        return SeidelMatrixInt(data)
    units = [_as_unit(x) for x in diagonal]
    a = np.empty((n, n), dtype=np.int64)
    b = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            z = units[i] * q.entry(int(perm[i]), int(perm[j])) * units[j].conjugate()
            a[i, j], b[i, j] = z.a, z.b
    return SeidelMatrixEis(a, b)


def _as_unit(x: EisensteinInt | int) -> EisensteinInt:
    z = EisensteinInt(x, 0) if isinstance(x, int) else x
    if z not in CUBE_ROOTS:
        raise ValueError(f"diagonal entry {z} is not a unit cube root")
    return z


def to_standard_form(q: SeidelMatrix) -> SeidelMatrix:
    """Switch so that the first row and column are all 1 off the diagonal."""
    if q.n < 2:
        return q
    if isinstance(q, SeidelMatrixInt):
        d = q.data[0].copy()
        d[0] = 1
        return switch(q, d)
    units = [q.entry(0, j) for j in range(q.n)]
    units[0] = EisensteinInt(1, 0)
    return switch(q, units)


def is_hadamard(m: np.ndarray) -> bool:
    """All entries +-1 and M^T M = nI, exactly."""
    m = np.asarray(m, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    n = m.shape[0]
    if not np.isin(m, (-1, 1)).all():
        return False
    return bool(np.array_equal(_exact_matmul(m.T, m), n * np.eye(n, dtype=np.int64)))


def is_conference(m: np.ndarray) -> bool:
    """Zero diagonal, +-1 off-diagonal, M^T M = (n-1)I, exactly."""
    m = np.asarray(m, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    n = m.shape[0]
    if np.any(np.diagonal(m) != 0):
        return False
    off = ~np.eye(n, dtype=bool)
    if not np.isin(m[off], (-1, 1)).all():
        return False
    return bool(np.array_equal(_exact_matmul(m.T, m), (n - 1) * np.eye(n, dtype=np.int64)))


# -- serialisation ----------------------------------------------------------


def _cell_tokens(q: SeidelMatrix) -> np.ndarray:
    """(n, n) object array of cell tokens, gathered from a 3x3 table indexed
    by the components (a, b) of each cell a + b*omega; the index -1 reads
    the last row or column."""
    grid = np.full((3, 3), None, dtype=object)
    for z in (ZERO, -ONE, *CUBE_ROOTS):  # every value a cell can hold
        grid[z.a, z.b] = unit_to_token(z)
    if isinstance(q, SeidelMatrixInt):
        return grid[:, 0][q.data]
    return grid[q.a, q.b]


def matrix_to_csv(q: SeidelMatrix) -> str:
    """One row per line, cells comma-separated, no header."""
    return "\n".join(",".join(row) for row in _cell_tokens(q).tolist()) + "\n"


def matrix_to_json(q: SeidelMatrix, mu: int | None = None) -> str:
    payload: dict = {"n": q.n, "entries": _cell_tokens(q).tolist()}
    if mu is not None:
        payload["mu"] = mu
    return json.dumps(payload, sort_keys=True)


def matrix_from_json(text: str) -> SeidelMatrix:
    """Parse matrix_to_json output; every schema fault raises ValueError.

    Each cell is looked up once in a token -> code dict, the code being the
    token's place in CELL_TOKENS; the components a and b are then gathered
    from the values of the five tokens.  A matrix whose cells all have
    b = 0 is an integer matrix.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or "entries" not in payload or "n" not in payload:
        raise ValueError("matrix JSON must be an object with 'n' and 'entries'")
    entries, n = payload["entries"], payload["n"]
    if not isinstance(n, int) or n < 1 or not isinstance(entries, list) or not all(
        isinstance(row, list) for row in entries
    ):
        raise ValueError("'n' must be a positive integer and 'entries' a list of rows")
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("entry grid does not match declared size")
    code = {token: i for i, token in enumerate(CELL_TOKENS)}
    try:
        cells = np.fromiter(
            map(code.__getitem__, chain.from_iterable(entries)), dtype=np.int8, count=n * n
        ).reshape(n, n)
    except KeyError as exc:  # also an int 1 in place of "1": 1 is not a key
        raise ValueError(f"unknown Eisenstein cell token {exc.args[0]!r}") from None
    except TypeError:  # an unhashable token such as a list or an object
        raise ValueError("matrix cells must be token strings") from None
    units = [unit_from_token(token) for token in CELL_TOKENS]
    b = np.array([z.b for z in units])[cells]
    a = np.array([z.a for z in units])[cells]
    return SeidelMatrixEis(a, b) if b.any() else SeidelMatrixInt(a)
