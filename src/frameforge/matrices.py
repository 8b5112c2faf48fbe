"""Exact Seidel matrices over the integers and the Eisenstein integers.

Everything that certifies a frame happens here in exact arithmetic: the
regular-representation sums, the two-eigenvalue identity Q^2 = (n-1)I + mu*Q,
bordering, switching, and the Hadamard / conference predicates.  Floating
point never decides acceptance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .eisenstein import (
    CELL_TOKENS,
    CUBE_ROOTS,
    OMEGA_COMPLEX,
    ONE,
    ZERO,
    EisensteinInt,
    eis_product,
    unit_from_token,
    unit_to_token,
)
from .groups import GroupTable
from .params import FrameParams, params_from_mu
from .verdicts import Rejection


def _exact_matmul(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """x @ y for integer matrices or stacks of them, or x @ x.T for one
    matrix when y is None, which numpy forms as a symmetric product (syrk).
    float32 BLAS is exact while n * max|x| * max|y|, which bounds every
    partial sum of an inner product, is below 2**24; past that, int64."""
    yt = x.T if y is None else y
    n = x.shape[-1]
    bound = n * max(int(np.abs(x).max(initial=0)), 1) * max(int(np.abs(yt).max(initial=0)), 1)
    if bound >= 2 ** 24:
        return x @ yt
    xf = x.astype(np.float32)
    yf = xf.T if y is None else xf if y is x else y.astype(np.float32)  # x converts once
    return np.rint(xf @ yf).astype(np.int64)


def _integer_array(x) -> np.ndarray:
    """x as a C-contiguous int64 array.  A non-integer dtype raises
    ValueError: the cast would truncate 1.7 to 1 and 0.9 to 0."""
    x = np.asarray(x)
    if x.size and not np.issubdtype(x.dtype, np.integer):
        raise ValueError(f"entries must have an integer dtype, got {x.dtype}")
    return np.asarray(x, dtype=np.int64, order="C")


def _cell(a: np.ndarray, b: np.ndarray, i: int, j: int) -> EisensteinInt:
    """The entry (i, j) of a + b*omega, where b may be a scalar."""
    return EisensteinInt(int(a[i, j]), int(np.broadcast_to(b, a.shape)[i, j]))


class SeidelMatrix:
    """Square matrix a + b*omega over the Eisenstein integers, with zero
    diagonal and one of the kind's UNITS off the diagonal.

    SeidelMatrixInt is the case b = 0, with units +-1; it keeps b as the
    scalar 0, so no zero n x n array is stored or multiplied.  Its
    SeidelMatrixEis counterpart allows the three unit cube roots.
    Self-adjointness is required for certification but not at construction,
    so that diagnostic paths can build and inspect ill-formed candidates.
    """

    UNITS: tuple[EisensteinInt, ...] = ()
    UNITS_TEXT = ""

    def __init__(self, a: np.ndarray, b: np.ndarray | int = 0):
        # a component sharing the caller's array is copied before it is frozen
        self.a, self.b = (
            x.copy() if np.may_share_memory(x, arg) else x
            for x, arg in zip(self.check(a, b), (a, b))
        )
        self.a.setflags(write=False)
        self.b.setflags(write=False)

    @classmethod
    def check(cls, a, b=0) -> tuple[np.ndarray, np.ndarray]:
        """The components as int64 arrays; ValueError unless they have an
        integer dtype and make a square matrix of this kind."""
        a, b = _integer_array(a), _integer_array(b)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape not in ((), a.shape):
            raise ValueError("matrix components must be square and congruent")
        if a.diagonal().any() or np.broadcast_to(b, a.shape).diagonal().any():
            raise ValueError("diagonal entries must be 0")
        unit = np.logical_or.reduce([(a == z.a) & (b == z.b) for z in cls.UNITS])
        np.fill_diagonal(unit, True)
        if not unit.all():
            raise ValueError(f"off-diagonal entries must be {cls.UNITS_TEXT}")
        return a, b if any(z.b for z in cls.UNITS) else np.zeros((), dtype=np.int64)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def entry(self, i: int, j: int) -> EisensteinInt:
        return _cell(self.a, self.b, i, j)

    def is_hermitian(self) -> bool:
        # conj(a + b w) = (a - b) - b w, so Q* = Q when b^T = -b and a^T = a - b
        return bool(
            np.array_equal(self.b.T, -self.b) and np.array_equal(self.a.T, self.a - self.b)
        )

    def square(self) -> tuple[np.ndarray, np.ndarray]:
        """Q^2 as its components (a, b); one product when b is the scalar 0."""
        return eis_product(self.a, self.b, self.a, self.b, _exact_matmul)

    def to_complex(self) -> np.ndarray:
        return self.a + self.b * OMEGA_COMPLEX

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class SeidelMatrixInt(SeidelMatrix):
    """Integer Seidel matrix: +-1 off the diagonal."""

    UNITS = (ONE, -ONE)
    UNITS_TEXT = "+1 or -1"

    def square(self) -> np.ndarray:
        """Q^2, the a part of the component square (its b part is 0)."""
        return super().square()[0]


class SeidelMatrixEis(SeidelMatrix):
    """Eisenstein Seidel matrix: unit cube roots off the diagonal."""

    UNITS = CUBE_ROOTS
    UNITS_TEXT = "unit cube roots"


def regrep_sum(group: GroupTable, coeffs: Sequence[int] | np.ndarray) -> np.ndarray:
    """Sum of regular-representation permutation matrices with these weights.

    The entry at (row r, column r*g) is coeffs[g]; equivalently
    M[r, c] = coeffs[r^-1 * c], which is the layout that makes the
    group-subset constructions print in their standard form.  The identity
    coefficient must be 0 so the diagonal vanishes.  Columns of shape
    (order, B) give a (B, order, order) stack, one matrix per column.
    """
    c = _integer_array(coeffs)
    if c.shape[:1] != (group.order,) or c.ndim > 2:
        raise ValueError("need one coefficient per group element")
    if c[0].any():
        raise ValueError("identity coefficient must be 0")
    m = group.left_translates(c)(np.arange(group.order))
    return m if c.ndim == 1 else m.transpose(2, 0, 1)


@dataclass(frozen=True)
class TwoEigenvalueCertificate:
    """Witness that Q^2 = (n-1)I + mu*Q holds entrywise in exact arithmetic,
    for the matrix q it was issued for."""

    mu: int
    params: FrameParams
    q: SeidelMatrix = field(compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return True


def certify_two_eigenvalue(q: SeidelMatrix) -> TwoEigenvalueCertificate | Rejection:
    """Check the exact two-eigenvalue identity and derive the frame parameters.

    mu is read off entry (0, 1) and then verified at every position; it
    must be rational (zero omega part).  Such a mu is feasible, as tr Q = 0
    makes the eigenvalue multiplicities integers, so a refusal is a bug.
    """
    if not q.is_hermitian():
        return Rejection("not-self-adjoint")
    # Q is self-adjoint, so an integer a is symmetric and a @ a.T is its
    # square; an Eisenstein Q takes the component square
    sq_a, sq_b = SeidelMatrix.square(q) if q.b.ndim else (_exact_matmul(q.a), q.b)
    mu = _identity_mu(*(x[None] if x.ndim else x for x in (q.a, q.b, sq_a, sq_b)))[0]
    if isinstance(mu, Rejection):
        return mu
    params = params_from_mu(q.n, mu)
    if isinstance(params, Rejection):
        raise RuntimeError(f"internal: a matrix satisfying the identity got {params}")
    return TwoEigenvalueCertificate(mu=mu, params=params, q=q)


#: Most entries of a stack in `certify_columns`; with its products, a few MB.
_STACK = 1 << 15


def certify_columns(
    group: GroupTable, a: np.ndarray, b: np.ndarray, bordered: bool
) -> list[int | Rejection]:
    """The identity test of `certify_two_eigenvalue`, but not its self-adjoint
    check, on sum c(g) R(g) for each column c = a + b*omega, bordered when
    asked: a mu or Rejection per column.  Stacks (B, n, n) of at most _STACK
    entries are gathered by `regrep_sum` and squared by one exact product."""
    n = group.order + bordered
    step = max(1, _STACK // n ** 2)
    out = []
    for lo in range(0, a.shape[1], step):
        gathered = [regrep_sum(group, x[:, lo:lo + step]) for x in (a, b)]
        qa, qb = q = np.zeros((2, len(gathered[0]), n, n), np.int64)
        q[:, :, bordered:, bordered:] = gathered
        if bordered:  # border_standard's all-ones first row and column
            qa[:, 0, 1:] = qa[:, 1:, 0] = 1
        out += _identity_mu(qa, qb, *eis_product(qa, qb, qa, qb, _exact_matmul))
    return out


def _identity_mu(a, b, sq_a, sq_b) -> list[int | Rejection]:
    """Per Q = a + b*omega of a (B, n, n) stack, given Q^2 (b, sq_b may be
    the scalar 0): mu with Q^2 = (n-1)I + mu*Q, read off entry (0, 1), or the Rejection."""
    count, n = len(a), a.shape[-1]
    if n < 2:
        return [Rejection("matrix-too-small", f"n={n} admits no frame")] * count
    a01, b01, sq_a01, sq_b01 = (x[:, 0, 1] if x.ndim else x for x in (a, b, sq_a, sq_b))
    # divide by the unit Q[0, 1]: multiply by conj(a + bw) = (a - b) - bw
    mu, mu_b = eis_product(sq_a01, sq_b01, a01 - b01, -b01, np.multiply)
    exp_a, exp_b = mu[:, None, None] * a, mu[:, None, None] * b
    exp_a[:, np.arange(n), np.arange(n)] = n - 1
    off = sq_a != exp_a
    off |= sq_b != exp_b
    out = []
    for k, (m, m_b) in enumerate(zip(mu.tolist(), np.broadcast_to(mu_b, mu.shape).tolist())):
        if m_b:
            out.append(Rejection("mu-not-real", f"entry (0,1) gives mu = {EisensteinInt(m, m_b)}"))
        elif off[k].any():
            i, j = divmod(int(off[k].argmax()), n)  # the first entry that is off, row by row
            got, need = (_cell(x[k], y[k] if y.ndim else y, i, j)
                         for x, y in ((sq_a, sq_b), (exp_a, exp_b)))
            out.append(Rejection("not-two-eigenvalue",
                                 f"entry ({i},{j}): got {got}, need {need} for mu={m}"))
        else:
            out.append(m)
    return out


def border_standard(q: SeidelMatrix) -> SeidelMatrix:
    """Prepend an all-ones first row and column (0 in the corner); a scalar
    omega part, the 0 of an integer matrix, stays a scalar."""
    a = np.pad(q.a, ((1, 0), (1, 0)), constant_values=1)
    a[0, 0] = 0
    return type(q)(a, np.pad(q.b, ((1, 0), (1, 0))) if q.b.ndim else q.b)


def switch(
    q: SeidelMatrix,
    diagonal: Sequence[int] | Sequence[EisensteinInt],
    permutation: Sequence[int] | None = None,
) -> SeidelMatrix:
    """Conjugate by a permutation and a unimodular diagonal.

    result[i, j] = d[i] * q[perm[i], perm[j]] * conj(d[j]); this preserves
    the Seidel invariants and any two-eigenvalue certificate.  Each d[i] is
    an int, a numpy integer or an EisensteinInt, and must be one of q's units.
    """
    n = q.n
    perm = np.arange(n) if permutation is None else _integer_array(permutation)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("permutation must rearrange 0..n-1")
    if len(diagonal) != n:
        raise ValueError("diagonal length must match matrix size")
    units = [EisensteinInt(int(x), 0) if isinstance(x, (int, np.integer)) else x for x in diagonal]
    if not all(z in q.UNITS for z in units):
        raise ValueError(f"diagonal entries must be {q.UNITS_TEXT}")
    da, db = np.array([(z.a, z.b) for z in units], dtype=np.int64).reshape(n, 2).T
    cells = np.ix_(perm, perm)
    a, b = eis_product(
        da[:, None], db[:, None], q.a[cells], np.broadcast_to(q.b, q.a.shape)[cells], np.multiply
    )
    return type(q)(*eis_product(a, b, da - db, -db, np.multiply))  # conj(d) = (da - db) - db w


def to_standard_form(q: SeidelMatrix) -> SeidelMatrix:
    """Switch so that the first row and column are all 1 off the diagonal."""
    if q.n < 2:
        return q
    return switch(q, [ONE] + [q.entry(0, j) for j in range(1, q.n)])


def is_hadamard(m: np.ndarray) -> bool:
    """All entries +-1 and M^T M = nI, exactly."""
    try:
        m = _integer_array(m)
    except ValueError:
        return False
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.isin(m, (-1, 1)).all():
        return False
    n = m.shape[0]
    return bool(np.array_equal(_exact_matmul(m.T, m), n * np.eye(n, dtype=np.int64)))


def is_conference(m: np.ndarray) -> bool:
    """Zero diagonal, +-1 off-diagonal, M^T M = (n-1)I, exactly."""
    try:
        m, _ = SeidelMatrixInt.check(m)
    except ValueError:
        return False
    n = m.shape[0]
    return bool(np.array_equal(_exact_matmul(m.T, m), (n - 1) * np.eye(n, dtype=np.int64)))


# -- serialisation ----------------------------------------------------------


def _cell_tokens(q: SeidelMatrix) -> np.ndarray:
    """(n, n) object array of cell tokens, gathered from a 3x3 table indexed
    by the components (a, b) of each cell a + b*omega; the index -1 reads
    the last row or column."""
    grid = np.full((3, 3), None, dtype=object)
    for z in (ZERO, -ONE, *CUBE_ROOTS):  # every value a cell can hold
        grid[z.a, z.b] = unit_to_token(z)
    return grid[q.a, q.b]


def matrix_to_csv(q: SeidelMatrix) -> str:
    """One row per line, cells comma-separated, no header."""
    return "\n".join(",".join(row) for row in _cell_tokens(q).tolist()) + "\n"


def matrix_to_json(q: SeidelMatrix, mu: int | None = None) -> str:
    """The text of json.dumps({"entries": tokens, "mu": mu, "n": n},
    sort_keys=True), with "mu" left out when it is None.  The entries are
    joined row by row: no cell token needs escaping, and "entries" sorts
    before the keys json.dumps still writes."""
    rest: dict = {"n": q.n}
    if mu is not None:
        rest["mu"] = mu
    rows = ", ".join('["' + '", "'.join(row) + '"]' for row in _cell_tokens(q).tolist())
    return '{"entries": [' + rows + "], " + json.dumps(rest, sort_keys=True)[1:]


def matrix_from_json(text: str) -> SeidelMatrix:
    """Parse matrix_to_json output; every schema fault raises ValueError.

    Each cell is looked up once in a token -> code dict, the code being the
    token's place in CELL_TOKENS; the components a and b are then gathered
    from the values of the five tokens.  A matrix whose cells all have
    b = 0 is an integer matrix.
    """
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("matrix JSON nests too deeply") from None
    if not isinstance(payload, dict) or "entries" not in payload or "n" not in payload:
        raise ValueError("matrix JSON must be an object with 'n' and 'entries'")
    entries, n = payload["entries"], payload["n"]
    # a JSON true is an int too, so bool is refused by exact type
    if type(n) is not int or n < 1 or not isinstance(entries, list) or not all(
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
