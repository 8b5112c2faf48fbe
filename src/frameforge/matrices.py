"""Exact Seidel matrices over the integers and the Eisenstein integers.

Everything that certifies a frame happens here in exact arithmetic: the
regular-representation sums, the two-eigenvalue identity Q^2 = (n-1)I + mu*Q,
bordering, switching, and the Hadamard / conference predicates.  Floating
point never decides acceptance.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

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
    bound = x.shape[-1]
    for m in (x, yt):  # max(max|m|, 1), read off the extremes: no |m| copy
        bound *= max(int(m.max(initial=0)), -int(m.min(initial=0)), 1)
    if bound >= 2 ** 24:
        return x @ yt
    xf = x.astype(np.float32)
    yf = xf.T if y is None else xf if y is x else y.astype(np.float32)  # x converts once
    z = xf @ yf
    del xf, yf  # the int64 result is made after the float32 factors are freed
    return np.rint(z, out=z).astype(np.int64)

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
        raw_a, raw_b = np.asarray(a), np.asarray(b)
        a, b = _integer_array(raw_a), _integer_array(raw_b)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape not in ((), a.shape):
            raise ValueError("matrix components must be square and congruent")
        # the diagonal and unit checks read the caller's (often int8) arrays where
        # the int64 cast keeps every value, as it does for every integer dtype but uint64
        raw_a, raw_b = (raw if np.can_cast(raw.dtype, np.int64) else cast
                        for raw, cast in ((raw_a, a), (raw_b, b)))
        if raw_a.diagonal().any() or np.broadcast_to(raw_b, a.shape).diagonal().any():
            raise ValueError("diagonal entries must be 0")
        unit = np.zeros(a.shape, bool)
        for z in cls.UNITS:
            if raw_b.ndim:
                unit |= (raw_a == z.a) & (raw_b == z.b)
            elif raw_b == z.b:  # a scalar omega part: no n x n comparison with it
                unit |= raw_a == z.a
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
        a_conj = self.a - self.b if self.b.ndim else self.a  # no copy when b is the scalar 0
        return bool(np.array_equal(self.b.T, -self.b) and np.array_equal(self.a.T, a_conj))

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
    (order, B) give a (B, order, order) stack, one matrix per column, in
    the coefficients' integer dtype (int64 for a list).
    """
    c = np.asarray(coeffs)
    c = c if c.dtype.kind in "iu" else _integer_array(c)
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
    the scalar 0): mu with Q^2 = (n-1)I + mu*Q, read off entry (0, 1), or the
    Rejection.  (n-1)I + mu*Q is formed 64 rows at a time, never whole."""
    count, n = len(a), a.shape[-1]
    if n < 2:
        return [Rejection("matrix-too-small", f"n={n} admits no frame")] * count
    a01, b01, sq_a01, sq_b01 = (x[:, 0, 1] if x.ndim else x for x in (a, b, sq_a, sq_b))
    # divide by the unit Q[0, 1]: multiply by conj(a + bw) = (a - b) - bw
    mu, mu_b = eis_product(sq_a01, sq_b01, a01 - b01, -b01, np.multiply)
    scale = mu[:, None, None]
    first = np.full(count, -1)  # per matrix, the flat index of its first entry that is off
    for lo in range(0, n, 64):
        qa, qb, sqa, sqb = (x[:, lo:lo + 64] if x.ndim else x for x in (a, b, sq_a, sq_b))
        exp_a = np.multiply(scale, qa, order="C")  # C order: its reshape is a view
        exp_a.reshape(count, -1)[:, lo::n + 1] = n - 1  # the diagonal of rows lo, lo + 1, ...
        off = sqa != exp_a
        if qb.ndim or sqb.ndim:  # an integer Q's omega parts are scalar 0s
            off |= sqb != scale * qb
        if off.any():
            off = off.reshape(count, qa.shape[1] * n)
            at = off.argmax(axis=1)
            new = (first < 0) & off[np.arange(count), at]
            first[new] = lo * n + at[new]
            if (first >= 0).all():
                break
    out = []
    for k, (m, m_b, f) in enumerate(zip(mu.tolist(), np.broadcast_to(mu_b, mu.shape).tolist(),
                                        first.tolist())):
        if m_b:
            out.append(Rejection("mu-not-real", f"entry (0,1) gives mu = {EisensteinInt(m, m_b)}"))
        elif f >= 0:
            i, j = divmod(f, n)  # the first entry that is off, row by row
            got = _cell(sq_a[k], sq_b[k] if sq_b.ndim else sq_b, i, j)
            q = _cell(a[k], b[k] if b.ndim else b, i, j)
            need = EisensteinInt(n - 1 if i == j else q.a * m, q.b * m)
            out.append(Rejection("not-two-eigenvalue",
                                 f"entry ({i},{j}): got {got}, need {need} for mu={m}"))
        else:
            out.append(m)
    return out


def border_standard(q: SeidelMatrix) -> SeidelMatrix:
    """Prepend an all-ones first row and column (0 in the corner); a scalar
    omega part, the 0 of an integer matrix, stays a scalar.  A unit's
    components fit in int8, so the constructor's is the one int64 copy."""
    a = np.pad(q.a.astype(np.int8), ((1, 0), (1, 0)), constant_values=1)
    a[0, 0] = 0
    return type(q)(a, np.pad(q.b.astype(np.int8), ((1, 0), (1, 0))) if q.b.ndim else q.b)


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

#: Rows per block of matrix_to_json's text.
_ROWS = 64

#: A word's 4 cell codes are the base-5 digits of its number (_word_rows).
_PLACES = np.array([125, 25, 5, 1], dtype=np.int16)

#: Cell codes by the two bytes after a token's opening quote, both ASCII; a
#: one-byte token is followed by its closing quote.
_CODE_TABLE = np.zeros((128, 128), dtype=np.int8)
_CODE_TABLE[
    [ord(t[0]) for t in CELL_TOKENS], [ord((t + '"')[1]) for t in CELL_TOKENS]
] = np.arange(len(CELL_TOKENS))


def _cell_codes(q: SeidelMatrix) -> np.ndarray:
    """(n, n) int8 array of each cell's place in CELL_TOKENS, gathered from
    a 3x3 table indexed by the components (a, b) of each cell a + b*omega
    (by a alone when b is the scalar 0); -1 reads the last row or column."""
    grid = np.zeros((3, 3), dtype=np.int8)
    for z in (ZERO, -ONE, *CUBE_ROOTS):  # every value a cell can hold
        grid[z.a, z.b] = CELL_TOKENS.index(unit_to_token(z))
    return grid[q.a, q.b] if q.b.ndim else grid[:, 0][q.a]


@functools.cache
def _word_table(sep: str) -> np.ndarray:
    """The 1- to 4-cell word tables end to end: entry i of the w-cell table,
    at (5**w - 5) // 4 + i, is sep.join of the w tokens whose codes spell i."""
    tables = [list(CELL_TOKENS)]
    while len(tables) < len(_PLACES):
        tables.append([word + sep + token for word in tables[-1] for token in CELL_TOKENS])
    return np.array(list(chain.from_iterable(tables)), dtype=object)


def _word_rows(cells: np.ndarray, sep: str) -> Iterator[list[list[str]]]:
    """The (n, n) cell codes' rows, _ROWS at a time, each as n // 4 words of
    4 cells, then one of the n % 4 left, padded in front with codes -1: word
    w is entry 155 + w . _PLACES of _word_table(sep), in its width's table."""
    n = len(cells)
    for lo in range(0, n, _ROWS):
        block = np.insert(cells[lo:lo + _ROWS], [n - n % 4] * (-n % 4), -1, axis=1)
        yield _word_table(sep)[block.reshape(len(block), -1, 4) @ _PLACES + 155].tolist()


def matrix_to_csv(q: SeidelMatrix) -> str:
    """One row per line, cells comma-separated, no header."""
    return "".join(",".join(row) + "\n" for rows in _word_rows(_cell_codes(q), ",") for row in rows)


def _json_chunks(cells: np.ndarray, mu: int | None) -> Iterator[str]:
    """matrix_to_json's text for the (n, n) cell codes, in pieces: the head,
    blocks of _ROWS rows and the tail.  The entries are joined row by row
    from 4-cell words: no cell token needs escaping, and "entries" sorts
    before the keys json.dumps still writes."""
    n = len(cells)
    rest = {"n": n} if mu is None else {"mu": mu, "n": n}
    yield '{"entries": ['
    for i, rows in enumerate(_word_rows(cells, '", "')):
        yield ", " * bool(i) + ", ".join('["' + '", "'.join(row) + '"]' for row in rows)
    yield "], " + json.dumps(rest, sort_keys=True)[1:]


def matrix_to_json(q: SeidelMatrix, mu: int | None = None) -> str:
    """The text of json.dumps({"entries": tokens, "mu": mu, "n": n},
    sort_keys=True), with "mu" left out when it is None."""
    return "".join(_json_chunks(_cell_codes(q), mu))


def matrix_from_json(text: str) -> SeidelMatrix:
    """Parse matrix_to_json output; every schema fault raises ValueError.
    An emitted text is read from its bytes (`_emitted_cells`), every other
    through json.loads (`_loaded_cells`), which reads emitted texts alike.
    Cells are codes, places in CELL_TOKENS, gathered into the components a
    and b; a matrix whose cells all have b = 0 is an integer matrix."""
    cells = _emitted_cells(text)
    if cells is None:
        cells = _loaded_cells(text)
    units = [unit_from_token(token) for token in CELL_TOKENS]
    b = np.array([z.b for z in units], dtype=np.int8).take(cells)
    a = np.array([z.a for z in units], dtype=np.int8).take(cells)
    return SeidelMatrixEis(a, b) if b.any() else SeidelMatrixInt(a)


def _emitted_cells(text: str) -> np.ndarray | None:
    """The (n, n) cell codes when text is matrix_to_json(q, mu) for an
    integer mu or none, with at most one "\n" after it; None otherwise.

    The tail after the last "]], " is read by json.loads.  Each cell's code
    is looked up from the two bytes after its opening quote, a quote that
    follows "[" or a space.  The codes are trusted only once `_json_chunks`
    has written the text back from them, chunk by chunk, never whole."""
    head = '{"entries": ['
    end = text.rfind("]], ")
    if end < 0 or not text.isascii() or not text.startswith(head + "["):
        return None
    try:
        rest = json.loads("{" + text[end + 4:])  # a dict, if anything
    except (ValueError, RecursionError):
        return None
    n, mu = rest.get("n"), rest.get("mu")
    if type(n) is not int or n < 1 or type(mu) not in (int, type(None)):
        return None
    data = np.frombuffer(text[len(head):end + 2].encode("ascii"), dtype=np.uint8)
    at = data[:-3] == ord(" ")  # at[j]: data[j + 1] is an opening quote
    at |= data[:-3] == ord("[")
    at &= data[1:-2] == ord('"')
    at = np.flatnonzero(at)
    cells = _CODE_TABLE[data[2:][at], data[3:][at]]
    if cells.size != n * n:
        return None
    cells = cells.reshape(n, n)
    pos = 0
    for chunk in _json_chunks(cells, mu):
        if not text.startswith(chunk, pos):
            return None
        pos += len(chunk)
    return cells if text[pos:] in ("", "\n") else None


def _loaded_cells(text: str) -> np.ndarray:
    """The (n, n) cell codes of any matrix JSON, through json.loads."""
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
        return np.fromiter(
            map(code.__getitem__, chain.from_iterable(entries)), dtype=np.int8, count=n * n
        ).reshape(n, n)
    except KeyError as exc:  # also an int 1 in place of "1": 1 is not a key
        raise ValueError(f"unknown Eisenstein cell token {exc.args[0]!r}") from None
    except TypeError:  # an unhashable token such as a list or an object
        raise ValueError("matrix cells must be token strings") from None
