"""Turn a certified signature matrix into frame vectors, and check them.

The Gram matrix of the Parseval frame is P = (k/n) I + c_{n,k} Q; it is a
rank-k projection, so k steps of diagonally pivoted Cholesky factor it as
P = V V* with V an n x k isometry whose rows carry the frame vectors (see
`factor_gram`).  Verification checks tightness, uniform norms k/n, and the
common angle c_{n,k} in floating point against a configurable tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import (
    SeidelMatrix,
    TwoEigenvalueCertificate,
    certify_two_eigenvalue,
)
from .params import FrameParams
from .verdicts import Rejection

__all__ = [
    "FrameVectors",
    "FrameCheckReport",
    "gram_from_certificate",
    "factor_gram",
    "verify_frame",
    "frame_from_matrix",
]

DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> None:
    # nan or tol <= 0 would make every "<= tol" comparison reject a true frame
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


@dataclass(frozen=True)
class FrameVectors:
    """n frame vectors for C^k; row i of `vectors` is the analysis row
    <., f_i>, so V*V = I_k and the Gram matrix is V V*.  A real Gram
    matrix gives real vectors, in R^k.  `factor_gram` also keeps the
    product V V* it formed, read-only like the vectors, so that
    `verify_frame` need not form it again."""

    n: int
    k: int
    vectors: np.ndarray  # (n, k): float64 from a real Gram matrix, else complex128
    gram: np.ndarray | None = field(default=None, repr=False, compare=False)  # V V*


@dataclass(frozen=True)
class FrameCheckReport:
    tightness_dev: float       # max |V*V - I|
    uniformity_dev: float      # max | ||f_i||^2 - k/n |
    equiangularity_dev: float  # max | |<f_i,f_j>| - c |, i != j
    tol: float

    @property
    def tight(self) -> bool:
        return self.tightness_dev <= self.tol

    @property
    def uniform(self) -> bool:
        return self.uniformity_dev <= self.tol

    @property
    def equiangular(self) -> bool:
        return self.equiangularity_dev <= self.tol

    @property
    def ok(self) -> bool:
        return self.tight and self.uniform and self.equiangular


def gram_from_certificate(cert: TwoEigenvalueCertificate) -> np.ndarray:
    """P = (k/n) I + c_{n,k} Q for the matrix Q the certificate was issued
    for, in floating point: float64 when its omega part is the scalar 0,
    as in an integer Seidel matrix, complex128 otherwise."""
    q, params = cert.q, cert.params
    p = params.c_value * (q.to_complex() if q.b.ndim else q.a)
    np.fill_diagonal(p, params.k / params.n)  # Q has a zero diagonal
    return p


def factor_gram(p: np.ndarray, k: int, tol: float = DEFAULT_TOL) -> FrameVectors | Rejection:
    """Factor a rank-k projection P as V V* with V an n x k isometry.

    k steps of left-looking, diagonally pivoted Cholesky build R = V*, a
    (k, n) array.  Step j pivots on the largest remaining diagonal entry
    d[i] of the Schur complement (the lowest index on a tie), forms the row
    P[i] - R[:j, i]* R[:j] with its pivot entry set to d[i], scales it by
    1/sqrt(d[i]) and takes |row|^2 off d, with d[i] = 0.  Up to rounding V
    is then triangular in the pivot order with a real, positive entry at
    each pivot, which fixes it among the factors V U of P (U unitary): the
    output is reproducible.  A real P gives a real V.

    A true frame passes every pivot: the final R has orthonormal rows, so
    after j pivots the Schur complement has trace k - j spread over n - j
    diagonal entries, and pivot j+1 is at least (k-j)/(n-j) >= 1/(n-k+1).
    The Q8 frames reach that bound (1/4, n - k + 1 = 4), so no pivot is
    compared with tol.

    Rejects "not-hermitian" unless P is self-adjoint within tol, and
    "not-a-rank-k-projection", with the spectrum of P as its detail, when a
    pivot is <= 0, a diagonal entry above tol is left after k pivots, or
    max|V*V - I| > tol.  P may be indefinite with a clean diagonal, so
    "factorisation-drift" rejects max|V V* - P| > 10 tol.
    """
    _check_tol(tol)
    p = np.asarray(p)
    p = p.astype(np.complex128 if np.iscomplexobj(p) else np.float64, copy=False)
    n = p.shape[0]
    if p.shape != (n, n):
        raise ValueError("Gram matrix must be square")
    if not np.isfinite(p).all():  # NaN would pass every comparison with tol
        raise ValueError("Gram matrix must be finite")
    if np.abs(p - p.conj().T).max(initial=0.0) > tol:
        return Rejection("not-hermitian", "Gram matrix is not self-adjoint within tol")
    d = np.real(np.diagonal(p)).copy()
    r = np.empty((k, n), dtype=p.dtype)
    for j in range(k):
        i = int(np.argmax(d))
        pivot = d[i]
        if not pivot > 0:
            return _not_a_projection(p, k)
        row = r[j]
        np.subtract(p[i], r[:j, i].conj() @ r[:j], out=row)
        row[i] = pivot
        row *= 1 / np.sqrt(pivot)
        d -= (row * row.conj()).real
        d[i] = 0.0
    v = r.conj().T
    if d.max(initial=0.0) > tol or np.abs(r @ v - np.eye(k)).max(initial=0.0) > tol:
        return _not_a_projection(p, k)
    gram = v @ r
    if np.abs(gram - p).max(initial=0.0) > 10 * tol:
        return Rejection("factorisation-drift", "V V* strays from P beyond 10*tol")
    v.setflags(write=False)
    gram.setflags(write=False)
    return FrameVectors(n=n, k=k, vectors=v, gram=gram)


def _not_a_projection(p: np.ndarray, k: int) -> Rejection:
    spectrum = ", ".join(format(x, ".6g") for x in np.linalg.eigh(p)[0])
    return Rejection(
        "not-a-rank-k-projection",
        f"need {k} eigenvalues near 1 and the rest near 0; spectrum: [{spectrum}]",
    )


def verify_frame(
    frame: FrameVectors, params: FrameParams, tol: float = DEFAULT_TOL
) -> FrameCheckReport:
    """Check tightness, uniformity and equiangularity of the frame vectors,
    reading V V* from the frame when `factor_gram` kept it."""
    _check_tol(tol)
    v = frame.vectors
    n, k = params.n, params.k
    if v.shape != (n, k):
        raise ValueError("frame shape does not match the parameters")
    gram = v @ v.conj().T if frame.gram is None else frame.gram
    tightness = float(np.abs(v.conj().T @ v - np.eye(k)).max())
    norms = np.real(np.diagonal(gram))
    uniformity = float(np.abs(norms - k / n).max())
    dev = np.abs(np.abs(gram) - params.c_value)
    np.fill_diagonal(dev, 0.0)  # every deviation is >= 0 and n >= 2: the max is kept
    equiangularity = float(dev.max())
    return FrameCheckReport(
        tightness_dev=tightness,
        uniformity_dev=uniformity,
        equiangularity_dev=equiangularity,
        tol=tol,
    )


def frame_from_matrix(
    q: SeidelMatrix, tol: float = DEFAULT_TOL
) -> tuple[FrameVectors, FrameCheckReport, FrameParams] | Rejection:
    """Certify, build the Gram matrix, factor it, and verify, in one step."""
    _check_tol(tol)
    cert = certify_two_eigenvalue(q)
    if isinstance(cert, Rejection):
        return cert
    gram = gram_from_certificate(cert)
    frame = factor_gram(gram, cert.params.k, tol=tol)
    if isinstance(frame, Rejection):
        return frame
    return frame, verify_frame(frame, cert.params, tol=tol), cert.params
