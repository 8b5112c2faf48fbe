"""Turn a certified signature matrix into frame vectors, and check them.

The Gram matrix of the Parseval frame is P = (k/n) I + c_{n,k} Q; it is a
rank-k projection, so factoring P = V V* through its unit eigenvalues gives
an isometry V whose rows carry the frame vectors.  Verification checks
tightness, uniform norms k/n, and the common angle c_{n,k} in floating
point against a configurable tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    matrix gives real vectors, in R^k."""

    n: int
    k: int
    vectors: np.ndarray  # (n, k): float64 from a real Gram matrix, else complex128


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

    Rejects unless the spectrum sits within tol of {0, 1} with exactly k
    ones.  Eigenvectors are normalised so their first significant component
    is real and positive, making the output reproducible.  A real P is
    factored in real arithmetic, so V is real too.
    """
    _check_tol(tol)
    p = np.asarray(p)
    p = p.astype(np.complex128 if np.iscomplexobj(p) else np.float64, copy=False)
    n = p.shape[0]
    if p.shape != (n, n):
        raise ValueError("Gram matrix must be square")
    if np.abs(p - p.conj().T).max(initial=0.0) > tol:
        return Rejection("not-hermitian", "Gram matrix is not self-adjoint within tol")
    eigvals, eigvecs = np.linalg.eigh(p)
    near_one = np.abs(eigvals - 1.0) <= tol
    near_zero = np.abs(eigvals) <= tol
    if not np.all(near_one | near_zero) or int(near_one.sum()) != k:
        spectrum = ", ".join(format(v, ".6g") for v in eigvals)
        return Rejection(
            "not-a-rank-k-projection",
            f"need {k} eigenvalues near 1 and the rest near 0; spectrum: [{spectrum}]",
        )
    # Scalar per column on purpose: numpy divides a complex scalar and a
    # complex array with different rounding, so a vectorised phase fix
    # changes the last bits of complex frames.
    cols = []
    for idx in np.nonzero(near_one)[0]:
        vec = eigvecs[:, idx] * np.sqrt(eigvals[idx])
        lead = np.nonzero(np.abs(vec) > 1e-8)[0]
        if lead.size:
            pivot = vec[lead[0]]
            vec = vec * (pivot.conjugate() / abs(pivot))
        cols.append(vec)
    v = np.column_stack(cols)
    if np.abs(v @ v.conj().T - p).max() > 10 * tol:
        return Rejection("factorisation-drift", "V V* strays from P beyond 10*tol")
    return FrameVectors(n=n, k=k, vectors=v)


def verify_frame(
    frame: FrameVectors, params: FrameParams, tol: float = DEFAULT_TOL
) -> FrameCheckReport:
    """Check tightness, uniformity and equiangularity of the frame vectors."""
    _check_tol(tol)
    v = frame.vectors
    n, k = params.n, params.k
    if v.shape != (n, k):
        raise ValueError("frame shape does not match the parameters")
    gram = v @ v.conj().T
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
