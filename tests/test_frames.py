import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from frameforge import (
    SeidelMatrixInt,
    Subset,
    certify_two_eigenvalue,
    cyclic,
    factor_gram,
    frame_from_matrix,
    gram_from_certificate,
    quasi_signature_matrix,
    quaternion8,
    verify_frame,
)
from frameforge.frames import DEFAULT_TOL, FrameVectors
from frameforge.generators import generate
from frameforge.matrices import border_standard
from frameforge.cube_root import build_cube_matrix
from frameforge.verdicts import Rejection

from test_matrices import eis_from_tokens


def conference_6():
    return SeidelMatrixInt(golden.CONFERENCE_6)


def cube_root_9():
    return eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)


def test_gram_conference_6():
    q = conference_6()
    cert = certify_two_eigenvalue(q)
    p = gram_from_certificate(cert)
    assert np.allclose(np.diagonal(p), 0.5)
    off = ~np.eye(6, dtype=bool)
    assert np.allclose(np.abs(p[off]), 1 / (2 * np.sqrt(5)))


def test_gram_trivial_rank_one():
    n = 5
    q = SeidelMatrixInt(np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))
    cert = certify_two_eigenvalue(q)
    p = gram_from_certificate(cert)
    assert np.linalg.matrix_rank(p, tol=1e-9) == 1


def test_gram_cube_root_trace():
    q = cube_root_9()
    cert = certify_two_eigenvalue(q)
    p = gram_from_certificate(cert)
    assert np.allclose(p, p.conj().T)
    assert np.trace(p).real == pytest.approx(6.0, abs=1e-12)


def test_frame_from_matrix_certifies_once(monkeypatch):
    import frameforge.frames

    calls = []

    def counted(q):
        calls.append(q)
        return certify_two_eigenvalue(q)

    monkeypatch.setattr(frameforge.frames, "certify_two_eigenvalue", counted)
    assert not isinstance(frame_from_matrix(conference_6()), Rejection)
    assert len(calls) == 1


def test_factor_identity_projection():
    frame = factor_gram(np.eye(1, dtype=np.complex128), 1)
    assert isinstance(frame, FrameVectors)
    assert frame.vectors.shape == (1, 1)
    assert abs(abs(frame.vectors[0, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factor_refuses_a_non_finite_gram_matrix(bad):
    # NaN passes every comparison with tol and used to reach the reject path
    for dtype in (np.float64, np.complex128):
        p = np.full((3, 3), 1 / 3, dtype=dtype)
        p[0, 1] = p[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            factor_gram(p, 1)


def test_factor_rejects_non_projection():
    for dtype in (np.complex128, np.float64):  # the complex and the real eigensolver
        p = np.diag([1.0, 0.5, 0.0]).astype(dtype)
        reject = factor_gram(p, 1)
        assert isinstance(reject, Rejection)
        assert reject.reason == "not-a-rank-k-projection"
        assert "spectrum" in reject.detail


def thm59_matrix(m):
    hit = next(h for h in generate("thm59", m, verify=False) if h.m == m)
    return quasi_signature_matrix(cyclic(hit.p), Subset.of(hit.p, hit.residues))


@pytest.mark.parametrize("build", [conference_6, lambda: thm59_matrix(21)],
                         ids=["conference_6", "thm59_m21"])
def test_integer_matrix_is_factored_in_real_arithmetic(build):
    q = build()
    cert = certify_two_eigenvalue(q)
    assert gram_from_certificate(cert).dtype == np.float64
    frame, report, params = frame_from_matrix(q)
    assert report.ok
    assert frame.vectors.shape == (params.n, params.k)
    assert frame.vectors.dtype == np.float64
    assert np.all(np.imag(frame.vectors) == 0)


def test_conference_6_frame():
    q = conference_6()
    frame, report, params = frame_from_matrix(q)
    assert (params.n, params.k) == (6, 3)
    assert report.ok and report.tightness_dev < 1e-9
    gram = frame.vectors @ frame.vectors.conj().T
    off = ~np.eye(6, dtype=bool)
    assert np.allclose(np.abs(gram[off]), 1 / (2 * np.sqrt(5)), atol=1e-9)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_out_of_range_tol_is_an_error(tol):
    # nan or tol <= 0 used to report this certified matrix as rejected
    q = conference_6()
    frame, _, params = frame_from_matrix(q)
    gram = gram_from_certificate(certify_two_eigenvalue(q))
    with pytest.raises(ValueError, match="tol"):
        frame_from_matrix(q, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        factor_gram(gram, params.k, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        verify_frame(frame, params, tol=tol)


def test_conference_14_frame():
    frame, report, params = frame_from_matrix(SeidelMatrixInt(golden.CONFERENCE_14))
    assert (params.n, params.k) == (14, 7)
    assert report.ok


def test_cube_root_frame_is_complex():
    # the bordered Q8 cube-root construction: an Eisenstein matrix stays complex
    q = cube_root_9()
    cert = certify_two_eigenvalue(q)
    assert gram_from_certificate(cert).dtype == np.complex128
    frame, report, params = frame_from_matrix(q)
    assert (params.n, params.k) == (9, 6)
    assert report.ok
    assert frame.vectors.dtype == np.complex128
    assert np.abs(frame.vectors.imag).max() > 0.01


def test_perturbed_frame_fails_uniformity():
    frame, report, params = frame_from_matrix(conference_6())
    vectors = frame.vectors.copy()
    vectors[0] *= 1.01
    bad = verify_frame(FrameVectors(n=6, k=3, vectors=vectors), params)
    assert not bad.uniform
    assert bad.ok is False


def test_parseval_identity_random_vectors():
    rng = np.random.default_rng(71)
    for build in (conference_6, cube_root_9):
        frame, report, params = frame_from_matrix(build())
        v = frame.vectors
        for _ in range(100):
            x = rng.normal(size=params.k) + 1j * rng.normal(size=params.k)
            coeffs = v @ x
            assert abs(np.vdot(coeffs, coeffs).real - np.vdot(x, x).real) < 1e-8


def test_trace_equals_dimension():
    for build in (conference_6, cube_root_9):
        q = build()
        cert = certify_two_eigenvalue(q)
        p = gram_from_certificate(cert)
        assert abs(np.trace(p).real - cert.params.k) < 1e-9


def test_factorisation_pipeline_on_group_constructions():
    cases = [
        quasi_signature_matrix(cyclic(13), Subset.of(13, [1, 3, 4, 9, 10, 12])),
        quasi_signature_matrix(cyclic(17), Subset.of(17, [1, 2, 4, 8, 9, 13, 15, 16])),
    ]
    q8 = quaternion8()
    cases.append(
        border_standard(
            build_cube_matrix(q8, q8.subset(["-1"]), q8.subset(["i", "j", "k"]))
        )
    )
    for q in cases:
        frame, report, params = frame_from_matrix(q)
        assert report.ok
        assert report.tightness_dev < 1e-9
        assert report.uniformity_dev < 1e-9
        assert report.equiangularity_dev < 1e-9


# -- the pivoted Cholesky factor ---------------------------------------------


def eigh_factor(p, k, tol=DEFAULT_TOL):
    """The eigenvector factor `factor_gram` used before pivoted Cholesky, as
    a reference: the eigenvectors of the k eigenvalues near 1, each scaled
    by sqrt(eigenvalue) and phased so its first significant component is
    real and positive.  None unless the spectrum is within tol of {0, 1}
    with k ones and V V* is within 10 tol of P."""
    eigvals, eigvecs = np.linalg.eigh(p)
    near_one = np.abs(eigvals - 1.0) <= tol
    if not np.all(near_one | (np.abs(eigvals) <= tol)) or int(near_one.sum()) != k:
        return None
    cols = []
    for idx in np.nonzero(near_one)[0]:
        vec = eigvecs[:, idx] * np.sqrt(eigvals[idx])
        lead = np.nonzero(np.abs(vec) > 1e-8)[0]
        if lead.size:
            pivot = vec[lead[0]]
            vec = vec * (pivot.conjugate() / abs(pivot))
        cols.append(vec)
    v = np.column_stack(cols)
    return v if np.abs(v @ v.conj().T - p).max() <= 10 * tol else None


def q8_quasi_pair(t):
    q8 = quaternion8()
    return border_standard(build_cube_matrix(q8, q8.subset(["-1"]), q8.subset(t.split(","))))


def certified_frames():
    """Every certified matrix these tests build: the conference matrices of
    orders 6 and 14, thm59 through m = 21, and the four Q8 quasi pairs."""
    yield "conference_6", conference_6()
    yield "conference_14", SeidelMatrixInt(golden.CONFERENCE_14)
    for hit in generate("thm59", 21, verify=False):
        yield f"thm59_m{hit.m}", quasi_signature_matrix(cyclic(hit.p), Subset.of(hit.p, hit.residues))
    for t in ("i,j,k", "-i,-j,-k", "-i,-j,k", "-i,j,k"):
        yield f"q8_{t}", q8_quasi_pair(t)


def random_projection(seed, n, k, complex_):
    """A rank-k orthogonal projection Q Q* and its isometry Q, from the QR
    factor of a random n x k matrix."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, k)) + (1j * rng.normal(size=(n, k)) if complex_ else 0)
    q = np.linalg.qr(a)[0]
    return q @ q.conj().T, q


projections = st.integers(1, 24).flatmap(
    lambda n: st.tuples(st.integers(0, 2 ** 32 - 1), st.just(n), st.integers(1, n), st.booleans())
)


@settings(max_examples=120, deadline=None)
@given(projections)
def test_random_projections_are_factored(case):
    p, _ = random_projection(*case)
    _, n, k, complex_ = case
    frame = factor_gram(p, k)
    assert isinstance(frame, FrameVectors)
    v = frame.vectors
    assert v.shape == (n, k) and np.iscomplexobj(v) == complex_
    assert np.abs(v @ v.conj().T - p).max() <= 10 * DEFAULT_TOL
    assert np.abs(v.conj().T @ v - np.eye(k)).max() <= DEFAULT_TOL


@settings(max_examples=80, deadline=None)
@given(projections, st.sampled_from([0.5, 2.0]))
def test_a_moved_eigenvalue_is_not_a_rank_k_projection(case, eigenvalue):
    _, q = random_projection(*case)
    scale = np.ones(q.shape[1])
    scale[-1] = eigenvalue
    reject = factor_gram((q * scale) @ q.conj().T, case[2])
    assert isinstance(reject, Rejection)
    assert reject.reason == "not-a-rank-k-projection"
    assert "spectrum" in reject.detail


def test_indefinite_gram_with_a_clean_diagonal_is_drift():
    # one pivot on index 0 leaves the diagonal at 0 and V*V = 1, but the
    # off-diagonal block [[0, 1], [1, 0]] is not factored by any V
    p = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    reject = factor_gram(p, 1)
    assert isinstance(reject, Rejection)
    assert reject.reason == "factorisation-drift"


@pytest.mark.parametrize("q", [pytest.param(q, id=name) for name, q in certified_frames()])
def test_cholesky_and_eigenvector_factors_agree(q):
    cert = certify_two_eigenvalue(q)
    p = gram_from_certificate(cert)
    frame = factor_gram(p, cert.params.k)
    reference = eigh_factor(p, cert.params.k)
    assert isinstance(frame, FrameVectors) and reference is not None
    v = frame.vectors
    assert np.abs(v @ v.conj().T - reference @ reference.conj().T).max() <= 10 * DEFAULT_TOL
    # the factor keeps V V*, and verify_frame reads the same report off it
    # as off the vectors alone
    report = verify_frame(frame, cert.params)
    assert report.ok
    assert report == verify_frame(FrameVectors(n=frame.n, k=frame.k, vectors=v), cert.params)


def test_accept_path_runs_no_eigensolver(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on the accept path")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for q in (conference_6(), cube_root_9()):
        assert frame_from_matrix(q)[1].ok


def test_largest_bench_frame_deviations():
    frame, report, params = frame_from_matrix(thm59_matrix(99))
    assert (params.n, params.k) == (798, 399)
    assert max(report.tightness_dev, report.uniformity_dev, report.equiangularity_dev) <= 1e-12
