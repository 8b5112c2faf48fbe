import numpy as np
import pytest

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
from frameforge.frames import FrameVectors
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
