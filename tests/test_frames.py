import dataclasses
import json
import sys
import tracemalloc

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
from frameforge.cli import main
from frameforge.frames import DEFAULT_TOL, FrameVectors, _angle_deviation, _drift
from frameforge.generators import generate
from frameforge.matrices import border_standard, matrix_from_json, matrix_to_json
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
    # the factor keeps V V* and V*V, and verify_frame reads the same report
    # off them as off the vectors alone
    assert frame.gram is not None and frame.column_gram is not None
    report = verify_frame(frame, cert.params)
    assert report.ok
    assert report == verify_frame(FrameVectors(n=frame.n, k=frame.k, vectors=v), cert.params)


def test_kept_products_come_only_from_the_factor():
    # a caller cannot hand verify_frame a V*V or V V* for other vectors:
    # they are no arguments, and replacing the vectors drops them
    cert = certify_two_eigenvalue(conference_6())
    frame = factor_gram(gram_from_certificate(cert), cert.params.k)
    with pytest.raises(TypeError):
        FrameVectors(n=frame.n, k=frame.k, vectors=frame.vectors, column_gram=np.eye(frame.k))
    scaled = dataclasses.replace(frame, vectors=2 * frame.vectors)
    assert scaled.gram is None and scaled.column_gram is None
    assert verify_frame(scaled, cert.params).tightness_dev == pytest.approx(3.0)


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


def traced_peak(f, *args):
    """The most memory that tracemalloc sees one call hold, in bytes, above
    what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_the_frame_path_holds_few_n_by_n_arrays(tmp_path, capsys):
    # thm59 m = 48, n = 390; one unit is an n x n float64 or int64 array
    q = thm59_matrix(48)
    text = matrix_to_json(q, mu=0)
    unit = 8 * q.n ** 2
    # the reader holds the text's bytes, a mask of them and one comparison
    # (each len(text) long), an int64 index of the n^2 opening quotes (1
    # unit), then the int64 matrix with its int8 gathers; an index of all
    # 2n^2 quotes would be 2 units on its own
    assert traced_peak(matrix_from_json, text) < len(text) + 2 * unit
    # the factor holds P, V V*, R = V* (k = n/2) and V*V, 2.75 units, and
    # one row block of the drift; a whole |V V* - P| adds 2 units, and
    # keeping P through the frame check 1 more (Q was built untraced)
    assert traced_peak(frame_from_matrix, q) < 3.5 * unit
    # `frame --from` frees the text once it is read, and Q once P is formed:
    # certifying holds Q, Q^2 and mu*Q, 3 units; Q kept to the end adds 1,
    # as it does before Python 3.11, where a caller's stack holds each
    # argument until the call returns
    source = tmp_path / "m.json"
    source.write_text(text + "\n", encoding="utf-8")
    argv = ["frame", "--from", str(source), "--out", str(tmp_path / "v.csv")]
    del q, text
    assert traced_peak(main, argv) < (3.6 + (sys.version_info < (3, 11))) * unit
    assert json.loads(capsys.readouterr().out)["valid"]


def test_the_json_writer_holds_no_whole_matrix_of_objects():
    # thm59 m = 48, n = 390: the text and the blocks of 64 rows it is joined
    # from peak at 2.0 len(text).  An object array or list of the n^2 cells
    # (8 bytes an entry, 1.46 len(text)) goes past 2.2, and so does one of
    # the n^2 / 4 words (0.36 len(text)) that is still held at the join
    q = thm59_matrix(48)
    text = matrix_to_json(q, mu=0)
    assert traced_peak(matrix_to_json, q, 0) < 2.2 * len(text)


def assert_same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_whole_array_forms(gram, p, c):
    assert_same_bits(_drift(gram, p), np.abs(gram - p).max(initial=0.0))
    assert_same_bits(_angle_deviation(gram, c), np.abs(np.abs(gram) - c))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 200), st.booleans())
def test_blocked_drift_and_in_place_deviation_on_random_input(seed, n, complex_):
    rng = np.random.default_rng(seed)
    gram, p = rng.normal(size=(2, n, n)) + (1j * rng.normal(size=(2, n, n)) if complex_ else 0)
    assert_whole_array_forms(gram, p, rng.random())


def test_blocked_drift_sees_every_row_and_a_nan():
    p = np.zeros((150, 150))
    for i in range(150):  # one entry stands out, in each row in turn
        gram = p.copy()
        gram[i, 7 * i % 150] = -1.0 - i
        assert _drift(gram, p) == 1.0 + i
    gram[3, 5] = np.nan
    assert np.isnan(_drift(gram, p)) and np.isnan(np.abs(gram - p).max())


@pytest.mark.parametrize("q", [pytest.param(q, id=name) for name, q in certified_frames()]
                         + [pytest.param(thm59_matrix(48), id="thm59_m48")])
def test_blocked_drift_and_in_place_deviation_on_certified_grams(q):
    cert = certify_two_eigenvalue(q)
    p = gram_from_certificate(cert)
    frame = factor_gram(p, cert.params.k)
    assert_whole_array_forms(frame.gram, p, cert.params.c_value)
