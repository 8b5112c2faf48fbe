import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from frameforge import (
    EisensteinInt,
    SeidelMatrixEis,
    SeidelMatrixInt,
    Subset,
    TwoEigenvalueCertificate,
    border_standard,
    build_cube_matrix,
    certify_two_eigenvalue,
    cyclic,
    direct_product,
    is_conference,
    is_hadamard,
    matrices,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    quaternion8,
    regrep_sum,
    signature_matrix,
    switch,
    to_standard_form,
)
from frameforge.eisenstein import (
    CELL_TOKENS,
    OMEGA,
    OMEGA2,
    ONE,
    EisensteinInt,
    eis_product,
    unit_from_token,
    unit_to_token,
)
from frameforge.generators import generate
from frameforge.signature_sets import quasi_signature_matrix
from frameforge.verdicts import Rejection

from conftest import full_nonidentity


def eis_from_tokens(tokens):
    table = {"0": (0, 0), "1": (1, 0), "w": (0, 1), "w2": (-1, -1)}
    a = np.array([[table[tok][0] for tok in row] for row in tokens], dtype=np.int64)
    b = np.array([[table[tok][1] for tok in row] for row in tokens], dtype=np.int64)
    return SeidelMatrixEis(a, b)


def quaternion_core():
    g = quaternion8()
    return build_cube_matrix(g, g.subset(["-1"]), g.subset(["i", "j", "k"]))


def test_regrep_all_ones_gives_j_minus_i():
    g = cyclic(6)
    coeffs = np.ones(6, dtype=np.int64)
    coeffs[0] = 0
    m = regrep_sum(g, coeffs)
    assert np.array_equal(m, np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64))


def test_regrep_single_generator_is_permutation():
    g = cyclic(5)
    coeffs = np.zeros(5, dtype=np.int64)
    coeffs[2] = 1
    m = regrep_sum(g, coeffs)
    assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
    # entry at (row r, column r*g) is the coefficient of g
    for r in range(5):
        assert m[r, (r + 2) % 5] == 1


def test_regrep_rejects_identity_coefficient():
    g = cyclic(4)
    with pytest.raises(ValueError):
        regrep_sum(g, [1, 1, 1, 1])


def test_regrep_z5_circulant_matches_reference():
    g = cyclic(5)
    m = signature_matrix(g, Subset.of(5, [1, 4]))
    assert np.array_equal(m.a, golden.CONFERENCE_6[1:, 1:])


def test_builders_refuse_a_subset_of_another_group():
    # the coefficient map does not check ownership, so each builder does
    g = cyclic(5)
    for s in (Subset.of(3, [1, 2]), Subset.of(7, [6])):
        with pytest.raises(ValueError, match="belong"):
            signature_matrix(g, s)
        with pytest.raises(ValueError, match="belong"):
            build_cube_matrix(g, s, Subset.empty(5))
    with pytest.raises(ValueError, match="identity"):
        signature_matrix(g, Subset.of(5, [0, 1, 4]))
    with pytest.raises(ValueError, match="identity"):
        build_cube_matrix(g, Subset.empty(5), Subset.of(5, [0]))


@pytest.mark.parametrize("eisenstein", [False, True], ids=["int", "eisenstein"])
def test_constructor_leaves_the_callers_array_writable(eisenstein):
    a = np.array([[0, 1], [1, 0]], dtype=np.int64)
    b = np.zeros((2, 2), dtype=np.int64)
    q = SeidelMatrixEis(a, b) if eisenstein else SeidelMatrixInt(a)
    a[0, 1] = -1
    b[1, 0] = 1
    assert q.a.tolist() == [[0, 1], [1, 0]] and not q.b.any()
    assert not q.a.flags.writeable and not q.b.flags.writeable


def test_border_empty():
    empty = SeidelMatrixInt(np.zeros((0, 0), dtype=np.int64))
    assert border_standard(empty).a.tolist() == [[0]]


def test_border_reproduces_conference_6():
    g = cyclic(5)
    m = border_standard(signature_matrix(g, Subset.of(5, [1, 4])))
    assert np.array_equal(m.a, golden.CONFERENCE_6)
    assert m.b.shape == ()  # the omega part of an integer matrix stays the scalar 0


def test_border_reproduces_conference_14():
    g = cyclic(13)
    m = border_standard(signature_matrix(g, Subset.of(13, [1, 3, 4, 9, 10, 12])))
    assert np.array_equal(m.a, golden.CONFERENCE_14)


def test_border_reproduces_cube_root_9():
    bordered = border_standard(quaternion_core())
    assert bordered == eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)


def test_certify_j_minus_i():
    for n in (3, 5, 8):
        q = SeidelMatrixInt(np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))
        cert = certify_two_eigenvalue(q)
        assert isinstance(cert, TwoEigenvalueCertificate)
        assert cert.mu == n - 2 and cert.params.k == 1


def test_certify_conference_14():
    cert = certify_two_eigenvalue(SeidelMatrixInt(golden.CONFERENCE_14))
    assert cert.mu == 0 and (cert.params.n, cert.params.k) == (14, 7)


def test_certify_cube_root_9():
    cert = certify_two_eigenvalue(eis_from_tokens(golden.CUBE_ROOT_9_TOKENS))
    assert cert.mu == -2 and (cert.params.n, cert.params.k) == (9, 6)


def test_certify_reports_first_violation():
    data = golden.CONFERENCE_6.copy()
    data[1, 2] = -1
    data[2, 1] = -1
    reject = certify_two_eigenvalue(SeidelMatrixInt(data))
    assert isinstance(reject, Rejection)
    assert reject.reason == "not-two-eigenvalue"
    assert "entry (" in reject.detail


def test_certify_rejects_nonsymmetric():
    data = np.array([[0, 1, 1], [1, 0, 1], [1, -1, 0]], dtype=np.int64)
    assert certify_two_eigenvalue(SeidelMatrixInt(data)).reason == "not-self-adjoint"


def test_certify_rejects_nonhermitian_eis():
    # all off-diagonal entries omega: the adjoint has omega^2 there instead
    a = np.zeros((3, 3), dtype=np.int64)
    b = 1 - np.eye(3, dtype=np.int64)
    q = SeidelMatrixEis(a, b)
    assert certify_two_eigenvalue(q).reason == "not-self-adjoint"


def test_switch_identity_is_noop():
    q = SeidelMatrixInt(golden.CONFERENCE_6)
    assert switch(q, [1] * 6) == q


def test_switch_preserves_certificate():
    rng = np.random.default_rng(17)
    q = SeidelMatrixInt(golden.CONFERENCE_14)
    base = certify_two_eigenvalue(q)
    for _ in range(10):
        d = rng.choice([-1, 1], size=14)
        perm = rng.permutation(14)
        switched = switch(q, d.tolist(), perm.tolist())
        cert = certify_two_eigenvalue(switched)
        assert isinstance(cert, TwoEigenvalueCertificate)
        assert cert.mu == base.mu and cert.params == base.params


def test_switch_preserves_certificate_eis():
    rng = np.random.default_rng(29)
    q = eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)
    units = [ONE, OMEGA, OMEGA2]
    for _ in range(5):
        d = [units[int(i)] for i in rng.integers(0, 3, size=9)]
        perm = rng.permutation(9)
        switched = switch(q, d, perm.tolist())
        cert = certify_two_eigenvalue(switched)
        assert isinstance(cert, TwoEigenvalueCertificate)
        assert cert.mu == -2 and cert.params.k == 6


def test_switch_rejects_bad_diagonal():
    q = SeidelMatrixInt(golden.CONFERENCE_6)
    with pytest.raises(ValueError):
        switch(q, [2] * 6)
    qe = eis_from_tokens(golden.OMEGA_CIRCULANT_3_TOKENS)
    with pytest.raises(ValueError):
        switch(qe, [EisensteinInt(1, 1)] * 3)


def test_switch_accepts_numpy_and_eisenstein_units_of_the_matrix_kind():
    qe = eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)
    assert switch(qe, list(np.ones(9, dtype=np.int64))) == qe
    assert switch(qe, [np.int32(1)] * 9) == qe
    q = SeidelMatrixInt(golden.CONFERENCE_6)
    signs = [1, -1, -1, 1, 1, -1]
    expected = switch(q, signs)
    assert switch(q, np.array(signs)) == expected
    assert switch(q, [np.int8(x) for x in signs]) == expected
    assert switch(q, [EisensteinInt(x, 0) for x in signs]) == expected


@pytest.mark.parametrize(
    "kind, entry",
    [
        ("int", OMEGA),
        ("int", EisensteinInt(2, 0)),
        ("int", np.int64(2)),
        ("int", 1.0),
        ("int", "1"),
        ("int", None),
        ("eis", EisensteinInt(1, 1)),
        ("eis", -1),
        ("eis", np.float64(1.0)),
        ("eis", [1]),
    ],
)
def test_switch_refuses_non_units_with_value_error(kind, entry):
    if kind == "int":
        q = SeidelMatrixInt(golden.CONFERENCE_6)
    else:
        q = eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)
    with pytest.raises(ValueError):
        switch(q, [ONE] * (q.n - 1) + [entry])


NON_INTEGER_CASES = {
    "is_hadamard": (lambda: is_hadamard([[1.5, 1], [1, -1]]), False),
    "is_hadamard-float-dtype": (lambda: is_hadamard(np.array([[1.0, 1], [1, -1]])), False),
    "is_conference": (lambda: is_conference([[0, 1.9], [1, 0]]), False),
    "is_conference-float-dtype": (lambda: is_conference(golden.CONFERENCE_6 * 1.0), False),
    "SeidelMatrixInt": (lambda: SeidelMatrixInt([[0, 1.7], [1.2, 0]]), ValueError),
    "SeidelMatrixEis": (
        lambda: SeidelMatrixEis([[0, 1], [1, 0]], [[0, 0.0], [0.0, 0]]), ValueError
    ),
    "regrep_sum": (lambda: regrep_sum(cyclic(3), [0, 1.0, -1]), ValueError),
    "switch": (lambda: switch(SeidelMatrixInt(golden.CONFERENCE_6), [1.7] * 6), ValueError),
    "switch-permutation": (
        lambda: switch(SeidelMatrixInt(golden.CONFERENCE_6), [1] * 6, [0.0, 1, 2, 3, 4, 5]),
        ValueError,
    ),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_CASES))
def test_non_integer_input_is_refused_not_truncated(name):
    call, outcome = NON_INTEGER_CASES[name]
    if outcome is ValueError:
        with pytest.raises(ValueError):
            call()
    else:
        assert call() is False


def test_to_standard_form_fixed_point():
    q = SeidelMatrixInt(golden.CONFERENCE_14)
    assert to_standard_form(q) == q


def test_to_standard_form_restores_switched_matrix():
    rng = np.random.default_rng(41)
    q = SeidelMatrixInt(golden.CONFERENCE_14)
    base = certify_two_eigenvalue(q)
    for _ in range(10):
        d = rng.choice([-1, 1], size=14)
        scrambled = switch(q, d.tolist())
        restored = to_standard_form(scrambled)
        assert (restored.a[0, 1:] == 1).all() and (restored.a[1:, 0] == 1).all()
        cert = certify_two_eigenvalue(restored)
        assert cert.params == base.params


def test_to_standard_form_eis():
    q = eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)
    rng = np.random.default_rng(43)
    units = [ONE, OMEGA, OMEGA2]
    d = [units[int(i)] for i in rng.integers(0, 3, size=9)]
    scrambled = switch(q, d)
    restored = to_standard_form(scrambled)
    assert (restored.a[0, 1:] == 1).all() and (restored.b[0, 1:] == 0).all()
    assert certify_two_eigenvalue(restored).params.k == 6


def test_is_hadamard():
    assert is_hadamard(np.array([[1, 1], [1, -1]]))
    g = direct_product(cyclic(4), cyclic(4))
    s = g.subset(["(1,0)", "(2,0)", "(3,0)", "(0,1)", "(0,2)", "(0,3)"])
    q = signature_matrix(g, s)
    assert is_hadamard(np.eye(16, dtype=np.int64) - q.a)
    # mu = 0 cases fail: (I-Q)^2 = (n+1)I - 2Q != nI
    q0 = golden.CONFERENCE_6
    assert not is_hadamard(np.eye(6, dtype=np.int64) - q0)


def test_is_conference():
    assert is_conference(golden.CONFERENCE_6)
    assert is_conference(golden.CONFERENCE_14)
    n = 6
    assert not is_conference(np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))


def test_symmetric_mu_zero_implies_conference():
    for n, s_idx in ((5, [1, 4]), (13, [1, 3, 4, 9, 10, 12]), (17, [1, 2, 4, 8, 9, 13, 15, 16])):
        g = cyclic(n)
        q = border_standard(signature_matrix(g, Subset.of(n, s_idx)))
        cert = certify_two_eigenvalue(q)
        assert cert.mu == 0
        assert is_conference(q.a)


def test_plus_minus_cover_has_seidel_shape():
    rng = np.random.default_rng(53)
    for g in (cyclic(9), quaternion8(), direct_product(cyclic(3), cyclic(3))):
        for _ in range(10):
            bits = int(rng.integers(0, 1 << (g.order - 1))) << 1
            coeffs = np.full(g.order, -1, dtype=np.int64)
            coeffs[0] = 0
            for x in Subset(g.order, bits):
                coeffs[x] = 1
            m = regrep_sum(g, coeffs)
            assert (np.diagonal(m) == 0).all()
            off = ~np.eye(g.order, dtype=bool)
            assert np.isin(m[off], (-1, 1)).all()


def test_hermitian_iff_closure_conditions():
    g = quaternion8()
    rng = np.random.default_rng(59)
    from frameforge import inverse_set

    for _ in range(40):
        digits = rng.integers(0, 3, size=7)
        s_idx = [i + 1 for i, d in enumerate(digits) if d == 0]
        t_idx = [i + 1 for i, d in enumerate(digits) if d == 1]
        s = Subset.of(8, s_idx)
        t = Subset.of(8, t_idx)
        v = full_nonidentity(8).difference(s).difference(t)
        m = build_cube_matrix(g, s, t)
        closed = inverse_set(g, s) == s and inverse_set(g, t) == v
        assert m.is_hermitian() == closed


def test_certificates_match_numeric_spectra():
    # independent oracle: a certified matrix must have exactly the two
    # eigenvalues lambda1 (multiplicity n-k) and lambda2 (multiplicity k)
    g64 = direct_product(cyclic(8), cyclic(8))
    half = [(1, 4), (1, 5), (1, 6), (1, 7), (2, 2), (2, 3), (2, 6), (2, 7),
            (3, 2), (3, 4), (3, 5), (3, 7), (4, 1), (4, 3)]
    labels = [f"({x},{y})" for x, y in half] + [f"({(-x) % 8},{(-y) % 8})" for x, y in half]
    corpus = [
        SeidelMatrixInt(golden.CONFERENCE_6),
        SeidelMatrixInt(golden.CONFERENCE_14),
        eis_from_tokens(golden.CUBE_ROOT_9_TOKENS),
        signature_matrix(
            direct_product(cyclic(4), cyclic(4)),
            direct_product(cyclic(4), cyclic(4)).subset(
                ["(1,0)", "(2,0)", "(3,0)", "(0,1)", "(0,2)", "(0,3)"]
            ),
        ),
        signature_matrix(g64, g64.subset(labels)),
    ]
    for q in corpus:
        cert = certify_two_eigenvalue(q)
        assert isinstance(cert, TwoEigenvalueCertificate)
        p = cert.params
        spectrum = np.linalg.eigvalsh(q.to_complex())
        expected = np.concatenate(
            [np.full(p.n - p.k, p.lambda1), np.full(p.k, p.lambda2)]
        )
        assert np.allclose(np.sort(spectrum), expected, atol=1e-9)


def test_rejected_symmetric_candidate_has_more_eigenvalues():
    data = golden.CONFERENCE_6.copy()
    data[1, 2] = -1
    data[2, 1] = -1
    q = SeidelMatrixInt(data)
    assert not isinstance(certify_two_eigenvalue(q), TwoEigenvalueCertificate)
    spectrum = np.sort(np.linalg.eigvalsh(q.a.astype(np.float64)))
    distinct = 1 + int(np.sum(np.diff(spectrum) > 1e-9))
    assert distinct > 2


@pytest.mark.parametrize("n", [9, 54, 300])
def test_exact_matmul_large_path_matches_direct(n):
    from frameforge.matrices import _exact_matmul

    rng = np.random.default_rng(61)
    m = rng.choice([-1, 1], size=(n, n)).astype(np.int64)
    np.fill_diagonal(m, 0)
    assert np.array_equal(_exact_matmul(m, m), m @ m)
    assert np.array_equal(_exact_matmul(m), m @ m.T)  # the symmetric product


def test_exact_matmul_falls_back_to_int64_past_the_float_bound():
    # entries up to 2**30 put n * max|x| * max|y| past 2**53, where float64
    # loses low bits; the product must still be exact
    from frameforge.matrices import _exact_matmul

    rng = np.random.default_rng(62)
    x = rng.integers(-(2 ** 30), 2 ** 30, size=(4, 4), dtype=np.int64)
    y = rng.integers(-(2 ** 30), 2 ** 30, size=(4, 4), dtype=np.int64)
    x[0, 0], y[0, 0] = 2 ** 30, -(2 ** 30)
    exact = (x.astype(object) @ y.astype(object)).astype(np.int64)
    rounded = np.rint(x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64)
    assert not np.array_equal(rounded, exact)
    assert np.array_equal(_exact_matmul(x, y), exact)
    assert np.array_equal(_exact_matmul(x), (x.astype(object) @ x.T.astype(object)).astype(np.int64))


def _object_product(x, y):
    return np.array([a.astype(object) @ b.astype(object) for a, b in zip(x, y)]).astype(np.int64)


@pytest.mark.parametrize("n, peak_x, peak_y", [(5, 819, 4097), (4, 2 ** 11, 2 ** 11)],
                         ids=["float32-2^24-1", "int64-2^24"])
def test_exact_matmul_at_the_tier_bound(n, peak_x, peak_y):
    # n * max|x| * max|y| sits on a tier bound; x @ y, x @ x.T and a
    # (B, n, n) stack must each equal the Python-integer product
    from frameforge.matrices import _exact_matmul

    rng = np.random.default_rng(n)
    x = rng.integers(-peak_x, peak_x + 1, size=(3, n, n), dtype=np.int64)
    y = rng.integers(-peak_y, peak_y + 1, size=(3, n, n), dtype=np.int64)
    x[:, 0, 0], y[:, 0, 0] = peak_x, -peak_y
    assert n * peak_x * peak_y in (2 ** 24 - 1, 2 ** 24)
    assert np.array_equal(_exact_matmul(x, y), _object_product(x, y))
    assert np.array_equal(_exact_matmul(x[0], y[0]), _object_product(x[:1], y[:1])[0])
    assert np.array_equal(_exact_matmul(x[0]), _object_product(x[:1], x[:1].transpose(0, 2, 1))[0])


def test_exact_matmul_leaves_float32_past_its_bound():
    # 4096^2 + 1 = 2^24 + 1 is the first integer float32 cannot hold
    from frameforge.matrices import _exact_matmul

    x = np.array([[4096, 1], [1, 4096]], dtype=np.int64)
    exact = np.array([[2 ** 24 + 1, 8192], [8192, 2 ** 24 + 1]])
    rounded = np.rint(x.astype(np.float32) @ x.astype(np.float32)).astype(np.int64)
    assert not np.array_equal(rounded, exact)
    assert np.array_equal(_exact_matmul(x, x), exact)
    assert np.array_equal(_exact_matmul(x), exact)


def test_certify_midsize_conference_matrix():
    # order 314 exercises the BLAS-backed exact product route
    from frameforge import generate, quasi_signature_matrix

    hit = [h for h in generate("thm511", 39, verify=False) if h.p == 313]
    assert hit
    q = quasi_signature_matrix(cyclic(313), Subset.of(313, hit[0].residues))
    cert = certify_two_eigenvalue(q)
    assert cert.mu == 0 and cert.params.k == 157
    assert is_conference(q.a)


def test_csv_json_round_trip_int():
    q = SeidelMatrixInt(golden.CONFERENCE_6)
    text = matrix_to_csv(q)
    assert text.splitlines()[0] == "0,1,1,1,1,1"
    back = matrix_from_json(matrix_to_json(q, mu=0))
    assert back == q


def test_csv_json_round_trip_eis():
    q = eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)
    back = matrix_from_json(matrix_to_json(q, mu=-2))
    assert back == q
    first = matrix_to_csv(q).splitlines()[1]
    assert first == "1,0,1,w,w2,w,w2,w,w2"


def test_regrep_sum_eis_layout():
    g = cyclic(3)
    # the omega circulant's components, one regrep_sum each
    a, b = regrep_sum(g, [0, 0, -1]), regrep_sum(g, [0, 1, -1])
    expected = eis_from_tokens(golden.OMEGA_CIRCULANT_3_TOKENS)
    assert np.array_equal(a, expected.a) and np.array_equal(b, expected.b)


def test_matrix_from_json_validates_grid():
    with pytest.raises(ValueError):
        matrix_from_json('{"n": 2, "entries": [["0", "1"]]}')
    with pytest.raises(ValueError):
        matrix_from_json('{"n": 2, "entries": [["0", "2"], ["2", "0"]]}')


def test_matrix_constructors_reject_bad_entries():
    with pytest.raises(ValueError):
        SeidelMatrixInt(np.array([[0, 2], [2, 0]]))
    with pytest.raises(ValueError):
        SeidelMatrixInt(np.array([[1, 1], [1, 1]]))
    a = np.array([[0, 2], [2, 0]])
    b = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        SeidelMatrixEis(a, b)


_SCHEMA_FAULTS = [  # (payload, the message it must raise, when one is pinned)
    ('{"n": 2, "entries": [["0", "1"], ["1", "q"]]}', None),    # unknown token
    ('{"n": 2, "entries": [["0", "1"], ["1", {}]]}', None),     # unhashable token
    ('{"n": 2, "entries": [["0", 1], [1, "0"]]}', None),        # integer 1 in place of "1"
    ('{"n": 2, "entries": [["0", "1"], ["1", null]]}', None),   # null cell
    ('{"n": 3, "entries": [["0", "1"], ["1", "0"]]}', None),    # grid smaller than n
    ('{"n": 1, "entries": [["0", "1"], ["1", "0"]]}', None),    # grid larger than n
    ('{"n": 0, "entries": []}', None),                          # empty matrix
    ('{"n": 2, "entries": [["1", "1"], ["1", "0"]]}', None),    # non-zero diagonal
    # a JSON true is a Python int; it must not pass as the size 1
    ('{"n": true, "entries": [["0"]]}', "positive integer"),
]


@pytest.mark.parametrize(
    "text, match", _SCHEMA_FAULTS, ids=[text for text, _ in _SCHEMA_FAULTS]
)
def test_matrix_from_json_schema_faults_are_value_errors(text, match):
    with pytest.raises(ValueError, match=match):
        matrix_from_json(text)


_TOKEN_CELLS = st.sampled_from(["0", "1", "-1", "w", "w2"])
_JUNK_CELLS = st.one_of(
    _TOKEN_CELLS, st.integers(-2, 2), st.floats(allow_nan=True), st.none(), st.booleans(),
    st.text(max_size=3), st.lists(_TOKEN_CELLS, max_size=2),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def _matrix_payloads(draw):
    """Square or ragged grids of tokens and junk, with a true or a wrong n."""
    size = draw(st.integers(0, 5))
    cells = _TOKEN_CELLS if draw(st.booleans()) else _JUNK_CELLS
    rows = draw(st.lists(
        st.lists(cells, min_size=size, max_size=size) | st.lists(cells, max_size=6),
        min_size=size, max_size=size,
    ))
    n = draw(st.sampled_from([size, size + 1, size - 1, -size, float(size), str(size), None]))
    return json.dumps({"n": n, "entries": rows})


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matrix_payloads(), _JSON_VALUES.map(json.dumps)))
def test_matrix_from_json_parses_or_raises_value_error(text):
    try:
        q = matrix_from_json(text)
    except ValueError:
        return
    assert isinstance(q, (SeidelMatrixInt, SeidelMatrixEis))
    assert q.n == json.loads(text)["n"]


def _reference_tokens(q):
    """The per-cell serialisation: one unit_to_token call per cell."""
    if isinstance(q, SeidelMatrixInt):
        return [[unit_to_token(EisensteinInt(int(v), 0)) for v in row] for row in q.a]
    return [[unit_to_token(q.entry(i, j)) for j in range(q.n)] for i in range(q.n)]


def _random_seidel(rng, n, eisenstein):
    if not eisenstein:
        data = rng.choice([-1, 1], size=(n, n))
        np.fill_diagonal(data, 0)
        return SeidelMatrixInt(data)
    units = np.array([(1, 0), (0, 1), (-1, -1)])[rng.integers(0, 3, size=(n, n))]
    a, b = units[..., 0], units[..., 1]
    np.fill_diagonal(a, 0)
    np.fill_diagonal(b, 0)
    return SeidelMatrixEis(a, b)


@pytest.mark.parametrize("eisenstein", [False, True], ids=["int", "eisenstein"])
def test_serialisation_matches_per_cell_reference(eisenstein):
    rng = np.random.default_rng(7 + eisenstein)
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 40, 211]:
        for _ in range(3 if n < 200 else 1):
            q = _random_seidel(rng, n, eisenstein)
            tokens = _reference_tokens(q)
            assert matrix_to_csv(q) == "\n".join(",".join(row) for row in tokens) + "\n"
            for mu in (None, 0, -2):  # the CLI writes mu = 0
                text = matrix_to_json(q, mu=mu)
                payload = {"n": n, "entries": tokens, **({} if mu is None else {"mu": mu})}
                assert text == json.dumps(payload, sort_keys=True)
                # a matrix without an omega cell reads back as an integer matrix
                back = matrix_from_json(text)
                if isinstance(q, SeidelMatrixEis) and not q.b.any():
                    assert back == SeidelMatrixInt(q.a)
                else:
                    assert back == q


def test_cell_tokens_need_no_json_escaping():
    # matrix_to_json joins the tokens into JSON text without json.dumps
    assert all(json.dumps(token) == f'"{token}"' for token in CELL_TOKENS)


def test_json_mu_goes_through_json_dumps():
    q = SeidelMatrixInt([[0, 1], [1, 0]])
    assert matrix_to_json(q, mu=1.5) == json.dumps(
        {"n": 2, "entries": [["0", "1"], ["1", "0"]], "mu": 1.5}, sort_keys=True
    )
    with pytest.raises(TypeError):
        matrix_to_json(q, mu=object())


def _reference_from_json(text):
    """The json.loads decoder: one dict lookup per cell of the parsed grid."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("matrix JSON nests too deeply") from None
    if not isinstance(payload, dict) or "entries" not in payload or "n" not in payload:
        raise ValueError("matrix JSON must be an object with 'n' and 'entries'")
    entries, n = payload["entries"], payload["n"]
    if type(n) is not int or n < 1 or not isinstance(entries, list) or not all(
        isinstance(row, list) for row in entries
    ):
        raise ValueError("'n' must be a positive integer and 'entries' a list of rows")
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("entry grid does not match declared size")
    code = {token: i for i, token in enumerate(CELL_TOKENS)}
    try:
        cells = np.array([code[token] for row in entries for token in row]).reshape(n, n)
    except KeyError as exc:
        raise ValueError(f"unknown Eisenstein cell token {exc.args[0]!r}") from None
    except TypeError:
        raise ValueError("matrix cells must be token strings") from None
    units = [unit_from_token(token) for token in CELL_TOKENS]
    b = np.array([z.b for z in units])[cells]
    a = np.array([z.a for z in units])[cells]
    return SeidelMatrixEis(a, b) if b.any() else SeidelMatrixInt(a)


def _assert_reads_like_reference(text):
    try:
        want = _reference_from_json(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            matrix_from_json(text)
        assert str(got.value) == str(exc)
    else:
        got = matrix_from_json(text)
        assert type(got) is type(want) and got == want


@st.composite
def _emitted_texts(draw):
    """The layout matrix_to_json writes, a diagonal of "0" not always
    among it: json.dumps of a token grid with sorted keys."""
    n = draw(st.integers(1, 11))  # past two 4-cell words, with every tail width
    tokens = draw(st.sampled_from([("1", "-1"), ("1", "w", "w2"), CELL_TOKENS]))
    zero_diagonal = draw(st.booleans())
    rows = [[draw(st.sampled_from(tokens)) for _ in range(n)] for _ in range(n)]
    for i in range(n if zero_diagonal else 0):
        rows[i][i] = "0"
    payload = {"n": n, "entries": rows}
    mu = draw(st.sampled_from([None, 0, -2, 5]))
    if mu is not None:
        payload["mu"] = mu
    return json.dumps(payload, sort_keys=True) + draw(st.sampled_from(["", "\n"]))


@st.composite
def _mutated_emissions(draw):
    """An emitted text with one character replaced, inserted or deleted."""
    text = draw(_emitted_texts())
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(list('"[], 0125-wmnu:{}\n\\q') + ["\ud800", "\u00e9"]))
    return draw(st.sampled_from([
        text[:i] + char + text[i + 1:], text[:i] + char + text[i:], text[:i] + text[i + 1:],
    ]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _matrix_payloads().map(lambda text: json.dumps(json.loads(text), sort_keys=True)),
    _emitted_texts(),
    _mutated_emissions(),
))
def test_matrix_from_json_matches_the_json_loads_reference(text):
    _assert_reads_like_reference(text)


_EMITTED = matrix_to_json(SeidelMatrixInt(golden.CONFERENCE_6), mu=0)
_EMITTED_EIS = matrix_to_json(eis_from_tokens(golden.CUBE_ROOT_9_TOKENS), mu=-2)
_TARGETED = {
    "indent=1": json.dumps(json.loads(_EMITTED), indent=1),
    "unquoted 1": _EMITTED.replace('"1"', "1", 1),
    "-1 in an omega matrix": _EMITTED_EIS.replace('"w"', '"-1"', 1),
    "escaped token": _EMITTED.replace('"0"', '"\\u0030"', 1),
    "duplicate n": _EMITTED.replace('"n": 6}', '"n": 6, "n": 6}'),
    "n twice, the first wrong": _EMITTED.replace('"n": 6}', '"n": 5, "n": 6}'),
    "float mu": _EMITTED.replace('"mu": 0', '"mu": 0.0'),
    "bool mu": _EMITTED.replace('"mu": 0', '"mu": false'),
    "null mu": _EMITTED.replace('"mu": 0', '"mu": null'),
    "missing mu": _EMITTED.replace('"mu": 0, ', ""),
    "keys reordered": _EMITTED.replace('"mu": 0, "n": 6', '"n": 6, "mu": 0'),
    "extra key after": _EMITTED[:-1] + ', "x": "]], "}',
    "extra key before": _EMITTED.replace('"mu"', '"a": "]], ", "mu"'),
    # the last "]], " closes the extra key, and the cells' quotes still count 36
    "extra key posing as the end": _EMITTED.replace(', "0"]], "mu"', ']], "a": [[]], "mu"'),
    "trailing spaces": _EMITTED + "  ",
    "two newlines": _EMITTED + "\n\n",
    "newline then space": _EMITTED + "\n ",
    "lone surrogate": _EMITTED[:-1] + ', "x": "\ud800"}',
    "escaped lone surrogate": _EMITTED[:-1] + ', "x": "\\ud800"}',
    "non-zero diagonal": _EMITTED.replace('"0"', '"1"', 1),
    "true n": '{"entries": [["0"]], "n": true}',
    "empty row": '{"entries": [[]], "n": 1}',
    "omega matrix": _EMITTED_EIS + "\n",
}


@pytest.mark.parametrize("text", list(_TARGETED.values()), ids=list(_TARGETED))
def test_matrix_from_json_matches_the_reference_on_near_misses(text):
    _assert_reads_like_reference(text)


@pytest.mark.parametrize("text, emitted", [
    (_EMITTED, True), (_EMITTED + "\n", True), (_EMITTED_EIS, True),
    (matrix_to_json(SeidelMatrixInt(golden.CONFERENCE_6)), True),
    (_TARGETED["indent=1"], False), (_TARGETED["float mu"], False),
    (_TARGETED["two newlines"], False), (_TARGETED["duplicate n"], False),
])
def test_only_emitted_text_is_read_from_its_bytes(monkeypatch, text, emitted):
    def refuse(text):
        raise AssertionError("json.loads path taken")

    monkeypatch.setattr(matrices, "_loaded_cells", refuse)
    if emitted:
        assert matrix_from_json(text) == _reference_from_json(text)
    else:
        with pytest.raises(AssertionError, match="json.loads path"):
            matrix_from_json(text)


def _every_word_grid(n):
    """An (n, n) code grid, n >= 625, whose rows spell each of the 5^4 words
    of 4 cells in each whole-word slot (word s of row r is (r + s) % 625,
    its first cell the top base-5 digit) and each tail word of n % 4 cells."""
    r = np.arange(n)[:, None]
    words = (r + np.arange(n // 4)) % 625
    tail = n % 4
    cells = np.hstack([
        (words[..., None] // 5 ** np.arange(3, -1, -1) % 5).reshape(n, -1),
        r % 5 ** tail // 5 ** np.arange(tail - 1, -1, -1) % 5,
    ]).astype(np.int8)
    assert cells.shape == (n, n)
    return cells


@pytest.mark.parametrize("n", [628, 629, 630, 631], ids=lambda n: f"n%4={n % 4}")
def test_every_word_in_every_slot_is_written_and_read_back(monkeypatch, n):
    def refuse(text):
        raise AssertionError("json.loads path taken")

    monkeypatch.setattr(matrices, "_loaded_cells", refuse)
    cells = _every_word_grid(n)
    tokens = np.array(CELL_TOKENS, dtype=object)[cells].tolist()
    rows = (row for block in matrices._word_rows(cells, ",") for row in block)
    assert [",".join(row) for row in rows] == [",".join(row) for row in tokens]
    for mu in (None, -7):
        text = "".join(matrices._json_chunks(cells, mu))
        payload = {"n": n, "entries": tokens, **({} if mu is None else {"mu": mu})}
        assert text == json.dumps(payload, sort_keys=True)
        assert np.array_equal(matrices._emitted_cells(text), cells)
        # read from its bytes, then refused as a Seidel matrix by its diagonal
        with pytest.raises(ValueError, match="diagonal entries must be"):
            matrix_from_json(text)


def _whole_identity_mu(a, b, sq_a, sq_b):
    """The identity test with (n-1)I + mu*Q formed whole, as the blocked
    `matrices._identity_mu` must read: a mu or a Rejection's text per matrix."""
    n = a.shape[-1]
    a01, b01, sq_a01, sq_b01 = (x[:, 0, 1] if x.ndim else x for x in (a, b, sq_a, sq_b))
    mu, mu_b = eis_product(sq_a01, sq_b01, a01 - b01, -b01, np.multiply)
    exp_a, exp_b = mu[:, None, None] * a, mu[:, None, None] * b
    exp_a[:, np.arange(n), np.arange(n)] = n - 1
    off = (sq_a != exp_a) | (sq_b != exp_b)
    out = []
    for k, (m, m_b) in enumerate(zip(mu.tolist(), np.broadcast_to(mu_b, mu.shape).tolist())):
        if m_b:
            out.append(f"mu-not-real: entry (0,1) gives mu = {EisensteinInt(m, m_b)}")
        elif off[k].any():
            i, j = divmod(int(off[k].argmax()), n)
            got, need = (EisensteinInt(int(x[k, i, j]), int(np.broadcast_to(y, x.shape)[k, i, j]))
                         for x, y in ((sq_a, sq_b), (exp_a, exp_b)))
            out.append(f"not-two-eigenvalue: entry ({i},{j}): got {got}, need {need} for mu={m}")
        else:
            out.append(m)
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 150), st.integers(1, 4), st.booleans())
def test_blocked_identity_reads_as_the_whole_array_form(seed, n, count, eisenstein):
    # D (J - I) D* satisfies the identity with mu = n - 2 for a diagonal D of
    # cube roots; a few changed entries move the first entry that is off
    rng = np.random.default_rng(seed)
    roots = np.array([(1, 0), (0, 1), (-1, -1)])
    da, db = roots[rng.integers(0, 3 if eisenstein else 1, (count, n))].transpose(2, 0, 1)
    a, b = eis_product(da[:, :, None], db[:, :, None], (da - db)[:, None], -db[:, None], np.multiply)
    a[:, np.arange(n), np.arange(n)] = b[:, np.arange(n), np.arange(n)] = 0
    for k in range(count):
        for _ in range(rng.integers(0, 3)):
            i, j = rng.integers(0, n, 2)
            a[k, i, j] += rng.integers(-2, 3)
            b[k, i, j] += rng.integers(-1, 2) if eisenstein else 0
    sq_a, sq_b = eis_product(a, b, a, b, np.matmul)
    for k in range(count):  # a changed Q moves row 0 of Q^2: change Q^2 alone too
        for _ in range(rng.integers(0, 3)):
            i, j = rng.integers(0, n, 2)
            sq_a[k, i, j] += rng.integers(-2, 3)
            sq_b[k, i, j] += rng.integers(-1, 2) if eisenstein else 0
    stacks = [(a, b, sq_a, sq_b), tuple(np.asfortranarray(x) for x in (a, b, sq_a, sq_b))]
    if not eisenstein:  # an integer Q's omega parts are the scalar 0
        stacks.append((a, np.zeros((), np.int64), sq_a, np.zeros((), np.int64)))
    for stack in stacks:
        got = [str(r) if isinstance(r, Rejection) else r for r in matrices._identity_mu(*stack)]
        assert got == _whole_identity_mu(*stack)


def test_identity_names_an_entry_past_the_first_row_block():
    # a changed entry of Q moves row 0 of Q^2 as well, so the square is changed
    hit = next(h for h in generate("thm59", 21, verify=False) if h.m == 21)
    q = quasi_signature_matrix(cyclic(hit.p), Subset.of(hit.p, hit.residues))  # n = 174
    zero = np.zeros((), np.int64)
    sq = SeidelMatrixInt.square(q)[None]
    assert matrices._identity_mu(q.a[None], zero, sq, zero) == [0]
    for i, j in ((150, 100), (64, 0), (173, 173), (63, 173)):
        bad = sq.copy()
        bad[0, i, j] += 3
        got = matrices._identity_mu(q.a[None], zero, bad, zero)
        assert str(got[0]) == _whole_identity_mu(q.a[None], zero, bad, zero)[0]
        assert str(got[0]).startswith(f"not-two-eigenvalue: entry ({i},{j}): ")


def _check_as_whole(cls, a, b=0):
    """SeidelMatrix.check with every test on the int64 components, as the
    narrow-dtype tests must decide."""
    a, b = matrices._integer_array(a), matrices._integer_array(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape not in ((), a.shape):
        raise ValueError("matrix components must be square and congruent")
    if a.diagonal().any() or np.broadcast_to(b, a.shape).diagonal().any():
        raise ValueError("diagonal entries must be 0")
    unit = np.logical_or.reduce([(a == z.a) & (b == z.b) for z in cls.UNITS])
    np.fill_diagonal(unit, True)
    if not unit.all():
        raise ValueError(f"off-diagonal entries must be {cls.UNITS_TEXT}")
    return a, b if any(z.b for z in cls.UNITS) else np.zeros((), dtype=np.int64)


def _outcome(check, *args):
    try:
        return [x.tolist() for x in check(*args)]
    except ValueError as exc:
        return str(exc)


_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([SeidelMatrixInt, SeidelMatrixEis]), st.sampled_from(_DTYPES),
       st.sampled_from(_DTYPES + [None]), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_check_decides_on_the_callers_dtype_as_on_int64(cls, a_dtype, b_dtype, n, seed):
    # units off the diagonal (-1 is 255 in uint8 and 2**64 - 1 in uint64),
    # then now and then one entry set to a value each dtype wraps differently;
    # b_dtype None passes b = 0
    rng = np.random.default_rng(seed)
    units = np.array([(z.a, z.b) for z in cls.UNITS])
    a, b = units[rng.integers(0, len(units), (n, n + (rng.random() < 0.05)))].transpose(2, 0, 1)
    np.fill_diagonal(a, 0)
    np.fill_diagonal(b, 0)
    if n and rng.random() < 0.5:
        part = a if rng.random() < 0.7 else b
        part[rng.integers(0, n), rng.integers(0, part.shape[1])] = rng.choice([0, 2, -2, 256, -129, 1, -1])
    a = a.astype(a_dtype)
    b = 0 if b_dtype is None else b.astype(b_dtype)
    assert _outcome(cls.check, a, b) == _outcome(_check_as_whole, cls, a, b)
