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
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    quaternion8,
    regrep_sum,
    signature_matrix,
    switch,
    to_standard_form,
)
from frameforge.eisenstein import OMEGA, OMEGA2, ONE, EisensteinInt, unit_to_token
from frameforge.verdicts import Rejection


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
        v = Subset.full_nonidentity(8).difference(s).difference(t)
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
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 40]:
        for _ in range(3):
            q = _random_seidel(rng, n, eisenstein)
            tokens = _reference_tokens(q)
            assert matrix_to_csv(q) == "\n".join(",".join(row) for row in tokens) + "\n"
            for mu in (None, -2):
                text = matrix_to_json(q, mu=mu)
                payload = {"n": n, "entries": tokens, **({} if mu is None else {"mu": mu})}
                assert text == json.dumps(payload, sort_keys=True)
                # a matrix without an omega cell reads back as an integer matrix
                back = matrix_from_json(text)
                if isinstance(q, SeidelMatrixEis) and not q.b.any():
                    assert back == SeidelMatrixInt(q.a)
                else:
                    assert back == q
