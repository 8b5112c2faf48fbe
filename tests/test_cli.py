import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameforge import cli, generators, parse_group
from frameforge.cli import main, split_labels
from frameforge.frames import frame_from_matrix
from frameforge.matrices import SeidelMatrixInt, matrix_from_json, matrix_to_json
from frameforge.verdicts import Rejection


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_split_labels():
    assert split_labels("1,2,3") == ["1", "2", "3"]
    assert split_labels("(1,0),(0,1)") == ["(1,0)", "(0,1)"]
    assert split_labels(" i , -i ") == ["i", "-i"]
    assert split_labels("") == []
    with pytest.raises(ValueError):
        split_labels("(1,0),(0,1")


@pytest.mark.parametrize("text", ["1,,4", "1,4,", ",1", " , ", "1,1,4", "(1,0),(0,1),(1,0)"])
def test_split_labels_refuses_empty_and_repeated_labels(text):
    with pytest.raises(ValueError, match="empty label|repeated"):
        split_labels(text)
    assert split_labels(" ") == []


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "C5", "--set", "1,,4"],
    ["verify", "--group", "C5", "--set", "1,1,4"],
    ["cube-verify", "--group", "Q8", "--s=-1", "--t", "i,j,i"],
    ["cube-verify", "--group", "Q8", "--s=-1,", "--t", "i,j,k"],
    ["diffset", "--group", "C11", "--set", "1,3,4,5,9,9"],
])
def test_an_empty_or_repeated_label_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_c4xc4(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--group", "C4xC4",
        "--set", "(1,0),(2,0),(3,0),(0,1),(0,2),(0,3)",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["n"] == 16
    assert payload["k"] == 6 and payload["mu"] == 2
    assert payload["group"] == "C4xC4"


def test_verify_rejects_odd_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "C9", "--set", "1,2")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert "odd-order" in payload["reason"]


def test_verify_quasi(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "C5", "--set", "1,4", "--quasi")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["k"] == 3


def test_verify_output_is_sorted_and_stable(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--group", "C5", "--set", "1,4", "--quasi")
    code2, out2, _ = run_cli(capsys, "verify", "--group", "C5", "--set", "4,1", "--quasi")
    assert out1 == out2
    keys = list(json.loads(out1).keys())
    assert keys == sorted(keys)


def test_diffset(capsys):
    code, out, _ = run_cli(capsys, "diffset", "--group", "C11", "--set", "1,3,4,5,9")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 11 and payload["k"] == 5 and payload["lambda"] == 2


def test_diffset_rejects_a_non_difference_set(capsys):
    code, out, err = run_cli(capsys, "diffset", "--group", "C7", "--set", "1,2")
    assert code == 1 and err == ""
    assert out == (
        '{"group": "C7", "reason": "non-constant-differences: element 2 arises 0 times, '
        'others 1: witness=2", "valid": false}\n'
    )


def test_diffset_to_signature(capsys):
    code, out, _ = run_cli(
        capsys, "diffset", "--group", "C4xC4",
        "--set", "(1,0),(2,0),(3,0),(0,1),(0,2),(0,3)", "--to-signature",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hadamard_family"] and payload["reversible"]
    assert payload["signature"]["k"] == 6


@pytest.mark.parametrize("descriptor", ["C1", "C1xC1", "Zmult2"])
@pytest.mark.parametrize("members", ["", "identity"])
def test_diffset_to_signature_on_order_one_is_a_rejection(capsys, descriptor, members):
    identity = parse_group(descriptor).labels[0]
    code, out, _ = run_cli(
        capsys, "diffset", "--group", descriptor,
        "--set", identity if members else "", "--to-signature",
    )
    assert code == 1
    (line,) = out.splitlines()
    payload = json.loads(line)
    assert payload["valid"] and payload["signature"]["valid"] is False
    assert payload["signature"]["reason"].startswith("odd-order")


def test_cube_verify_quaternion(capsys):
    code, out, _ = run_cli(
        capsys, "cube-verify", "--group", "Q8", "--s", "-1", "--t", "i,j,k", "--quasi",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == -2 and payload["n"] == 9 and payload["k"] == 6


def test_cube_verify_reject(capsys):
    code, out, _ = run_cli(
        capsys, "cube-verify", "--group", "Q8", "--s", "-1", "--t", "i,j,k",
    )
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_search_jsonl(capsys):
    code, out, _ = run_cli(capsys, "search", "--group", "C5", "--kind", "quasi")
    assert code == 0
    lines = out.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert [p["s"] for p in payloads] == [["1", "4"], ["2", "3"]]


def test_search_empty_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--group", "C9", "--kind", "cube-pair", "--mu", "-2",
    )
    assert code == 1
    assert out.strip() == ""


@pytest.mark.parametrize("group, kind", [("C127", "quasi"), ("C81", "cube-pair")])
def test_search_past_int64_codes_is_a_usage_error(capsys, monkeypatch, group, kind):
    # 2^63 or 3^40 candidates: refused before the scan starts, which
    # unrefused would never end
    def no_scan(group):
        raise AssertionError("the candidate scan started")

    for name in ("enumerate_inverse_closed", "cube_candidates"):
        monkeypatch.setattr(sys.modules["frameforge.search"], name, no_scan)
    code, out, err = run_cli(capsys, "search", "--group", group, "--kind", kind, "--force")
    assert code == 2 and out == ""
    assert "int64" in err


def test_tables_text(capsys):
    code, out, _ = run_cli(capsys, "tables", "--algorithm", "thm59", "--max-m", "4")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[0] == ["0", "(6,", "3)"]
    assert len(rows) == 4


def test_tables_json_with_sets(capsys):
    code, out, _ = run_cli(
        capsys, "tables", "--algorithm", "thm511", "--max-m", "2", "--json", "--emit-sets",
    )
    assert code == 0
    payload = json.loads(out.strip().splitlines()[0])
    assert payload["m"] == 2 and payload["n"] == 18
    assert payload["set"] == [1, 2, 4, 8, 9, 13, 15, 16]


def test_tables_text_with_sets(capsys):
    code, out, err = run_cli(capsys, "tables", "--algorithm", "thm59", "--max-m", "3", "--emit-sets")
    assert code == 0 and err == ""
    assert out == (  # m = 2 gives p = 21, which is not prime
        "   0  (6, 3)  {1,4}\n"
        "   1  (14, 7)  {1,3,4,9,10,12}\n"
        "   3  (30, 15)  {1,4,5,6,7,9,13,16,20,22,23,24,25,28}\n"
    )


def test_tables_emit_matrix_without_a_hit_exits_1(capsys):
    # p = 8*2 + 5 = 21 is not prime, so m = 2 has no row
    code, out, err = run_cli(
        capsys, "tables", "--algorithm", "thm59", "--max-m", "10", "--emit-matrix", "2",
    )
    assert code == 1 and out == ""
    assert err == "no hit at m=2\n"


@pytest.mark.parametrize("m", ["-2", "-1"])
def test_tables_negative_emit_matrix_is_a_usage_error(capsys, m):
    code, out, err = run_cli(
        capsys, "tables", "--algorithm", "thm59", "--max-m", "3", "--emit-matrix", m,
    )
    assert (code, out) == (2, "")
    assert err == f"error: --emit-matrix must be non-negative, got {m}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "C5", "--set", "1,4", "--quasi"],
    ["cube-verify", "--group", "Q8", "--s=-1", "--t=i,j,k", "--quasi"],
])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_emit_matrix_to_an_unwritable_path_prints_no_verdict(tmp_path, capsys, argv, where):
    path = tmp_path / "missing" / "m.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--emit-matrix", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # a rejected verdict writes no matrix, so the path is never opened
    code, out, err = run_cli(capsys, "verify", "--group", "C9", "--set", "1,2",
                             "--emit-matrix", str(path))
    assert code == 1 and not json.loads(out)["valid"] and err == ""


def test_tables_emit_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "tables", "--algorithm", "thm59", "--max-m", "0", "--emit-matrix", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["mu"] == 0


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_tables_certifies_every_listed_row(capsys, monkeypatch, extra):
    monkeypatch.setattr(
        generators, "verify_quasi_signature_set",
        lambda group, s: Rejection("count-mismatch-on-s"),
    )
    code, out, err = run_cli(capsys, "tables", "--algorithm", "thm59", "--max-m", "4", *extra)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "count-mismatch-on-s" in err


def test_frame_pipeline(tmp_path, capsys):
    matrix_path = tmp_path / "matrix.json"
    vectors_path = tmp_path / "vectors.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--group", "C5", "--set", "1,4", "--quasi",
        "--emit-matrix", str(matrix_path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "frame", "--from", str(matrix_path), "--out", str(vectors_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["valid"] and report["n"] == 6 and report["k"] == 3
    rows = vectors_path.read_text().strip().splitlines()
    assert len(rows) == 6
    assert len(rows[0].split(",")) == 6  # 3 components as re,im pairs


def assert_same_lines(got, want):
    """got == want, reporting the first line that differs: a diff of two
    whole vector files would take pytest minutes."""
    if got != want:
        pairs = enumerate(zip(got.splitlines(), want.splitlines()))
        row = next((row for row, (line, expected) in pairs if line != expected), None)
        pytest.fail("the line counts or line ends differ" if row is None else f"row {row} differs")


def _per_cell_csv(vectors):
    """The vector file written one cell at a time, as re,im pairs."""
    lines = []
    for row in np.asarray(vectors, dtype=np.complex128):
        cells = []
        for z in row:
            cells.append(format(z.real + 0.0, ".12g"))  # drop negative zero
            cells.append(format(z.imag + 0.0, ".12g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("emit", [
    ["tables", "--algorithm", "thm59", "--max-m", "3", "--emit-matrix", "3"],
    ["tables", "--algorithm", "thm59", "--max-m", "21", "--emit-matrix", "21"],  # n = 174
    ["tables", "--algorithm", "thm59", "--max-m", "99", "--emit-matrix", "99"],  # n = 798
    ["cube-verify", "--group", "Q8", "--s", "-1", "--t", "i,j,k", "--quasi", "--emit-matrix"],
], ids=["thm59_m3", "thm59_m21", "thm59_m99", "q8_cube"])
def test_frame_vector_file(tmp_path, capsys, emit):
    matrix_path = tmp_path / "matrix.json"
    vectors_path = tmp_path / "vectors.csv"
    if emit[0] == "tables":
        code, out, _ = run_cli(capsys, *emit)
        matrix_path.write_text(out)
    else:
        code, out, _ = run_cli(capsys, *emit, str(matrix_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "frame", "--from", str(matrix_path), "--out", str(vectors_path))
    assert code == 0
    report = json.loads(out)
    text = vectors_path.read_text()
    rows = [line.split(",") for line in text.splitlines()]
    assert len(rows) == report["n"]
    assert all(len(row) == 2 * report["k"] for row in rows)
    imaginary = {cell for row in rows for cell in row[1::2]}
    if emit[0] == "tables":  # a real frame: every imaginary cell is 0
        assert imaginary == {"0"}
    else:
        assert imaginary != {"0"}
    frame, _, _ = frame_from_matrix(matrix_from_json(matrix_path.read_text()))
    assert_same_lines(text, _per_cell_csv(frame.vectors))
    assert "-0," not in text and "-0\n" not in text


def _row_template_csv(v):
    """The vector file as a row template wrote it: "%.12g" per cell, one
    template per row, + 0.0 to drop negative zero, "0" for a real frame's
    imaginary cells."""
    real = not np.iscomplexobj(v)
    line = ",".join(["%.12g,0" if real else "%.12g,%.12g"] * v.shape[1]) + "\n"
    cells = v if real else np.ascontiguousarray(v, np.complex128).view(np.float64)
    return "".join(line % tuple(row) for row in (cells + 0.0).tolist()).encode()


def assert_written_as_row_template(values, rows, complex_):
    """Lay the float64 values out as `rows` rows, as re,im pairs when
    complex_, and write them both ways."""
    v = np.asarray(values, np.float64).reshape(rows, -1)
    v = v.view(np.complex128) if complex_ else v
    fh = io.BytesIO()
    cli._write_vectors(fh, v)
    assert_same_lines(fh.getvalue(), _row_template_csv(v))


_LAYOUTS = [(1, False), (1, True), (8, False), (8, True)]  # one row and many, real and complex


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 2 ** 64 - 1), max_size=24),
       st.sampled_from(_LAYOUTS))
def test_vector_writer_matches_the_row_template_on_random_cells(seed, bits, layout):
    rows, complex_ = layout
    rng = np.random.default_rng(seed)
    count = 16 * rows
    pool = np.concatenate([
        np.array(bits, np.uint64).view(np.float64),                # raw bit patterns
        rng.normal(0, 0.05, count),                                # frame-like entries
        rng.normal(size=count) * 10.0 ** rng.integers(-30, 31, count),
    ])
    assert_written_as_row_template(rng.choice(pool, count), rows, complex_)


def _decimals(rng, count, digits, last=""):
    """Decimals of `digits` significant digits, then the digit string `last`,
    from about 10^-300 to 10^40, read as the nearest float64."""
    lead = rng.integers(10 ** (digits - 1), 10 ** digits, count)
    exponent = rng.integers(-300, 30, count)
    return [float(f"{m}{last}e{k}") for m, k in zip(lead.tolist(), exponent.tolist())]


@pytest.mark.parametrize("rows, complex_", _LAYOUTS)
def test_vector_writer_matches_the_row_template_on_hard_cells(rows, complex_):
    rng = np.random.default_rng(rows + 2 * complex_)
    # up to 12 digits, so that trailing zeros fill whole 4-digit groups
    exact = sum((_decimals(rng, 400, digits) for digits in range(1, 13)), [])
    # 13 digits ending in 5: halfway between two 12-digit strings, up to the
    # float64 rounding of the decimal itself
    ties = _decimals(rng, 4000, 12, "5")
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e-290, np.nextafter(1e-290, 0), 1.0, np.nextafter(1.0, 0)]
    for values in (exact, ties, near, special):
        values = np.concatenate([values, np.negative(values)])
        values = np.resize(values, -(-len(values) // (2 * rows)) * 2 * rows)  # whole rows
        assert_written_as_row_template(values, rows, complex_)


def test_vector_writer_spans_blocks_and_long_rows():
    rng = np.random.default_rng(7)
    assert_written_as_row_template(rng.normal(0, 0.05, 3 * cli._CELLS + 100), 1, False)
    assert_written_as_row_template(rng.normal(0, 0.05, 6 * cli._CELLS), 96, True)


@pytest.mark.parametrize("emit", [
    ["tables", "--algorithm", "thm59", "--max-m", "6", "--emit-matrix", "6"],  # n = 54
    ["cube-verify", "--group", "Q8", "--s", "-1", "--t", "i,j,k", "--quasi", "--emit-matrix"],
], ids=["thm59_m6", "q8_cube"])
def test_frame_reads_emitted_and_reindented_json_alike(tmp_path, capsys, emit):
    emitted = tmp_path / "matrix.json"
    if emit[0] == "tables":
        code, out, _ = run_cli(capsys, *emit)
        emitted.write_text(out)
    else:
        code, out, _ = run_cli(capsys, *emit, str(emitted))
    assert code == 0
    text = emitted.read_text()
    reindented = tmp_path / "indented.json"
    reindented.write_text(json.dumps(json.loads(text), indent=2))
    results = []
    for path in (emitted, reindented):
        vectors = path.with_suffix(".csv")
        results.append((*run_cli(capsys, "frame", "--from", str(path), "--out", str(vectors)),
                        vectors.read_bytes()))
    assert results[0] == results[1] and results[0][0] == 0
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"1"', '"q"', 1))
    assert run_cli(capsys, "frame", "--from", str(bad)) == (
        2, "", "error: unknown Eisenstein cell token 'q'\n"
    )


@pytest.mark.parametrize("declared", [7, 1, None])
def test_frame_ignores_the_declared_mu(tmp_path, capsys, declared):
    # the certificate is authoritative: J - I of order 3 has mu = 1 whatever
    # the file says, and the file is read for the type of its "mu" alone
    q = SeidelMatrixInt(np.ones((3, 3), np.int64) - np.eye(3, dtype=np.int64))
    path = tmp_path / "j3.json"
    path.write_text(matrix_to_json(q, mu=declared) + "\n")
    code, out, err = run_cli(capsys, "frame", "--from", str(path))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert {key: payload[key] for key in ("mu", "n", "k", "valid")} == {
        "mu": 1, "n": 3, "k": 1, "valid": True,
    }


def test_frame_rejects_a_matrix_with_more_than_two_eigenvalues(tmp_path, capsys):
    # eigenvalues -sqrt(5), -1, 1, sqrt(5)
    path = tmp_path / "matrix.json"
    path.write_text(
        '{"n": 4, "entries": [["0", "1", "1", "1"], ["1", "0", "1", "-1"], '
        '["1", "1", "0", "1"], ["1", "-1", "1", "0"]]}'
    )
    code, out, err = run_cli(capsys, "frame", "--from", str(path))
    assert code == 1 and err == ""
    assert out == (
        '{"reason": "not-two-eigenvalue: entry (0,2): got 2, need 0 for mu=0", '
        '"valid": false}\n'
    )


def test_frame_below_float_resolution_is_a_factor_gram_rejection(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    code, out, _ = run_cli(
        capsys, "tables", "--algorithm", "thm59", "--max-m", "0", "--emit-matrix", "0",
    )
    path.write_text(out)
    assert code == 0 and run_cli(capsys, "frame", "--from", str(path))[0] == 0
    # float round-off puts the Gram spectrum farther than 1e-30 from {0, 1}
    reject = frame_from_matrix(matrix_from_json(out), tol=1e-30)
    assert reject.reason == "not-a-rank-k-projection"
    code, out, err = run_cli(capsys, "frame", "--from", str(path), "--tol", "1e-30")
    assert code == 1 and err == ""
    assert out == json.dumps({"reason": str(reject), "valid": False}, sort_keys=True) + "\n"


def test_usage_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--group", "S3", "--set", "1")
    assert code == 2
    assert "error" in err.lower()


def test_unbalanced_close_paren_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--group", "C4xC4", "--set", "(1,0)),(0,1)")
    assert code == 2 and out == ""
    assert err == "error: unbalanced parentheses in label list\n"


def test_unknown_label_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "C5", "--set", "9")
    assert code == 2
    assert "not an element" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2}',                                    # missing entries
        '{"entries": [["0", "1"], ["1", "0"]]}',      # missing n
        '[1, 2]',                                      # top-level list
        '{"n": 2, "entries": [["0", "1"], 7]}',       # non-list row
        '{"n": 2, "entries": [["0", ["1"]], ["1", "0"]]}',  # bad token
    ],
)
def test_frame_from_malformed_json_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "matrix.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "frame", "--from", str(path))
    assert code == 2 and out == ""
    assert "error" in err


def test_deeply_nested_matrix_json_is_a_usage_error(tmp_path, capsys):
    # json.loads gives up with a RecursionError long before 100,000 levels
    text = '{"n": 1, "entries": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ValueError, match="nests too deeply"):
        matrix_from_json(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "frame", "--from", str(path))
    assert (code, out) == (2, "")
    assert err == "error: matrix JSON nests too deeply\n"


def test_workers_is_parsed_and_validated(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--group", "C4xC4", "--kind", "signature", "--workers", "2",
    )
    assert code == 0 and len(out.splitlines()) == 72
    code, _, err = run_cli(capsys, "search", "--group", "C5", "--kind", "quasi", "--workers", "0")
    assert code == 2 and "--workers" in err
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "search", "--group", "C5", "--kind", "quasi", "--workers", "many")
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["verify", "--group", "C5", "--set", "1,4"],
    ["search", "--group", "C5", "--kind", "quasi"],
])
def test_ignored_json_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *command, "--json")
    assert exc.value.code == 2


@pytest.mark.parametrize("algorithm", ["thm59", "thm511"])
def test_tables_max_m_stops_at_the_group_order_limit(capsys, algorithm):
    # p = 8m + 5 or 8m + 1 must stay within MAX_ORDER = 4096, so m <= 511
    code, out, _ = run_cli(capsys, "tables", "--algorithm", algorithm, "--max-m", "511", "--json")
    assert code == 0 and out
    code, out, err = run_cli(capsys, "tables", "--algorithm", algorithm, "--max-m", "512", "--json")
    assert code == 2 and out == "" and "4096" in err


@pytest.mark.parametrize("command", [
    ["search", "--group", "C4xC4", "--kind", "signature", "--limit", "-1"],
    ["tables", "--algorithm", "thm59", "--max-m", "-3"],
    ["frame", "--tol", "-1"],
    ["frame", "--tol", "0"],
    ["frame", "--tol", "nan"],
    ["frame", "--tol", "inf"],
])
def test_out_of_range_numbers_are_usage_errors(tmp_path, capsys, command):
    path = tmp_path / "matrix.json"
    code, out, _ = run_cli(
        capsys, "tables", "--algorithm", "thm59", "--max-m", "0", "--emit-matrix", "0",
    )
    path.write_text(out)
    assert code == 0 and run_cli(capsys, "frame", "--from", str(path))[0] == 0
    if command[0] == "frame":
        command = [*command, "--from", str(path)]
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and out == ""
    assert "error" in err


def _cli_session(capsys, tmp_path):
    """A usage error, a search, an emitted matrix and its frame, run in turn;
    the (exit code, stdout, stderr) of each call."""
    matrix_path, vectors_path = tmp_path / "matrix.json", tmp_path / "vectors.csv"
    results = []
    try:
        main(["search", "--group", "C5", "--kind", "nope"])
    except SystemExit as exc:
        out = capsys.readouterr()
        results.append((exc.code, out.out, out.err))
    results.append(run_cli(capsys, "search", "--group", "C4xC4", "--kind", "signature"))
    results.append(run_cli(
        capsys, "tables", "--algorithm", "thm59", "--max-m", "4", "--emit-matrix", "4",
    ))
    matrix_path.write_text(results[-1][1])
    results.append(run_cli(
        capsys, "frame", "--from", str(matrix_path), "--out", str(vectors_path),
    ))
    return results, vectors_path.read_text()


def test_parser_is_built_once_and_parses_like_a_fresh_one(capsys, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    cached = _cli_session(capsys, tmp_path)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    fresh = _cli_session(capsys, tmp_path)
    assert cached == fresh
    assert [code for code, _, _ in cached[0]] == [2, 0, 0, 0]
    assert "invalid choice" in cached[0][0][2]
