import json
import sys

import numpy as np
import pytest

from frameforge import cli, generators, parse_group
from frameforge.cli import main, split_labels
from frameforge.frames import frame_from_matrix
from frameforge.matrices import matrix_from_json
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
    ["cube-verify", "--group", "Q8", "--s", "-1", "--t", "i,j,k", "--quasi", "--emit-matrix"],
], ids=["thm59_m3", "thm59_m21", "q8_cube"])
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
    assert text == _per_cell_csv(frame.vectors)
    assert "-0," not in text and "-0\n" not in text


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
