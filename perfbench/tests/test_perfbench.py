"""Self-tests of the benchmark: each runs perfbench/run.py on the seconds-long
smoke job list (C4xC4 search, thm59 up to m = 7, one n = 54 frame)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra: str, cwd: Path = ROOT, trace: int = 0) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_line(done: subprocess.CompletedProcess) -> dict:
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_smoke_prints_every_end_to_end_metric_with_its_unit():
    done = run_bench()
    assert done.returncode == 0, done.stderr
    result = result_line(done)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in {**want, "wall_s": "s", "setup_raw_s": "s", "fail_share": "ratio"}.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in done.stderr.splitlines()), name


def test_corrupted_digest_counts_as_failure(tmp_path):
    expected = json.loads((BENCH / "expected.json").read_text())
    key = "frameforge search --group C4xC4 --kind signature --workers 1"
    expected[key]["stdout_sha256"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    done = run_bench("--expected", str(corrupted))
    assert done.returncode == 1
    result = result_line(done)
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert "fail_share" in done.stderr and "stdout digest differs" in done.stderr


def test_traced_run_reports_every_per_layer_metric():
    done = run_bench(trace=1)
    assert done.returncode == 0, done.stderr
    result = result_line(done)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    assert values["search.candidates"] == 512
    assert values["generators.rows"] == 6 + 31  # generate(thm59, 7) and tables --max-m 99
    assert values["frames.max_n"] == 54


def test_benchmark_spec_matches_the_tracer_table():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import tracer
    finally:
        del sys.path[:2]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _span, _workloads in tracer.METRICS
    ]


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(cwd=tmp_path)
    assert done.returncode not in (0, 1)
    assert done.stdout == ""
