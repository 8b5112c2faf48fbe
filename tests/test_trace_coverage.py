"""The benchmark's traced run still sees every layer it measures.

`perfbench/tracer.py` wraps named module attributes (`PATCHES`); a refactor
that stops calling one of them through that name leaves its layer without
calls.  The tracer registers every patched span when it installs, so the
run's own "lacks per-layer metric" check cannot see that; the span record
it writes to perfbench/out/ can.  Each workload is traced once on a 0.1 s
budget, and every span its metrics are defined by must have been entered.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def tracer_metrics():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import tracer
    finally:
        del sys.path[:2]
    return tracer.METRICS


@pytest.mark.parametrize("workload", ["search", "tables-certify", "frame-realise"])
def test_traced_workload_enters_every_measured_layer(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
    assert "lacks per-layer metric" not in done.stderr

    record = np.load(ROOT / "perfbench" / "out" / f"{workload}-seed1-trace1.npz")
    calls = dict(zip(record["names"].tolist(), np.bincount(record["name_id"]).tolist()))
    needed = {span for _name, _unit, span, workloads in tracer_metrics()
              if span is not None and workload in workloads}
    assert sorted(span for span in needed if not calls.get(span)) == []
