"""The benchmark's traced run still sees every layer it measures.

`perfbench/tracer.py` wraps named module attributes (`PATCHES`); a refactor
that stops calling one of them through that name leaves its layer without
calls.  The tracer registers every patched span when it installs, so the
run's own "lacks per-layer metric" check cannot see that; the span record
it writes to perfbench/out/ can.  Each workload is traced once on a 0.1 s
budget, and every span its metrics are defined by must have been entered.
The search record's candidate count must also equal the 2^orbits or
3^pairs its jobs enumerate: the enumerators are lazy sequences, and the
tracer counts them with `len()` after materialising them.

Batch verification leaves some per-call spans without calls (NOT_ENTERED);
their patch points must still resolve, which is checked without a run.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def perfbench_module(name):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        return importlib.import_module(name)
    finally:
        del sys.path[:2]


def search_candidates(seed):
    """The candidates the search workload's jobs for this seed enumerate:
    2^orbits or 3^pairs per search step."""
    jobs = perfbench_module("jobs")
    total = 0
    for job in jobs.WORKLOADS["search"].draw(seed):
        for step in job.steps:
            flags = dict(zip(step.argv[1::2], step.argv[2::2]))
            total += jobs.candidate_count(flags["--group"], flags["--kind"])
    return total


#: Spans of per-candidate calls that batch verification no longer makes.
#: `search` verifies each chunk's survivors in one batch
#: (`signature_sets.verify_batch`), and the
#: one-candidate verifier `generate` calls is a batch of one: its closure
#: check is a mask and its pair counts one `convolve`, and a cube batch is
#: certified by one stacked product with no `SeidelMatrix` per candidate.
#: Their metrics read 0 until the benchmark renames them.
NOT_ENTERED = {
    "search": ["cube_root.build_matrix", "cube_root.verify", "matrices.border",
               "matrices.certify", "signature_sets.verify", "subsets.inverse_set",
               "subsets.pair_count"],
    "tables-certify": ["subsets.inverse_set", "subsets.pair_count"],
}


def test_tracer_patch_points_resolve():
    # a refactor that unbinds a patched name fails here, not in a traced run
    patches = perfbench_module("tracer").PATCHES
    missing = [f"{module}.{attr}" for module, attr, _name, _note in patches
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


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
    needed = {span for _name, _unit, span, workloads in perfbench_module("tracer").METRICS
              if span is not None and workload in workloads}
    assert sorted(span for span in needed if not calls.get(span)) == NOT_ENTERED.get(workload, [])

    if workload == "search":
        # the enumerators still report every candidate, so the tracer's
        # count is the true 2^orbits or 3^pairs per job
        traced = json.loads((ROOT / "perfbench" / "out" / "search-seed1-trace1.json").read_text())
        assert traced["counts"]["search.candidates"] == search_candidates(1)
