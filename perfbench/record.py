"""Record the expected output of every job in every workload pool.

    python3 perfbench/record.py

Runs each job once, in-process, and writes ``perfbench/expected.json``: exit
code and stdout digest per CLI step, digest of the ``generate`` rows, the
exact parameters of every realised frame (which must already pass the
tolerance check), and the item count of each step (candidates, rows or n).
Run it only at a commit whose outputs are known to be right; the benchmark
then holds every later commit to them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.pin_environment()
    run.load_program()
    import jobs

    expected: dict = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        tmp = Path(scratch)
        for workload in jobs.WORKLOADS.values():
            for job in workload.all_jobs():
                for step, outcome in zip(job.steps, jobs.run_job(job, tmp)):
                    expected[step.key] = jobs.describe(step, outcome, tmp)
                print(f"recorded {job.id}", file=sys.stderr)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(expected)} expectations to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
