"""Benchmark runner for frameforge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run sets up (import, job draw, warm-up), then runs the
workload's job list over and over for S seconds and checks every output
against ``expected.json``.  Its JSON line carries the gated end-to-end
metrics: ``wall_norm_s`` (sum over jobs of each job's median time, scaled to
the reference CPU speed by ``pace.py``), ``setup_s`` (median of five
set-ups, this process and four fresh ones, scaled the same way) and
``peak_rss_mb``.  With
``--trace 1`` it runs the job list once untraced and once traced, and the
JSON line carries the per-layer metrics instead.  A readable report goes to
stderr, including the unscaled ``wall_s`` and ``setup_raw_s`` and
``fail_share``, and the full
record with run metadata to ``perfbench/out/``.  The exit code is 0 when
every output matched, 1 when one did not, 2 when the run could not start.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Printed with the metrics but not gated: wall_s and setup_raw_s drift with
#: the machine (wall_norm_s and setup_s are the same times at the reference
#: speed), and fail_share is zero whenever a run is correct.
REPORTED_UNITS = {"wall_s": "s", "setup_raw_s": "s", "fail_share": "ratio"}
SETUP_PROBES = 4


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected", type=Path, default=HERE / "expected.json",
                   help="expectation file (the self-tests pass a corrupted copy)")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit (used by the runner)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_environment() -> None:
    """One process, one BLAS thread, frameforge's own worker count."""
    os.environ.pop("FRAMEFORGE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_program() -> None:
    """Import frameforge from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "frameforge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no frameforge sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import frameforge

    if Path(frameforge.__file__).resolve().parent != (src / "frameforge").resolve():
        raise ImportError(f"frameforge was imported from {frameforge.__file__}")


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Set-up time of a fresh process running the same workload and seed,
    scaled to the reference speed and as measured."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    scaled, measured = json.loads(done.stdout.splitlines()[-1])
    return scaled, measured


def metadata(args: argparse.Namespace, order, expected: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "src_lines": src_lines(),
        "jobs": [
            {"id": job.id, "items": [expected.get(s.key, {}).get("items") for s in job.steps]}
            for job in order
        ],
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    pin_environment()
    try:
        load_program()
        expected = json.loads(args.expected.read_text(encoding="utf-8"))
    except (OSError, ImportError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    import jobs
    import pace
    import tracer as tracing

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = jobs.WORKLOADS[args.workload]
    order = workload.draw(args.seed)
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    reported: dict = {}
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        tmp = Path(scratch)
        for job in workload.warmup:
            jobs.run_job(job, tmp)
        setup_raw = time.perf_counter() - t0
        setup = (setup_raw * pace.scale_now(), setup_raw)
        if args.setup_probe:
            print(json.dumps(setup))
            return 0

        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record: dict = {"meta": metadata(args, order, expected)}
        if args.trace:
            untraced, a1, f1 = jobs.one_pass(order, tmp, expected, problems)
            tr = tracing.Tracer()
            with tr.installed():
                traced, a2, f2 = jobs.one_pass(order, tmp, expected, problems, tr)
            attempted, failed = a1 + a2, f1 + f2
            layer = tracing.layer_metrics(tr, traced / untraced)
            missing = tracing.missing_metrics(layer, args.workload)
            problems += [f"traced run lacks per-layer metric {name}" for name in missing]
            unknown = tracing.unknown_reasons(tr)
            if unknown:
                print(f"note: rejection reasons without a metric: {unknown}", file=sys.stderr)
            tr.write(stem.with_suffix(".npz"))
            units = {name: unit for name, unit, _span, _w in tracing.METRICS}
            metrics = {name: (0 if v is None else v) for name, v in layer.items()}
            record.update(untraced_pass_s=untraced, traced_pass_s=traced,
                          spans=len(tr.start), counts=dict(tr.counts))
        else:
            samples, scaled, attempted, failed = jobs.measure(
                order, args.seconds, tmp, expected, problems)
            setups = [setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            metrics = {
                "wall_norm_s": sum(statistics.median(s) for s in scaled.values()),
                "setup_s": statistics.median(s for s, _ in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END_UNITS)
            reported["wall_s"] = sum(statistics.median(s) for s in samples.values())
            reported["setup_raw_s"] = statistics.median(raw for _, raw in setups)
            record.update(samples=samples, scaled_samples=scaled, setup_samples=setups)

    reported["fail_share"] = failed / attempted
    correct = not problems and failed == 0
    record.update(metrics=metrics, reported=reported, attempted=attempted, failed=failed,
                  problems=problems)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for problem, times in Counter(problems).items():
        print(f"MISMATCH ({times}x) {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}:", file=sys.stderr)
    for name, value in {**metrics, **reported}.items():
        unit = units.get(name) or REPORTED_UNITS[name]
        print(f"  {name:<44} {value!s:>24} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
