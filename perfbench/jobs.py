"""Workloads, job execution and output checks of the frameforge benchmark.

A job is a short list of steps that run in order; the benchmark times whole
jobs.  A step is one in-process call of ``frameforge.cli.main`` or one
``frameforge.generators.generate(..., verify=True)`` call (the CLI ``tables``
command never certifies, so certified tables go through the library).  Both
entry points are looked up on their modules at call time, so the traced run
sees the wrappers it installs.

Every step's output is compared with the expectation that ``record.py``
wrote into ``expected.json``: exit code and stdout digest for CLI steps,
the digest of the ``(m, p, n, k, residues)`` rows for ``generate`` steps,
and for ``frame`` steps the exact parameters plus the numeric tolerance
check, whose last digits depend on LAPACK and so cannot be digested.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import frameforge.cli as cli
from frameforge import generators
from frameforge.groups import parse_group
from pace import Pace

#: Largest deviation a realised frame may show (the CLI's default --tol).
FRAME_TOL = 1e-9

#: Stands for the run's scratch directory inside step arguments.
TMP = "{tmp}"


@dataclass(frozen=True)
class Step:
    """One call into frameforge.

    ``key`` names the step in ``expected.json``.  ``argv`` is a CLI call;
    ``generate`` an ``(algorithm, max_m)`` library call.  ``stdout_to`` is a
    file the step's stdout is written to, as ``frameforge ... > file`` would.
    ``emits`` is a matrix file the CLI writes itself, digested as well.
    """

    key: str
    argv: tuple[str, ...] = ()
    generate: tuple[str, int] | None = None
    stdout_to: str | None = None
    emits: str | None = None

    @property
    def is_frame(self) -> bool:
        return self.argv[:1] == ("frame",)


@dataclass(frozen=True)
class Job:
    id: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Workload:
    """Pools of alternative jobs; a seed draws one job from each pool."""

    name: str
    pools: tuple[tuple[Job, ...], ...]
    warmup: tuple[Job, ...]

    def draw(self, seed: int) -> list[Job]:
        """One job per pool, in a seed-shuffled order."""
        rng = random.Random(seed)
        picked = [rng.choice(pool) for pool in self.pools]
        rng.shuffle(picked)
        return picked

    def all_jobs(self) -> list[Job]:
        return [job for pool in self.pools for job in pool]


def generate_job(algorithm: str, max_m: int) -> Job:
    key = f"generate({algorithm!r}, {max_m}, verify=True)"
    return Job(key, (Step(key, generate=(algorithm, max_m)),))


def _frame_step(name: str) -> Step:
    argv = ("frame", "--from", f"{TMP}/{name}.json", "--out", f"{TMP}/{name}.csv")
    return Step("frameforge " + " ".join(argv), argv=argv)


def table_frame_job(m: int) -> Job:
    """Emit the thm59 conference matrix for m into a file, then realise it."""
    name = f"thm59-m{m}"
    argv = ("tables", "--algorithm", "thm59", "--max-m", "99", "--emit-matrix", str(m))
    emit = Step(
        "frameforge " + " ".join(argv) + f" > {TMP}/{name}.json",
        argv=argv, stdout_to=f"{TMP}/{name}.json",
    )
    return Job(f"frame {name}", (emit, _frame_step(name)))


def q8_frame_job(t: str) -> Job:
    """Emit the bordered Eisenstein matrix of the Q8 cube-root quasi pair
    (S = {-1}, T = t), then realise it."""
    name = "q8-" + t.replace(",", "").replace("-", "m")
    argv = (
        "cube-verify", "--group", "Q8", "--s", "-1", f"--t={t}", "--quasi",
        "--emit-matrix", f"{TMP}/{name}.json",
    )
    emit = Step("frameforge " + " ".join(argv), argv=argv, emits=f"{TMP}/{name}.json")
    return Job(f"frame {name}", (emit, _frame_step(name)))


def _search(group: str, kind: str, *flags: str) -> Job:
    argv = ("search", "--group", group, "--kind", kind, "--workers", "1", *flags)
    key = "frameforge " + " ".join(argv)
    return Job(key, (Step(key, argv=argv),))


_Q8_T_POOL = ("i,j,k", "-i,-j,-k", "-i,-j,k", "-i,j,k")

# The four job groups; README.md says why each exists and why SIGQUASI and
# CUBE run as one workload.  Members of one pool cost within a few percent of each
# other, so the seed moves which outputs are checked but not the timings.
SIGQUASI = (
    (_search("C4xC8", "signature"),),
    (_search("C5xC5", "quasi"),),
    (_search("C3xC9", "quasi"),),
    (_search("C27", "quasi"),),
    (_search("C4xC4", "signature", "--dedupe"),),
)
CUBE = tuple(
    (_search(group, kind),)
    for group in ("C4xC4", "C16", "C3xC5")
    for kind in ("cube-pair", "cube-quasi")
) + (
    (_search("Q8", "cube-pair", "--dedupe"),),
    (_search("Q8", "cube-quasi", "--dedupe"),),
    (_search("C20", "cube-pair", "--force"),),
    (_search("C3xC6", "cube-quasi", "--force"),),
)
TABLES = ((generate_job("thm59", 99),), (generate_job("thm511", 299),))
FRAMES = (
    (table_frame_job(21), table_frame_job(22)),   # n = 174, 182
    (table_frame_job(46), table_frame_job(48)),   # n = 374, 390
    (table_frame_job(81), table_frame_job(82)),   # n = 654, 662
    (table_frame_job(99),),                       # n = 798
    tuple(q8_frame_job(t) for t in _Q8_T_POOL),   # n = 9, Eisenstein
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search",
            pools=SIGQUASI + CUBE,
            warmup=(_search("C4xC4", "signature"), _search("C9", "quasi"),
                    _search("C7", "cube-quasi")),
        ),
        Workload("tables-certify", pools=TABLES, warmup=(generate_job("thm59", 7),)),
        Workload(
            "frame-realise",
            pools=FRAMES,
            warmup=(table_frame_job(6), q8_frame_job(_Q8_T_POOL[0])),
        ),
        # Seconds-long job list for the benchmark's self-tests.
        Workload(
            "smoke",
            pools=(
                (_search("C4xC4", "signature"),),
                (generate_job("thm59", 7),),
                (table_frame_job(6),),                        # n = 54
            ),
            warmup=(),
        ),
    )
}


@dataclass
class Outcome:
    code: int
    stdout: str = ""
    rows: list | None = None


def run_step(step: Step, tmp: Path) -> Outcome:
    if step.generate is not None:
        algorithm, max_m = step.generate
        hits = generators.generate(algorithm, max_m, verify=True)
        return Outcome(0, rows=[[h.m, h.p, h.n, h.k, list(h.residues)] for h in hits])
    argv = [arg.replace(TMP, str(tmp)) for arg in step.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors, as a shell would see them
            code = exc.code if isinstance(exc.code, int) else 1
    text = out.getvalue()
    if step.stdout_to is not None:
        Path(step.stdout_to.replace(TMP, str(tmp))).write_text(text, encoding="utf-8")
    return Outcome(code, text)


def run_job(job: Job, tmp: Path) -> list[Outcome]:
    return [run_step(step, tmp) for step in job.steps]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def describe(step: Step, outcome: Outcome, tmp: Path) -> dict:
    """What ``record.py`` stores for a step; frame steps must pass the
    tolerance check before they can be recorded."""
    if outcome.rows is not None:
        return {"rows_sha256": sha256(json.dumps(outcome.rows)), "items": len(outcome.rows)}
    entry: dict = {"exit": outcome.code}
    if step.is_frame:
        payload = json.loads(outcome.stdout)
        problems = _frame_tolerance(payload, step, tmp)
        if problems:
            raise RuntimeError(f"{step.key}: {'; '.join(problems)}")
        entry["frame"] = {key: payload[key] for key in ("n", "k", "mu", "c_value")}
        entry["items"] = payload["n"]
        return entry
    entry["stdout_sha256"] = sha256(outcome.stdout)
    if step.emits is not None:
        entry["emits_sha256"] = sha256(_read(step.emits, tmp))
    if step.argv[0] == "search":
        flags = dict(zip(step.argv[1::2], step.argv[2::2]))
        entry["items"] = candidate_count(flags["--group"], flags["--kind"])
    elif step.stdout_to is not None or step.emits is not None:
        entry["items"] = json.loads(_read(step.stdout_to or step.emits, tmp))["n"]
    return entry


def candidate_count(descriptor: str, kind: str) -> int:
    """Candidates an exhaustive search enumerates: 2^orbits for the real
    kinds, 3^(inverse pairs) for the cube kinds, none where the group order
    rules the kind out."""
    group = parse_group(descriptor)
    involutions = sum(1 for x in range(1, group.order) if group.inv[x] == x)
    pairs = (group.order - 1 - involutions) // 2
    if kind == "signature":
        return 0 if group.order % 2 else 2 ** (involutions + pairs)
    if kind == "quasi":
        return 0 if group.order % 2 == 0 else 2 ** (involutions + pairs)
    return 3 ** pairs


def check(step: Step, outcome: Outcome, expected: dict, tmp: Path) -> list[str]:
    """Differences between a step's output and its recorded expectation."""
    want = expected.get(step.key)
    if want is None:
        return [f"{step.key}: no recorded expectation"]
    if outcome.rows is not None:
        got = sha256(json.dumps(outcome.rows))
        return [] if got == want["rows_sha256"] else [f"{step.key}: row digest differs"]
    if outcome.code != want["exit"]:
        return [f"{step.key}: exit {outcome.code}, expected {want['exit']}"]
    if step.is_frame:
        try:
            payload = json.loads(outcome.stdout)
        except json.JSONDecodeError:
            return [f"{step.key}: stdout is not JSON"]
        problems = [
            f"{step.key}: {key} is {payload.get(key)!r}, expected {value!r}"
            for key, value in want["frame"].items()
            if payload.get(key) != value
        ]
        return problems + _frame_tolerance(payload, step, tmp)
    problems = []
    if sha256(outcome.stdout) != want["stdout_sha256"]:
        problems.append(f"{step.key}: stdout digest differs")
    if step.emits is not None and sha256(_read(step.emits, tmp)) != want.get("emits_sha256"):
        problems.append(f"{step.key}: emitted matrix digest differs")
    return problems


def _frame_tolerance(payload: dict, step: Step, tmp: Path) -> list[str]:
    problems = []
    if payload.get("valid") is not True:
        problems.append(f"{step.key}: frame reported invalid")
    for key in ("tightness_dev", "uniformity_dev", "equiangularity_dev"):
        dev = payload.get(key)
        if not isinstance(dev, float | int) or not 0 <= dev <= FRAME_TOL:
            problems.append(f"{step.key}: {key} = {dev!r} exceeds {FRAME_TOL}")
    csv_path = step.argv[step.argv.index("--out") + 1]
    lines = _read(csv_path, tmp).splitlines()
    n, k = payload.get("n"), payload.get("k")
    if len(lines) != n or (lines and lines[0].count(",") + 1 != 2 * k):
        problems.append(f"{step.key}: vector file is not {n} rows of {k} complex cells")
    return problems


def _read(template: str, tmp: Path) -> str:
    try:
        return Path(template.replace(TMP, str(tmp))).read_text(encoding="utf-8")
    except OSError:
        return ""


def run_timed(job, tmp: Path, expected: dict, problems: list[str],
              pace: Pace | None = None) -> tuple[float, float, bool]:
    """Run one job.  Returns its seconds, those seconds scaled to the
    reference CPU speed (the same without a Pace), and whether every output
    matched."""
    with pace.sampling() if pace else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            outcomes, crash = run_job(job, tmp), None
        except Exception:  # a crash is a failed job; the run goes on
            outcomes, crash = [], traceback.format_exc()
        elapsed = time.perf_counter() - start
    scaled = elapsed
    if pace:
        elapsed -= pace.in_block_s()
        scaled = elapsed * pace.scale()
    if crash:
        problems.append(f"{job.id}: raised\n{crash}")
        return elapsed, scaled, False
    found = [p for step, o in zip(job.steps, outcomes) for p in check(step, o, expected, tmp)]
    problems.extend(found)
    return elapsed, scaled, not found


def measure(order, seconds: float, tmp: Path, expected: dict, problems: list[str]):
    """Every job once, then more rounds while the next job still fits into
    the time budget.  Returns per-job seconds, the same scaled to the
    reference CPU speed, attempts and failures."""
    samples: dict[str, list[float]] = {job.id: [] for job in order}
    scaled: dict[str, list[float]] = {job.id: [] for job in order}
    pace = Pace()
    attempted = failed = 0
    start = time.perf_counter()
    first_round = True
    while True:
        ran = False
        for job in order:
            if not first_round:
                left = seconds - (time.perf_counter() - start)
                if samples[job.id][-1] > left:
                    continue
            elapsed, at_reference, ok = run_timed(job, tmp, expected, problems, pace)
            samples[job.id].append(elapsed)
            scaled[job.id].append(at_reference)
            attempted += 1
            failed += not ok
            ran = True
        first_round = False
        if not ran:
            return samples, scaled, attempted, failed


def one_pass(order, tmp: Path, expected: dict, problems: list[str], tracer=None):
    """Every job once; returns the summed job seconds, attempts and failures."""
    total = 0.0
    failed = 0
    for job in order:
        if tracer is None:
            elapsed, _, ok = run_timed(job, tmp, expected, problems)
        else:
            with tracer.span(f"job {job.id}"):
                elapsed, _, ok = run_timed(job, tmp, expected, problems)
        total += elapsed
        failed += not ok
    return total, len(order), failed
