"""Span tracing of frameforge from outside the program.

The traced run replaces public frameforge functions, at the module
attributes their callers look them up under, with wrappers that record a
span (name, start, end, parent) in memory.  Counts are recorded at the same
boundaries.  Nothing under ``src/`` changes; the originals are restored when
the traced pass ends.  A layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
from frameforge.matrices import SeidelMatrixInt
from frameforge.verdicts import Rejection


class Tracer:
    """Spans of one traced pass, kept in flat arrays until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, fn: Callable, name: str, note: Callable | None) -> Callable:
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def count_calls(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every entry of PATCHES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, note in PATCHES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if name.startswith("#"):
                    setattr(module, attr, self.count_calls(fn, name[1:]))
                else:
                    if attr in _MATERIALISE:
                        fn = _materialised(fn)
                    setattr(module, attr, self.wrap(fn, name, note))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def span_table(self) -> dict[str, dict]:
        """Per span name: call count, self seconds and durations."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        table = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            table[name] = {
                "calls": int(mine.sum()),
                "self_s": float(self_time[mine].sum()),
                "durations": dur[mine],
            }
        return table

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _materialised(fn: Callable) -> Callable:
    """Run a candidate generator to completion inside its span; the search
    consumes it with list() either way."""
    def run(*args, **kwargs):
        return list(fn(*args, **kwargs))
    return run


_MATERIALISE = {"enumerate_inverse_closed", "cube_candidates"}


def _note_hits(tr: Tracer, args, result) -> None:
    tr.counts["search.hits"] += len(result)


def _note_candidates(tr: Tracer, args, result) -> None:
    tr.counts["search.candidates"] += len(result)


def _note_pair_count(tr: Tracer, args, result) -> None:
    tr.counts["subsets.pair_products"] += args[1].size * args[2].size


def _verdict_note(layer: str) -> Callable:
    def note(tr: Tracer, args, result) -> None:
        if isinstance(result, Rejection):
            tr.counts[f"{layer}.reject.{result.reason}"] += 1
        else:
            tr.counts[f"{layer}.accepts"] += 1
    return note


# Reasons after which certify_two_eigenvalue has not squared the matrix.
_CERTIFY_EARLY_EXITS = {"matrix-too-small", "not-self-adjoint"}


def _note_certify(tr: Tracer, args, result) -> None:
    q = args[0]
    tr.note_max("matrices.certify_max_n", q.n)
    if isinstance(result, Rejection) and result.reason in _CERTIFY_EARLY_EXITS:
        return
    products = 1 if isinstance(q, SeidelMatrixInt) else 4  # Eisenstein: a*a, b*b, a*b, b*a
    tr.counts["matrices.certify_flops"] += products * 2 * q.n ** 3


def _note_json_emit(tr: Tracer, args, result) -> None:
    tr.counts["matrices.json_bytes"] += len(result)


def _note_json_parse(tr: Tracer, args, result) -> None:
    tr.counts["matrices.json_bytes"] += len(args[0])


def _note_rows(tr: Tracer, args, result) -> None:
    tr.counts["generators.rows"] += len(result)


def _note_frame(tr: Tracer, args, result) -> None:
    tr.note_max("frames.max_n", args[0].n)
    tr.note_max(
        "frames.max_dev",
        max(result.tightness_dev, result.uniformity_dev, result.equiangularity_dev),
    )


# (module, attribute, span name, note).  Each function is wrapped at every
# module its callers look it up in.  A span name starting with "#" counts
# calls without a span: the token functions run once per matrix cell.
PATCHES = [
    ("frameforge.cli", "main", "cli.main", None),
    ("frameforge.cli", "parse_group", "groups.build", None),
    ("frameforge.cli", "cyclic", "groups.build", None),
    ("frameforge.generators", "cyclic", "groups.build", None),
    ("frameforge.cli", "search", "search.search", _note_hits),
    ("frameforge.search", "enumerate_inverse_closed", "search.enumerate", _note_candidates),
    ("frameforge.search", "cube_candidates", "search.enumerate", _note_candidates),
    ("frameforge.signature_sets", "pair_count_table", "subsets.pair_count", _note_pair_count),
    ("frameforge.cube_root", "pair_count_table", "subsets.pair_count", _note_pair_count),
    ("frameforge.signature_sets", "inverse_set", "subsets.inverse_set", None),
    ("frameforge.cube_root", "inverse_set", "subsets.inverse_set", None),
    ("frameforge.search", "verify_signature_set", "signature_sets.verify",
     _verdict_note("signature_sets")),
    ("frameforge.search", "verify_quasi_signature_set", "signature_sets.verify",
     _verdict_note("signature_sets")),
    ("frameforge.generators", "verify_quasi_signature_set", "signature_sets.verify",
     _verdict_note("signature_sets")),
    ("frameforge.cli", "quasi_signature_matrix", "signature_sets.build_matrix", None),
    ("frameforge.search", "verify_signature_pair", "cube_root.verify", _verdict_note("cube_root")),
    ("frameforge.search", "verify_quasi_signature_pair", "cube_root.verify",
     _verdict_note("cube_root")),
    ("frameforge.cli", "verify_quasi_signature_pair", "cube_root.verify",
     _verdict_note("cube_root")),
    ("frameforge.cube_root", "build_cube_matrix", "cube_root.build_matrix", None),
    ("frameforge.cli", "build_cube_matrix", "cube_root.build_matrix", None),
    ("frameforge.cube_root", "certify_two_eigenvalue", "matrices.certify", _note_certify),
    ("frameforge.frames", "certify_two_eigenvalue", "matrices.certify", _note_certify),
    ("frameforge.cube_root", "border_standard", "matrices.border", None),
    ("frameforge.signature_sets", "border_standard", "matrices.border", None),
    ("frameforge.cli", "border_standard", "matrices.border", None),
    ("frameforge.cli", "matrix_to_json", "matrices.json_emit", _note_json_emit),
    ("frameforge.cli", "matrix_from_json", "matrices.json_parse", _note_json_parse),
    ("frameforge.matrices", "unit_from_token", "#eisenstein.token_calls", None),
    ("frameforge.matrices", "unit_to_token", "#eisenstein.token_calls", None),
    ("frameforge.signature_sets", "params_from_mu", "params.from_mu", None),
    ("frameforge.matrices", "params_from_mu", "params.from_mu", None),
    ("frameforge.generators", "generate", "generators.generate", _note_rows),
    ("frameforge.cli", "frame_from_matrix", "frames.frame_from_matrix", None),
    ("frameforge.frames", "gram_from_certificate", "frames.gram", None),
    ("frameforge.frames", "factor_gram", "frames.factor", None),
    ("frameforge.frames", "verify_frame", "frames.verify", _note_frame),
]

# Workloads whose traced run must report a metric, named by job group:
# the "search" workload runs both the SIGQUASI and the CUBE jobs.
SIGQUASI = CUBE = SEARCH = ("search",)
TABLES, FRAMES = ("tables-certify",), ("frame-realise",)
CLI = SEARCH + FRAMES
ALL = SEARCH + TABLES + FRAMES

#: Reason codes signature_sets can return, one counter each.
SIGNATURE_REASONS = (
    "wrong-group", "identity-in-set", "odd-order", "odd-frame-size",
    "s-not-inverse-closed", "t-not-inverse-closed", "odd-mu", "mu-out-of-range",
    "count-mismatch-on-s", "count-mismatch-on-t", "infeasible-parameters",
)

#: Per-layer metrics: name, unit, the span whose presence makes the metric
#: defined, and the workloads whose traced run must report it.
METRICS = [
    ("groups.builds", "count", "groups.build", ALL),
    ("groups.build_s", "s", "groups.build", ALL),
    ("search.candidates", "count", "search.enumerate", SEARCH),
    ("search.enumerate_s", "s", "search.enumerate", SEARCH),
    ("search.hit_ratio", "ratio", "search.enumerate", SEARCH),
    ("subsets.pair_count_calls", "count", "subsets.pair_count", SIGQUASI + TABLES),
    ("subsets.pair_count_s", "s", "subsets.pair_count", SIGQUASI + TABLES),
    ("subsets.pair_products", "count", "subsets.pair_count", SIGQUASI + TABLES),
    ("subsets.inverse_set_calls", "count", "subsets.inverse_set", SIGQUASI + TABLES),
    ("subsets.inverse_set_s", "s", "subsets.inverse_set", SIGQUASI + TABLES),
    ("signature_sets.verify_calls", "count", "signature_sets.verify", SIGQUASI + TABLES),
    ("signature_sets.verify_self_s", "s", "signature_sets.verify", SIGQUASI + TABLES),
    ("signature_sets.verify_p50_us", "us", "signature_sets.verify", SIGQUASI + TABLES),
    ("signature_sets.verify_p99_us", "us", "signature_sets.verify", SIGQUASI + TABLES),
    ("signature_sets.accept_ratio", "ratio", "signature_sets.verify", SIGQUASI + TABLES),
    *[
        (f"signature_sets.reject.{reason}", "count", "signature_sets.verify", SIGQUASI + TABLES)
        for reason in SIGNATURE_REASONS
    ],
    ("cube_root.verify_calls", "count", "cube_root.verify", CUBE),
    ("cube_root.verify_self_s", "s", "cube_root.verify", CUBE),
    ("cube_root.verify_p50_us", "us", "cube_root.verify", CUBE),
    ("cube_root.verify_p99_us", "us", "cube_root.verify", CUBE),
    ("cube_root.accept_ratio", "ratio", "cube_root.verify", CUBE),
    ("cube_root.build_matrix_s", "s", "cube_root.build_matrix", CUBE),
    ("matrices.certify_calls", "count", "matrices.certify", CUBE + FRAMES),
    ("matrices.certify_s", "s", "matrices.certify", CUBE + FRAMES),
    ("matrices.certify_max_n", "rows", "matrices.certify", CUBE + FRAMES),
    ("matrices.certify_flops", "flop", "matrices.certify", CUBE + FRAMES),
    ("matrices.border_s", "s", "matrices.border", CUBE + FRAMES),
    ("matrices.json_emit_s", "s", "matrices.json_emit", FRAMES),
    ("matrices.json_parse_s", "s", "matrices.json_parse", FRAMES),
    ("matrices.json_bytes", "B", "matrices.json_parse", FRAMES),
    ("eisenstein.token_calls", "count", "matrices.json_parse", FRAMES),
    ("params.from_mu_calls", "count", "params.from_mu", ALL),
    ("params.from_mu_s", "s", "params.from_mu", ALL),
    ("generators.rows", "count", "generators.generate", TABLES + FRAMES),
    ("generators.self_s", "s", "generators.generate", TABLES + FRAMES),
    ("frames.gram_s", "s", "frames.gram", FRAMES),
    ("frames.factor_s", "s", "frames.factor", FRAMES),
    ("frames.verify_s", "s", "frames.verify", FRAMES),
    ("frames.max_n", "rows", "frames.verify", FRAMES),
    ("frames.max_dev", "abs", "frames.verify", FRAMES),
    ("cli.self_s", "s", "cli.main", CLI),
    ("trace.overhead_ratio", "ratio", None, ALL),
]


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float | None]:
    """Every per-layer metric; None where the layer never ran in the pass."""
    spans = tracer.span_table()
    counts, maxima = tracer.counts, tracer.maxima

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def self_s(name: str) -> float:
        return spans[name]["self_s"] if name in spans else 0.0

    def percentile_us(name: str, q: float) -> float:
        durations = spans[name]["durations"] if name in spans else np.empty(0)
        return float(np.percentile(durations, q)) * 1e6 if durations.size else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "groups.builds": calls("groups.build"),
        "groups.build_s": self_s("groups.build"),
        "search.candidates": counts["search.candidates"],
        "search.enumerate_s": self_s("search.enumerate"),
        "search.hit_ratio": ratio(counts["search.hits"], counts["search.candidates"]),
        "subsets.pair_count_calls": calls("subsets.pair_count"),
        "subsets.pair_count_s": self_s("subsets.pair_count"),
        "subsets.pair_products": counts["subsets.pair_products"],
        "subsets.inverse_set_calls": calls("subsets.inverse_set"),
        "subsets.inverse_set_s": self_s("subsets.inverse_set"),
        "cube_root.build_matrix_s": self_s("cube_root.build_matrix"),
        "matrices.certify_calls": calls("matrices.certify"),
        "matrices.certify_s": self_s("matrices.certify"),
        "matrices.certify_max_n": maxima.get("matrices.certify_max_n", 0),
        "matrices.certify_flops": counts["matrices.certify_flops"],
        "matrices.border_s": self_s("matrices.border"),
        "matrices.json_emit_s": self_s("matrices.json_emit"),
        "matrices.json_parse_s": self_s("matrices.json_parse"),
        "matrices.json_bytes": counts["matrices.json_bytes"],
        "eisenstein.token_calls": counts["eisenstein.token_calls"],
        "params.from_mu_calls": calls("params.from_mu"),
        "params.from_mu_s": self_s("params.from_mu"),
        "generators.rows": counts["generators.rows"],
        "generators.self_s": self_s("generators.generate"),
        "frames.gram_s": self_s("frames.gram"),
        "frames.factor_s": self_s("frames.factor"),
        "frames.verify_s": self_s("frames.verify"),
        "frames.max_n": maxima.get("frames.max_n", 0),
        "frames.max_dev": maxima.get("frames.max_dev", 0.0),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in ("signature_sets", "cube_root"):
        span = f"{layer}.verify"
        values[f"{layer}.verify_calls"] = calls(span)
        values[f"{layer}.verify_self_s"] = self_s(span)
        values[f"{layer}.verify_p50_us"] = percentile_us(span, 50)
        values[f"{layer}.verify_p99_us"] = percentile_us(span, 99)
        values[f"{layer}.accept_ratio"] = ratio(counts[f"{layer}.accepts"], calls(span))
    for reason in SIGNATURE_REASONS:
        values[f"signature_sets.reject.{reason}"] = counts[f"signature_sets.reject.{reason}"]
    return {
        name: (values[name] if span is None or span in spans else None)
        for name, _unit, span, _workloads in METRICS
    }


def unknown_reasons(tracer: Tracer) -> list[str]:
    """Rejection reasons signature_sets returned that SIGNATURE_REASONS lacks."""
    prefix = "signature_sets.reject."
    return sorted(
        key[len(prefix):] for key in tracer.counts
        if key.startswith(prefix) and key[len(prefix):] not in SIGNATURE_REASONS
    )


def missing_metrics(metrics: dict[str, float | None], workload: str) -> list[str]:
    """Metrics the workload must exercise but whose layer never ran."""
    return [
        name for name, _unit, _span, workloads in METRICS
        if workload in workloads and metrics[name] is None
    ]
