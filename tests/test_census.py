"""A census of `search` over every supported group up to order 48 (real
kinds) or 30 (cube kinds).

For each kind and each descriptor of `supported_descriptors` up to the
kind's CENSUS_ORDER_LIMITS, tests/data/census.json pins what the in-process
CLI `search --group D --kind K` gives: its exit code, its hit count, the
sorted multiset of (n, k, mu) over its hits and the sha256 of its stdout.
A group past the kind's DEFAULT_ORDER_LIMITS is searched with --force, and
its row says so ("force": true).  The unforced rows were recorded before
the quotient join last changed, and the forced ones before the trivial
frames got their closed form, so a change to the join, the closed form,
the screen or the verifiers that loses, adds or reorders a hit, or changes
one byte of a payload, fails here.

Record it again, after a change that should alter the output, with
`PYTHONPATH=src python tests/test_census.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from frameforge.cli import main
from frameforge.search import DEFAULT_ORDER_LIMITS, KINDS

from conftest import supported_descriptors

DATA = Path(__file__).parent / "data" / "census.json"

#: The largest order the census searches, per kind.
CENSUS_ORDER_LIMITS = {"signature": 48, "quasi": 48, "cube-pair": 30, "cube-quasi": 30}


def census(kind: str) -> list[dict]:
    """One record per descriptor up to the kind's census order limit."""
    records = []
    unforced = set(supported_descriptors(DEFAULT_ORDER_LIMITS[kind]))
    for descriptor in supported_descriptors(CENSUS_ORDER_LIMITS[kind]):
        force = descriptor not in unforced
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["search", "--group", descriptor, "--kind", kind] + ["--force"] * force)
        hits = [json.loads(line) for line in out.getvalue().splitlines()]
        records.append({
            "kind": kind,
            "group": descriptor,
            "exit": code,
            "hits": len(hits),
            "nkmu": sorted([h["n"], h["k"], h["mu"]] for h in hits),
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        } | ({"force": True} if force else {}))
    return records


@pytest.fixture(scope="module")
def recorded() -> list[dict]:
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("kind", KINDS)
def test_search_output_matches_the_census(recorded, kind):
    want = [r for r in recorded if r["kind"] == kind]
    got = census(kind)
    assert [r["group"] for r in got] == [r["group"] for r in want]
    for g, w in zip(got, want):
        assert g == w, (kind, w["group"])


def test_census_covers_every_kind_and_finds_hits(recorded):
    # an empty or truncated file would pass the comparison above vacuously
    assert sorted({r["kind"] for r in recorded}) == sorted(KINDS)
    assert all(any(r["hits"] for r in recorded if r["kind"] == kind) for kind in KINDS)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    rows = [json.dumps(r) for kind in KINDS for r in census(kind)]
    DATA.write_text("[\n" + ",\n".join(rows) + "\n]\n")
