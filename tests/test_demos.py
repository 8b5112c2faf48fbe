"""Every demo script runs to the end and prints no failed claim.

The demos print their checks as "<claim>: True"; a ": False" line means a
claim the README makes no longer holds.
"""

from __future__ import annotations

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_every_claim_holds(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    failed = [line for line in out.splitlines() if re.search(r":\s*False\b", line)]
    assert not failed
