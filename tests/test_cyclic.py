"""Table-free cyclic groups: the lazily built table, the slice translates,
and the certified paths that never need a Cayley table."""

import json

import numpy as np
import pytest

import frameforge.groups
from frameforge import cyclic, generate, make_group, regrep_sum
from frameforge.cli import main
from frameforge.subsets import convolve


def addition_table(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.int32)
    table = i[:, None] + i
    table %= n
    return table


@pytest.mark.parametrize("n", [*range(1, 65), 797, 2377, 4096])
def test_lazy_table_is_the_validated_addition_table(n):
    g = cyclic(n)
    assert "mul" not in vars(g)  # nothing is built until the table is read
    table = g.mul
    assert table.dtype == np.int32 and table.flags.c_contiguous
    assert table.tobytes() == addition_table(n).tobytes()
    assert not table.flags.writeable
    assert g.mul is table
    assert np.array_equal(g.inv, -np.arange(n) % n) and not g.inv.flags.writeable


def test_lazy_table_goes_through_make_group(monkeypatch):
    def refuse(*args):
        raise ValueError("validated")

    monkeypatch.setattr(frameforge.groups, "make_group", refuse)
    with pytest.raises(ValueError, match="validated"):
        cyclic(6).mul


@pytest.mark.parametrize("n", [1, 2, 5, 12, 97, 256])
def test_slice_translates_match_the_dense_table(n):
    rng = np.random.default_rng(n)
    g = cyclic(n)
    dense = make_group(f"dense C{n}", addition_table(n), g.labels)
    for shape in [(n,), (n, 7)]:
        x = rng.integers(-1, 2, size=shape, dtype=np.int16)
        y = rng.integers(-1, 2, size=shape, dtype=np.int16)
        got = convolve(g, x, y)
        assert got.dtype == np.int16 and np.array_equal(got, convolve(dense, x, y))
    coeffs = rng.integers(-1, 2, size=n)
    coeffs[0] = 0
    assert np.array_equal(regrep_sum(g, coeffs), regrep_sum(dense, coeffs))
    assert "mul" not in vars(g)


@pytest.fixture
def no_tables(monkeypatch):
    """Fail the test if anything builds a Cayley table."""
    def refuse(name, *args):
        raise AssertionError(f"built the Cayley table of {name}")

    monkeypatch.setattr(frameforge.groups, "make_group", refuse)


def test_certified_generation_builds_no_table(no_tables):
    hits = generate("thm511", 299, verify=True)
    assert hits and hits[-1].p == 2377


def test_emitted_matrix_builds_no_table(no_tables, capsys):
    hit = generate("thm59", 99, verify=False)[-1]
    argv = ["tables", "--algorithm", "thm59", "--max-m", "99", "--emit-matrix", str(hit.m)]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == hit.n and payload["mu"] == 0

