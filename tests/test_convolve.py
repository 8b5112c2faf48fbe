"""`subsets.convolve` against its definition, out[g] = sum_a x[a] * y[a^-1 g],
read straight off the Cayley table: every group kind, every input shape, and
orders where the non-zero rows of x fill several gathered blocks."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from frameforge import Subset, cyclic, direct_product, generate, parse_group, quaternion8, units_mod
from frameforge import subsets
from frameforge.quotients import normal_quotients
from frameforge.signature_sets import verify_quasi_signature_set
from frameforge.subsets import _BLOCK, _blocks, convolve

GROUPS = {
    "C7": lambda: cyclic(7),
    "C1021": lambda: cyclic(1021),
    "C1201": lambda: cyclic(1201),
    "C2377": lambda: cyclic(2377),
    "C4xC4": lambda: direct_product(cyclic(4), cyclic(4)),
    "Q8": quaternion8,
    "Zmult13": lambda: units_mod(13),
    "Zmult1201": lambda: units_mod(1201),
}
SHAPES = {"vector": (), "column": (1,), "batch": (3,)}
DTYPES = [(np.int16, np.int16), (np.int64, np.int64), (np.int16, np.int64), (np.int64, np.int16)]


def reference(group, x, y):
    """The definition, one table row at a time, in int64."""
    out = np.zeros(y.shape, dtype=np.int64)
    for a in range(group.order):
        out += x[a].astype(np.int64) * y[group.mul[group.inv[a]]]
    return out


@pytest.mark.parametrize("dtypes", DTYPES, ids=lambda d: f"{d[0].__name__}-{d[1].__name__}")
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", GROUPS)
def test_convolve_matches_the_definition(name, shape, dtypes):
    group = GROUPS[name]()
    n = group.order
    rng = np.random.default_rng([n, len(SHAPES[shape]), dtypes[0](0).itemsize])
    # weights in {-2, ..., 2}: sum_a |x[a]| * max|y| <= 4n < 2**15 keeps int16 exact
    x = rng.integers(-2, 3, size=(n, *SHAPES[shape])).astype(dtypes[0])
    y = rng.integers(-2, 3, size=(n, *SHAPES[shape])).astype(dtypes[1])
    got = convolve(group, x, y)
    assert got.dtype == np.result_type(x, y) and got.shape == y.shape
    assert np.array_equal(got, reference(group, x, y))


@pytest.mark.parametrize("name", ["C1201", "C2377", "Zmult1201"])
def test_large_orders_span_several_blocks(name):
    # each of the four non-zero weights of a vector x fills more than one
    # block, so the differential test above crosses block boundaries
    n = GROUPS[name]().order
    x = np.random.default_rng(n).integers(-2, 3, size=n)
    blocks = _blocks(x, _BLOCK // n)
    assert all(len(rows) <= _BLOCK // n for _, rows in blocks)
    per_weight = Counter(int(w) for w, _ in blocks)
    assert sorted(per_weight) == [-2, -1, 1, 2] and min(per_weight.values()) > 1


@pytest.mark.parametrize("name, index_bytes", [("C1201", 0), ("Zmult1201", 12)])
def test_block_temporaries_stay_within_the_stated_bound(name, index_bytes):
    # the _BLOCK comment: 2 bytes per gathered int16 entry, and 12 more in a
    # table group for the int32 row indices and their intp copy; the rest
    # (argsort, weights, output, cyclic windows) is O(y.size).  A batch of 8
    # columns gathers 6 translates of 8 * 1201 entries per block.
    group = GROUPS[name]()
    n = group.order
    for shape in [(n,), (n, 8)]:
        x, y = np.random.default_rng(n).integers(-2, 3, size=(2, *shape)).astype(np.int16)
        assert _BLOCK // y.size == (54 if y.ndim == 1 else 6)
        convolve(group, x, y)  # builds the group's lazy tables outside the trace
        tracemalloc.start()
        try:
            convolve(group, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2 + index_bytes) * _BLOCK + 32 * y.size, shape


def quotient_group():
    """C4xC8/H, |H| = 4: a table group built by `quotients`, not by `make_group`."""
    return max(normal_quotients(parse_group("C4xC8")), key=lambda q: q.order).group


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("name", ["C7", "C4xC4", "Q8", "quotient"])
def test_column_batches_match_the_definition(name, dtype):
    # B from 1 to a few hundred, and the widths where a block holds exactly
    # one translate (kept row by row) and exactly two (the first summed block)
    group = quotient_group() if name == "quotient" else GROUPS[name]()
    n = group.order
    one, two = _BLOCK // n, _BLOCK // (2 * n)
    assert _BLOCK // (n * one) == 1 and _BLOCK // (n * two) == 2
    rng = np.random.default_rng([n, dtype(0).itemsize])
    for width in [1, 2, 3, 7, 64, 255, 300, two, two + 1, one]:
        x, y = rng.integers(-2, 3, size=(2, n, width)).astype(dtype)
        x[rng.random(n) < 0.3] = 0  # rows of x that are all zero, never visited
        x[0] = 0
        got = convolve(group, x, y)
        assert got.dtype == dtype and np.array_equal(got, reference(group, x, y)), width


@pytest.mark.parametrize("peak", [1, 2, 127, 128])
@pytest.mark.parametrize("name", ["C1021", "C2377", "Zmult1201"])
def test_int8_block_sums_match_the_definition(name, peak):
    # a one-vector x over several blocks: max|y| <= 127 sums each block in
    # int8, 128 keeps the wide path; y holds +peak, which int8 cannot hold at 128
    group = GROUPS[name]()
    n = group.order
    rng = np.random.default_rng([n, peak])
    x = rng.integers(-2, 3, size=n).astype(np.int16)
    y = rng.integers(-peak, peak + 1, size=n)
    y[rng.integers(n)] = peak
    assert np.count_nonzero(x) > _BLOCK // n
    for shape in [(n,), (n, 1)]:
        got = convolve(group, x.reshape(shape), y.reshape(shape))
        assert np.array_equal(got, reference(group, x.reshape(shape), y.reshape(shape)))


@pytest.mark.parametrize("rows, total", [(127, 127), (128, 128)])
def test_int8_blocks_stop_at_127_translates(rows, total):
    # in C1021 an int8 block would hold 2 * _BLOCK // 1021 = 128 translates;
    # with y all ones each block sum is its row count, so 128 rows in one
    # block would wrap to -128
    group = cyclic(1021)
    assert 2 * _BLOCK // group.order >= 128
    x = np.zeros(group.order, dtype=np.int16)
    x[1:rows + 1] = 1
    out = convolve(group, x, np.ones(group.order, dtype=np.int16))
    assert out.dtype == np.int16 and (out == total).all()


@pytest.mark.parametrize("name, peak, rows", [
    ("C400", 1, 163), ("C515", 1, 127), ("C2377", 1, 54), ("C2377", 127, 27), ("Zmult1201", 1, 54)])
def test_int8_blocks_hold_no_fewer_translates(monkeypatch, name, peak, rows):
    # an int8 block holds min(_BLOCK // n, 127 // max|y|) rows, doubled where
    # the translates need no index array, and int8 is taken only when that
    # is no fewer than the _BLOCK // n of the wide path
    group = cyclic(int(name[1:])) if name[0] == "C" else GROUPS[name]()
    steps = []
    monkeypatch.setattr(subsets, "_blocks", lambda x, step: steps.append(step) or _blocks(x, step))
    x = np.zeros(group.order, dtype=np.int16)
    x[:2 * (_BLOCK // group.order) + 1] = 1  # several blocks, sum_a x[a] * peak < 2**15
    y = np.full(group.order, peak, dtype=np.int16)
    assert np.array_equal(convolve(group, x, y), reference(group, x, y))
    assert steps == [rows] and rows >= _BLOCK // group.order


def test_zero_and_single_row_inputs():
    group = cyclic(2377)
    y = np.arange(2377, dtype=np.int16) % 7
    assert not convolve(group, np.zeros(2377, dtype=np.int16), y).any()
    x = np.zeros(2377, dtype=np.int16)
    x[5] = -2
    assert np.array_equal(convolve(group, x, y), -2 * np.roll(y, 5))


@pytest.mark.parametrize("name", ["C5", "C2xC4"])
def test_a_batch_of_no_columns_gives_the_empty_product(name):
    group = parse_group(name)
    empty = np.zeros((group.order, 0), dtype=np.int16)
    for x in (empty, np.ones(group.order, dtype=np.int16)):
        out = convolve(group, x, empty)
        assert out.shape == (group.order, 0) and out.dtype == np.int16


def test_thm511_set_with_a_swapped_residue_is_rejected():
    # the p = 2377 residues with one residue pair {r, -r} traded for a
    # non-residue pair: still S = S^-1, so the pair counts must reject it
    hit = generate("thm511", 297, verify=False)[-1]
    p, residues = hit.p, set(hit.residues)
    r = min(residues)
    nr = min(set(range(1, p)) - residues)
    swapped = residues - {r, p - r} | {nr, p - nr}
    verdict = verify_quasi_signature_set(cyclic(p), Subset.of(p, swapped))
    assert not verdict.ok
    assert verdict.reason in ("count-mismatch-on-s", "count-mismatch-on-t")
