"""`subsets.convolve` against its definition, out[g] = sum_a x[a] * y[a^-1 g],
read straight off the Cayley table: every group kind, every input shape, and
orders where the non-zero rows of x fill several gathered blocks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from frameforge import Subset, cyclic, direct_product, generate, parse_group, quaternion8, units_mod
from frameforge.quotients import normal_quotients
from frameforge.signature_sets import verify_quasi_signature_set
from frameforge.subsets import _BLOCK, convolve

from conftest import small_groups_to_order_8

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


def spy_translates(monkeypatch, group):
    """Record each translate `convolve` takes in group: (y's dtype, number
    of rows), the rows of a block or 1 for a single row."""
    calls = []
    real = type(group).left_translates

    def left_translates(self, y):
        translate = real(self, y)
        return lambda a: calls.append((y.dtype, np.size(a))) or translate(a)
    monkeypatch.setattr(type(group), "left_translates", left_translates)
    return calls


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
    # the vectors x of the differential test above, drawn from its seeds,
    # have several weights and more non-zero rows than one block holds, so
    # their einsum crosses block boundaries
    n = GROUPS[name]().order
    for shape in ["vector", "column"]:
        for itemsize in [2, 8]:
            x = np.random.default_rng([n, len(SHAPES[shape]), itemsize]).integers(-2, 3, size=(n, *SHAPES[shape]))
            assert len(np.unique(x[x != 0])) > 1 and np.count_nonzero(x) > _BLOCK // n


@pytest.mark.parametrize("name, index_bytes", [("C1201", 0), ("Zmult1201", 12)])
def test_block_temporaries_stay_within_the_stated_bound(name, index_bytes):
    # the _BLOCK comment: 2 bytes per gathered int16 entry, and 12 more in a
    # table group for the int32 row indices and their intp copy; the rest
    # (non-zero rows, their weights, output, cyclic windows) is O(y.size).
    # x has several weights, so the (n,) vector takes the einsum as a batch
    # does, 54 translates per block; a batch of 8 columns gathers 6
    # translates of 8 * 1201 entries per block.
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
def test_int8_block_sums_match_the_definition(monkeypatch, name, peak):
    # a one-weight vector x over several blocks sums in int8 where 127 //
    # max|y| is at least _BLOCK // n (peak 1, and 2 outside C1021); 127 and
    # 128 keep the wide sum, and y holds +peak, which int8 cannot hold at 128
    group = GROUPS[name]()
    n = group.order
    rng = np.random.default_rng([n, peak])
    x = -2 * rng.integers(0, 2, size=n).astype(np.int16)
    y = rng.integers(-peak, peak + 1, size=n)
    y[rng.integers(n)] = peak
    assert np.count_nonzero(x) > _BLOCK // n
    calls = spy_translates(monkeypatch, group)
    for shape in [(n,), (n, 1)]:
        calls.clear()
        got = convolve(group, x.reshape(shape), y.reshape(shape))
        assert np.array_equal(got, reference(group, x.reshape(shape), y.reshape(shape)))
        assert (calls[0][0] == np.int8) == (127 // peak >= _BLOCK // n)


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
    calls = spy_translates(monkeypatch, group)
    x = np.zeros(group.order, dtype=np.int16)
    x[:2 * (_BLOCK // group.order) + 1] = 1  # several blocks, sum_a x[a] * peak < 2**15
    y = np.full(group.order, peak, dtype=np.int16)
    assert np.array_equal(convolve(group, x, y), reference(group, x, y))
    assert calls[0][1] == rows and rows >= _BLOCK // group.order


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("name", ["C2377", "Zmult1201", "C4xC4"])
def test_several_weights_sum_their_one_weight_parts(name, dtype):
    # x of several weights takes the einsum, as a vector and as an (n, 1)
    # column; each one-weight part is summed (past one block, in int8)
    group = GROUPS[name]()
    n = group.order
    rng = np.random.default_rng([n, dtype(0).itemsize, 2])
    x, y = rng.integers(-2, 3, size=(2, n)).astype(dtype)
    parts = [np.where(x == w, x, 0) for w in (-2, -1, 1, 2)]
    if n > 16:  # every part fills several blocks
        assert min(np.count_nonzero(part) for part in parts) > _BLOCK // n
    whole = convolve(group, x, y)
    assert whole.dtype == dtype and np.array_equal(whole, reference(group, x, y))
    assert np.array_equal(whole, sum(convolve(group, part, y) for part in parts))
    assert np.array_equal(whole, convolve(group, x[:, None], y[:, None])[:, 0])


SMALL_GROUPS = small_groups_to_order_8() + [GROUPS["C4xC4"]()]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), group=st.sampled_from(SMALL_GROUPS), width=st.sampled_from([(), (1,), (2,), (5,)]),
       palette=st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_convolve_is_associative(data, group, width, palette):
    # (x*y)*z == x*(y*z) in int64: x drawn from a palette such as {0, 2} is
    # one-weight, and the product x*y of several weights feeds the einsum
    shape = (group.order, *width)
    x = data.draw(arrays(np.int64, shape, elements=st.sampled_from(palette)))
    y, z = (data.draw(arrays(np.int64, shape, elements=st.integers(-3, 3))) for _ in "yz")
    assert np.array_equal(convolve(group, convolve(group, x, y), z), convolve(group, x, convolve(group, y, z)))


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
