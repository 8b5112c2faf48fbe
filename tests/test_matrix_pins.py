"""Pins on the exact matrix operations.

The digests are sha256 over one line per input matrix: `str` of the
two-eigenvalue certificate or rejection, and the `matrix_to_json` text of
the bordered and the standard-form matrix.  The inputs are every symmetric
+-1 Seidel matrix with n <= 5, every Hermitian Eisenstein one with n <= 4,
and seeded matrices that are not self-adjoint or not two-eigenvalue, so
every rejection reason and detail text is covered.  `switch` is compared
with a per-cell `EisensteinInt` loop kept here as the reference.
"""

from __future__ import annotations

import hashlib
from itertools import product

import numpy as np
import pytest

from frameforge import (
    SeidelMatrixEis,
    SeidelMatrixInt,
    border_standard,
    certify_two_eigenvalue,
    matrix_to_json,
    switch,
    to_standard_form,
)
from frameforge.eisenstein import CUBE_ROOTS, EisensteinInt


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(map(str, lines)).encode()).hexdigest()


def _symmetric_int(n):
    """Every symmetric +-1 Seidel matrix of size n."""
    upper = np.triu_indices(n, 1)
    for signs in product((1, -1), repeat=len(upper[0])):
        m = np.zeros((n, n), dtype=np.int64)
        m[upper] = signs
        yield SeidelMatrixInt(m + m.T)


def _hermitian_eis(n):
    """Every Hermitian Eisenstein Seidel matrix of size n."""
    upper = np.triu_indices(n, 1)
    for units in product(CUBE_ROOTS, repeat=len(upper[0])):
        a = np.zeros((n, n), dtype=np.int64)
        b = np.zeros((n, n), dtype=np.int64)
        a[upper] = [z.a for z in units]
        b[upper] = [z.b for z in units]
        # conj(a + b w) = (a - b) - b w below the diagonal
        yield SeidelMatrixEis(a + (a - b).T, b - b.T)


def _random_int(rng, n, symmetric):
    m = rng.choice([-1, 1], size=(n, n)).astype(np.int64)
    if symmetric:
        m = np.triu(m, 1) + np.triu(m, 1).T
    np.fill_diagonal(m, 0)
    return SeidelMatrixInt(m)


def _random_eis(rng, n):
    codes = rng.integers(0, 3, size=(n, n))
    a = np.array([z.a for z in CUBE_ROOTS])[codes]
    b = np.array([z.b for z in CUBE_ROOTS])[codes]
    np.fill_diagonal(a, 0)
    np.fill_diagonal(b, 0)
    return SeidelMatrixEis(a, b)


def _seeded(seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    for n in range(2, 9):
        out += [_random_int(rng, n, symmetric=False) for _ in range(4)]
        out += [_random_int(rng, n, symmetric=True) for _ in range(4)]
        out += [_random_eis(rng, n) for _ in range(4)]
    return out


CORPORA = {
    "int": lambda: [q for n in range(6) for q in _symmetric_int(n)],
    "eis": lambda: [q for n in range(1, 5) for q in _hermitian_eis(n)],
    "seeded": _seeded,
}

CERTIFY_DIGESTS = {
    "int": "471d4df429ac8e1f2804c14b7b863c265b35a12a9793e12a2e779975cd4d9f04",
    "eis": "245290b7dbc3e4d9dc65c37337b9d8dc22d67f5c3348f89cda52cfe340a7ec91",
    "seeded": "46f3651c488952c2cd9c452fc5d31d05762774015c354378a8ded318bc4aff5f",
}

BORDER_DIGESTS = {
    "int": "95781c9f1bded96b842bbe9498ecf92da055f11eb466df176491f6b7fa197ab5",
    "eis": "18a11d796927f3685682edd9875fce7e01ce5053956dd8a51ca99b345f9ba1ad",
    "seeded": "88afed5a4e75bf9c30e4eb2461547fd5cbbbbaee27b8e3386817cbf5139c8e51",
}

STANDARD_DIGESTS = {
    "int": "a0866ce1c30dce94dfd3a7d99168d0e1d311c8131880314dbc7f2bba17649867",
    "eis": "7a38989e11b882a83a0d442b0fe12d36b2211600a6cc31cb0584f7a8bb27a261",
    "seeded": "8b90f15b4666592aba720e85c300f69827ccf16a9b11f6546d82892eb9f2b2c6",
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_certificates_are_pinned(corpus):
    results = [certify_two_eigenvalue(q) for q in CORPORA[corpus]()]
    assert _digest(results) == CERTIFY_DIGESTS[corpus]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_bordered_matrices_are_pinned(corpus):
    texts = [matrix_to_json(border_standard(q)) for q in CORPORA[corpus]()]
    assert _digest(texts) == BORDER_DIGESTS[corpus]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_standard_forms_are_pinned(corpus):
    texts = [matrix_to_json(to_standard_form(q)) for q in CORPORA[corpus]()]
    assert _digest(texts) == STANDARD_DIGESTS[corpus]


def _switch_reference(q, units, perm):
    """result[i, j] = d[i] * q[perm[i], perm[j]] * conj(d[j]), cell by cell."""
    n = q.n
    a = np.empty((n, n), dtype=np.int64)
    b = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            z = units[i] * q.entry(int(perm[i]), int(perm[j])) * units[j].conjugate()
            a[i, j], b[i, j] = z.a, z.b
    return a, b


@pytest.mark.parametrize("seed", range(6))
def test_switch_matches_the_per_cell_reference(seed):
    rng = np.random.default_rng(900 + seed)
    for n in (1, 2, 3, 7, 16, 30):
        q = _random_eis(rng, n)
        units = [CUBE_ROOTS[int(i)] for i in rng.integers(0, 3, size=n)]
        perm = rng.permutation(n)
        out = switch(q, units, perm.tolist())
        a, b = _switch_reference(q, units, perm)
        assert isinstance(out, SeidelMatrixEis)
        assert np.array_equal(out.a, a) and np.array_equal(out.b, b)


@pytest.mark.parametrize("seed", range(3))
def test_integer_switch_matches_the_per_cell_reference(seed):
    rng = np.random.default_rng(950 + seed)
    for n in (1, 2, 5, 12, 30):
        q = _random_int(rng, n, symmetric=bool(seed % 2))
        signs = rng.choice([-1, 1], size=n).tolist()
        perm = rng.permutation(n)
        out = switch(q, signs, perm.tolist())
        units = [EisensteinInt(s, 0) for s in signs]
        expected = np.array(
            [[(units[i] * EisensteinInt(int(q.data[perm[i], perm[j]]), 0) * units[j]).a
              for j in range(n)] for i in range(n)],
            dtype=np.int64,
        ).reshape(n, n)
        assert isinstance(out, SeidelMatrixInt)
        assert np.array_equal(out.data, expected)
