import pytest

import golden
from frameforge import (
    Subset,
    certify_two_eigenvalue,
    cyclic,
    generate,
    is_conference,
    quasi_signature_matrix,
    verify_quasi_signature_set,
)
from frameforge.numbertheory import multiplicative_order


def test_order_of_two():
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(2, 13) == 12
    assert multiplicative_order(2, 17) == 8
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 73) == 9


def test_5mod8_first_hits():
    hits = generate("thm59", 1)
    assert [(h.m, h.n, h.k) for h in hits] == [(0, 6, 3), (1, 14, 7)]
    assert hits[0].residues == (1, 4)
    assert hits[1].residues == (1, 3, 4, 9, 10, 12)


def test_5mod8_skips_composite():
    hits = generate("thm59", 2)
    assert [h.m for h in hits] == [0, 1]  # m=2 gives 21 = 3*7


def test_1mod8_first_hits():
    hits = generate("thm511", 5)
    assert [(h.m, h.n, h.k) for h in hits] == [(2, 18, 9), (5, 42, 21)]
    assert hits[0].residues == (1, 2, 4, 8, 9, 13, 15, 16)


def test_1mod8_skips_wrong_order():
    # 73 = 8*9 + 1 is prime but 2 has order 9, not 36
    hits = generate("thm511", 9)
    assert all(h.m != 9 for h in hits)


def test_full_table_5mod8():
    hits = generate("thm59", 99, verify=False)
    assert [(h.m, h.n, h.k) for h in hits] == golden.TABLE_5MOD8


def test_full_table_1mod8():
    hits = generate("thm511", 299, verify=False)
    assert [(h.m, h.n, h.k) for h in hits] == golden.TABLE_1MOD8


def test_generate_dispatch():
    hits = generate("thm59", 1, verify=False)
    assert [(h.m, h.n, h.k) for h in hits] == [(0, 6, 3), (1, 14, 7)]
    hits = generate("thm511", 2, verify=False)
    assert [(h.m, h.n, h.k) for h in hits] == [(2, 18, 9)]
    with pytest.raises(ValueError):
        generate("other", 3)


@pytest.mark.parametrize("call", [
    lambda: generate("thm59", -3),
    lambda: generate("thm511", -1, verify=False),
    lambda: generate("thm59", -1),
    lambda: generate("thm511", -2),
])
def test_negative_bound_is_an_error(call):
    # an empty table would look like a valid bound with no hits
    with pytest.raises(ValueError, match="max_m"):
        call()


def test_every_hit_reverifies_full_range():
    # the verify=True path re-runs the quasi-set verifier on every hit
    hits = generate("thm59", 99, verify=True) + generate("thm511", 299, verify=True)
    assert len(hits) == len(golden.TABLE_5MOD8) + len(golden.TABLE_1MOD8)
    for hit in hits[:4]:
        verdict = verify_quasi_signature_set(cyclic(hit.p), Subset.of(hit.p, hit.residues))
        assert verdict.ok and verdict.mu == 0
        assert (verdict.params.n, verdict.params.k) == (hit.n, hit.k)


@pytest.mark.parametrize("m,p", [(0, 5), (1, 13), (2, 17), (5, 41)])
def test_bordered_matrices_are_conference(m, p):
    algorithm = "thm59" if p % 8 == 5 else "thm511"
    hit = [h for h in generate(algorithm, m, verify=False) if h.m == m][0]
    matrix = quasi_signature_matrix(cyclic(p), Subset.of(p, hit.residues))
    assert is_conference(matrix.a)
    cert = certify_two_eigenvalue(matrix)
    assert cert.mu == 0 and cert.params.k == (p + 1) // 2


def test_midsize_matrix_is_conference():
    hit = [h for h in generate("thm511", 12, verify=False) if h.p == 97][0]
    matrix = quasi_signature_matrix(cyclic(97), Subset.of(97, hit.residues))
    assert is_conference(matrix.a)


def test_largest_table_hit_certifies_exactly():
    # the (2378, 1189) row: full entrywise certificate at the top of the range
    hit = generate("thm511", 297, verify=False)[-1]
    assert (hit.p, hit.n, hit.k) == (2377, 2378, 1189)
    matrix = quasi_signature_matrix(cyclic(hit.p), Subset.of(hit.p, hit.residues))
    cert = certify_two_eigenvalue(matrix)
    assert cert.mu == 0 and (cert.params.n, cert.params.k) == (2378, 1189)
    assert is_conference(matrix.a)
