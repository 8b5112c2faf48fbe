"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest report.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np

import golden
from frameforge import (
    SearchSpec,
    Subset,
    border_standard,
    build_cube_matrix,
    certify_two_eigenvalue,
    complement_set,
    conjugate_subset,
    cube_necessary_conditions,
    cyclic,
    diffset_to_signature,
    direct_product,
    frame_from_matrix,
    index2_subgroup_set,
    is_hadamard,
    pair_count_table,
    quasi_signature_matrix,
    quaternion8,
    search,
    signature_matrix,
    subgroup_generated,
    switch,
    verify_difference_set,
    verify_quasi_signature_set,
    verify_signature_set,
)
from frameforge.cli import main
from frameforge.matrices import TwoEigenvalueCertificate
from frameforge.subsets import (
    complement_nonidentity,
    inverse_set,
    seidel_coefficients,
    seidel_identity,
)
from frameforge.verdicts import Rejection

from conftest import all_cube_assignments, all_nonidentity_subsets, small_groups_to_order_8
from test_matrices import eis_from_tokens
from test_search import brute_force_hits


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def parse_table_rows(text: str) -> list[tuple[int, int, int]]:
    rows = []
    for line in text.strip().splitlines():
        m, nk = line.split("(", 1)
        n, k = nk.rstrip(")").split(",")
        rows.append((int(m), int(n), int(k)))
    return rows


def test_criterion_1_table_5mod8_reproduction():
    start = time.perf_counter()
    code, out = run_cli("tables", "--algorithm", "thm59", "--max-m", "99")
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = parse_table_rows(out)
    assert len(rows) == 31
    assert rows == golden.TABLE_5MOD8
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 1: PASS - 31 rows reproduced in {elapsed * 1000:.0f} ms")


def test_criterion_2_table_1mod8_reproduction():
    start = time.perf_counter()
    code, out = run_cli("tables", "--algorithm", "thm511", "--max-m", "299")
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = parse_table_rows(out)
    # the published table has 33 printed rows; the m=0 row (p=1, not prime)
    # is degenerate and excluded, leaving these 32
    assert rows == golden.TABLE_1MOD8
    assert rows[0] == (2, 18, 9) and rows[-1] == (297, 2378, 1189)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"criterion 2: PASS - rows (18,9)..(2378,1189) reproduced in {elapsed * 1000:.0f} ms")


def test_criterion_3_printed_matrix_goldens():
    q6 = quasi_signature_matrix(cyclic(5), Subset.of(5, [1, 4]))
    assert np.array_equal(q6.a, golden.CONFERENCE_6)
    assert np.array_equal(q6.square(), 5 * np.eye(6, dtype=np.int64))

    q14 = quasi_signature_matrix(cyclic(13), Subset.of(13, [1, 3, 4, 9, 10, 12]))
    assert np.array_equal(q14.a, golden.CONFERENCE_14)
    assert np.array_equal(q14.square(), 13 * np.eye(14, dtype=np.int64))

    g = quaternion8()
    core = build_cube_matrix(g, g.subset(["-1"]), g.subset(["i", "j", "k"]))
    q9 = border_standard(core)
    assert q9 == eis_from_tokens(golden.CUBE_ROOT_9_TOKENS)
    sqa, sqb = q9.square()
    assert np.array_equal(sqa, 8 * np.eye(9, dtype=np.int64) - 2 * q9.a)
    assert np.array_equal(sqb, -2 * q9.b)
    print("criterion 3: PASS - 6x6, 14x14 and 9x9 goldens match entry-for-entry")


def test_criterion_4_theorem_instances():
    def timed(check):
        start = time.perf_counter()
        verdict = check()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"instance took {elapsed:.3f}s"
        return verdict

    c4 = direct_product(cyclic(4), cyclic(4))
    s4 = c4.subset([f"({i},0)" for i in range(1, 4)] + [f"(0,{i})" for i in range(1, 4)])
    v = timed(lambda: verify_signature_set(c4, s4))
    assert v.ok and v.mu == 2 and (v.params.n, v.params.k) == (16, 6)

    c6 = direct_product(cyclic(6), cyclic(6))
    s6 = c6.subset(
        [f"({i},0)" for i in range(1, 6)]
        + [f"(0,{i})" for i in range(1, 6)]
        + [f"({i},{i})" for i in range(1, 6)]
    )
    v = timed(lambda: verify_signature_set(c6, s6))
    assert v.ok and v.mu == 2 and (v.params.n, v.params.k) == (36, 15)

    c3 = direct_product(cyclic(3), cyclic(3))
    v = timed(
        lambda: verify_quasi_signature_set(
            c3, c3.subset(["(1,0)", "(2,0)", "(0,1)", "(0,2)"])
        )
    )
    assert v.ok and (v.params.n, v.params.k) == (10, 5)

    c5 = direct_product(cyclic(5), cyclic(5))
    s5 = c5.subset(
        [f"({i},0)" for i in range(1, 5)]
        + [f"(0,{i})" for i in range(1, 5)]
        + [f"({i},{i})" for i in range(1, 5)]
    )
    v = timed(lambda: verify_quasi_signature_set(c5, s5))
    assert v.ok and (v.params.n, v.params.k) == (26, 13)

    g6 = cyclic(6)
    v = timed(lambda: index2_subgroup_set(g6, subgroup_generated(g6, [2])))
    assert v.ok and (v.params.n, v.params.k) == (6, 1)

    print("criterion 4: PASS - five theorem instances verified, each under 1 s")


def test_criterion_5_difference_set_suite():
    start = time.perf_counter()

    report = verify_difference_set(cyclic(11), Subset.of(11, [1, 3, 4, 5, 9]))
    assert (report.n, report.k, report.lam) == (11, 5, 2)

    c4 = direct_product(cyclic(4), cyclic(4))
    s4 = c4.subset([f"({i},0)" for i in range(1, 4)] + [f"(0,{i})" for i in range(1, 4)])
    report = verify_difference_set(c4, s4)
    assert (report.n, report.k, report.lam) == (16, 6, 2)
    assert report.reversible and report.hadamard_family

    g64 = direct_product(cyclic(8), cyclic(8))
    half = [f"({x},{y})" for x, y in golden.HADAMARD_64_HALF]
    other = [f"({(-x) % 8},{(-y) % 8})" for x, y in golden.HADAMARD_64_HALF]
    d = g64.subset(half + other)
    report = verify_difference_set(g64, d)
    assert (report.n, report.k, report.lam) == (64, 28, 12)
    assert report.reversible

    verdict = diffset_to_signature(g64, d)
    assert verdict.ok and (verdict.params.n, verdict.params.k) == (64, 28)
    q = signature_matrix(g64, d)
    assert np.array_equal(q.square(), 63 * np.eye(64, dtype=np.int64) + 2 * q.a)
    h = np.eye(64, dtype=np.int64) - q.a
    assert is_hadamard(h)
    assert np.array_equal(h.T @ h, 64 * np.eye(64, dtype=np.int64))

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.3f}s"
    print(f"criterion 5: PASS - difference-set suite exact checks in {elapsed * 1000:.0f} ms")


def test_criterion_6_exhaustive_search_suite():
    timings = {}

    start = time.perf_counter()
    c4 = direct_product(cyclic(4), cyclic(4))
    hits = search(SearchSpec(group=c4, kind="signature"))
    axis = tuple(sorted([f"({i},0)" for i in range(1, 4)] + [f"(0,{i})" for i in range(1, 4)]))
    assert axis in {h.canonical_key[0] for h in hits}
    timings["C4xC4 signature"] = time.perf_counter() - start

    start = time.perf_counter()
    hits = search(SearchSpec(group=cyclic(5), kind="quasi"))
    assert ("1", "4") in {h.canonical_key[0] for h in hits}
    timings["C5 quasi"] = time.perf_counter() - start

    start = time.perf_counter()
    assert search(SearchSpec(group=cyclic(9), kind="cube-pair", mu=-2)) == []
    c3c3 = direct_product(cyclic(3), cyclic(3))
    assert search(SearchSpec(group=c3c3, kind="cube-pair", mu=-2)) == []
    # the same result without the (n, mu) exclusion shortcut
    assert all(
        h.verdict.mu != -2 for h in search(SearchSpec(group=cyclic(9), kind="cube-pair"))
    )
    assert all(
        h.verdict.mu != -2 for h in search(SearchSpec(group=c3c3, kind="cube-pair"))
    )
    timings["cube-pair exclusions"] = time.perf_counter() - start

    start = time.perf_counter()
    for n in (6, 10, 14):
        ks = {h.verdict.params.k for h in search(SearchSpec(group=cyclic(n), kind="signature"))}
        assert ks and ks <= {1, n // 2, n - 1}, (n, ks)
    timings["2p classification"] = time.perf_counter() - start

    assert all(dt < 30.0 for dt in timings.values()), timings
    summary = ", ".join(f"{k} {dt * 1000:.0f} ms" for k, dt in timings.items())
    print(f"criterion 6: PASS - {summary}")


def test_criterion_7_property_suites():
    rng = np.random.default_rng(2024)

    # cross-count symmetry, exhaustively at order <= 8
    for g in small_groups_to_order_8():
        for s in all_nonidentity_subsets(g):
            t = complement_nonidentity(s)
            assert np.array_equal(pair_count_table(g, s, t), pair_count_table(g, t, s))

    # complement duality and conjugation invariance on all small hits
    for g in small_groups_to_order_8():
        for hit in search(SearchSpec(group=g, kind="signature")):
            v = hit.verdict
            dual = verify_signature_set(g, complement_set(g, v.subset))
            assert dual.ok and dual.mu == -v.mu and dual.params.k == g.order - v.params.k
            for t in range(g.order):
                conj = verify_signature_set(g, conjugate_subset(g, v.subset, t))
                assert conj.ok and conj.params == v.params

    # switching invariance of certificates
    q = quasi_signature_matrix(cyclic(13), Subset.of(13, [1, 3, 4, 9, 10, 12]))
    base = certify_two_eigenvalue(q)
    for _ in range(10):
        d = rng.choice([-1, 1], size=14).tolist()
        perm = rng.permutation(14).tolist()
        cert = certify_two_eigenvalue(switch(q, d, perm))
        assert isinstance(cert, TwoEigenvalueCertificate) and cert.params == base.params

    # parity / band / cube screens never contradicted by accepted instances
    for g in small_groups_to_order_8():
        for hit in search(SearchSpec(group=g, kind="signature")):
            assert g.order % 2 == 0 and hit.verdict.mu % 2 == 0
            assert abs(hit.verdict.mu) <= g.order - 2
        for hit in search(SearchSpec(group=g, kind="quasi")):
            n, mu = hit.verdict.params.n, hit.verdict.mu
            assert n % 2 == 0 and mu % 2 == 0 and 6 - n <= 3 * mu <= n - 6
        for hit in search(SearchSpec(group=g, kind="cube-pair")):
            v = hit.verdict
            if v.subset and v.t_subset:
                assert cube_necessary_conditions(v.params.n, v.mu)[0]

    # counting-form vs matrix-form agreement, real kinds
    for g in (cyclic(6), cyclic(7), cyclic(8), quaternion8()):
        for s in all_nonidentity_subsets(g):
            if inverse_set(g, s) != s:
                continue
            verdict = verify_signature_set(g, s)
            cert = certify_two_eigenvalue(signature_matrix(g, s))
            if g.order % 2 == 0:
                assert verdict.ok == isinstance(cert, TwoEigenvalueCertificate)
                if verdict.ok:
                    assert verdict.mu == cert.mu
            quasi = verify_quasi_signature_set(g, s)
            if quasi.ok:
                bordered = certify_two_eigenvalue(quasi_signature_matrix(g, s))
                assert quasi.mu == bordered.mu

    # counting-form vs matrix-form agreement, cube kinds
    for g in (cyclic(3), cyclic(5), direct_product(cyclic(2), cyclic(2))):
        for s, t in all_cube_assignments(g):
            v = complement_nonidentity(s).difference(t)
            if inverse_set(g, s) != s or inverse_set(g, t) != v:
                continue
            core = build_cube_matrix(g, s, t)
            for quasi in (False, True):
                matrix = border_standard(core) if quasi else core
                cert = certify_two_eigenvalue(matrix)
                kind = "cube-quasi" if quasi else "cube-pair"
                columns = seidel_coefficients(g.order, kind, [(s, t)])
                holds, counted = seidel_identity(g, kind, *columns)
                if isinstance(cert, TwoEigenvalueCertificate):
                    assert holds[0] and counted[0] == cert.mu
                else:
                    assert not holds[0]

    print("criterion 7: PASS - symmetry, duality, conjugation, switching, screens, criterion agreement")


def test_criterion_8_numeric_frames():
    rng = np.random.default_rng(4096)
    matrices = {
        "(6,3)": quasi_signature_matrix(cyclic(5), Subset.of(5, [1, 4])),
        "(14,7)": quasi_signature_matrix(cyclic(13), Subset.of(13, [1, 3, 4, 9, 10, 12])),
        "(18,9)": quasi_signature_matrix(cyclic(17), Subset.of(17, [1, 2, 4, 8, 9, 13, 15, 16])),
        "(9,6)": eis_from_tokens(golden.CUBE_ROOT_9_TOKENS),
    }
    for name, q in matrices.items():
        result = frame_from_matrix(q, tol=1e-9)
        assert not isinstance(result, Rejection), name
        frame, report, params = result
        assert f"({params.n},{params.k})" == name
        assert report.tightness_dev < 1e-9, name
        assert report.uniformity_dev < 1e-9, name
        assert report.equiangularity_dev < 1e-9, name
        v = frame.vectors
        for _ in range(100):
            x = rng.normal(size=params.k) + 1j * rng.normal(size=params.k)
            coeffs = v @ x
            assert abs(np.vdot(coeffs, coeffs).real - np.vdot(x, x).real) < 1e-8
    print("criterion 8: PASS - (6,3), (14,7), (18,9), (9,6) frames within 1e-9 / 1e-8")


def test_criterion_9_oracle_equivalence_order_8():
    for group in small_groups_to_order_8():
        for kind in ("signature", "quasi", "cube-pair", "cube-quasi"):
            pruned = [
                (h.canonical_key[0], h.canonical_key[1], h.verdict.mu, h.verdict.params.k)
                for h in search(SearchSpec(group=group, kind=kind))
            ]
            assert pruned == brute_force_hits(group, kind), (group.name, kind)
    print("criterion 9: PASS - pruned search equals naive brute force, orders 2..8, all four kinds")
