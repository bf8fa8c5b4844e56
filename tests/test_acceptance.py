"""Acceptance suite.

One test per criterion, each printing a single PASS line (run with ``-s`` or
``-v`` to see them).  The shared corpora live in conftest: 1000 undirected
expressions (<= 40 vertices) and 1000 directed weighted expressions
(<= 25 vertices, weights uniform in [-5, 5]), cycling through all seven
class shapes.
"""

import time
from dataclasses import dataclass

import pytest

from graphexpr import (
    DIRECTED,
    INF,
    UNDIRECTED,
    Expression,
    Graph,
    VerificationError,
    assert_stats,
    count_triangles,
    evaluate,
    gen_fixture,
    gen_random,
    is_negative_cycle,
    oracle_apsp,
    oracle_ncd,
    oracle_triangles,
    params,
)
from graphexpr.cli import main as cli_main
from graphexpr.expr import post_order
from graphexpr.graphs import TOL, DistView
from graphexpr.oracle import GenSpec
from graphexpr.paths import (
    apsp_outcome,
    apsp_subst,
    apsp_subst_td,
    ncd_outcome,
    ncd_subst,
    ncd_subst_td,
    potential_dict,
)
from graphexpr.triangles import TriFold, combine_subst, combine_subst_td, triangle_summary

from brute_force import oracle_treedepth
from conftest import SHAPES, answer


def _close(a, b, tol):
    if a == INF or b == INF:
        return a == b
    return abs(a - b) <= tol


@dataclass
class CorpusRun:
    elapsed: float
    mismatches: list
    violations: list
    stats: list  # (n, declared params, FoldStats)


@pytest.fixture(scope="session")
def tc_results(tc_corpus):
    mismatches, stats, violations = [], [], []
    start = time.perf_counter()
    for i, (e, g, p) in enumerate(tc_corpus):
        tri, st = triangle_summary(e)
        if tri.t != oracle_triangles(g):
            mismatches.append(i)
        stats.append((g.n, p, st))
    return CorpusRun(time.perf_counter() - start, mismatches, violations, stats)


@pytest.fixture(scope="session")
def ncd_results(paths_corpus):
    mismatches, stats, violations, verdicts = [], [], [], []
    start = time.perf_counter()
    for i, (e, g, w, p) in enumerate(paths_corpus):
        try:
            value, st = ncd_outcome(e, w, verify=True)
        except VerificationError as exc:
            violations.append((i, str(exc)))
            value, st = ncd_outcome(e, w)
        verdict = is_negative_cycle(value)
        verdicts.append(verdict)
        if verdict != oracle_ncd(g, w):
            mismatches.append(i)
        stats.append((g.n, p, st))
    run = CorpusRun(time.perf_counter() - start, mismatches, violations, stats)
    run.verdicts = verdicts
    return run


@pytest.fixture(scope="session")
def apsp_results(paths_corpus, ncd_results):
    mismatches, stats, violations = [], [], []
    used = 0
    max_dev = 0.0
    start = time.perf_counter()
    for i, (e, g, w, p) in enumerate(paths_corpus):
        if ncd_results.verdicts[i]:
            continue
        if used >= 500:
            break
        used += 1
        try:
            value, st = apsp_outcome(e, w, verify=True)
        except VerificationError as exc:
            violations.append((i, str(exc)))
            value, st = apsp_outcome(e, w)
        stats.append((g.n, p, st))
        ref = oracle_apsp(g, w)
        if is_negative_cycle(value) or is_negative_cycle(ref):
            mismatches.append(i)
            continue
        for pair, want in ref.items():
            got = value.dist[pair]
            if got == INF or want == INF:
                if got != want:
                    mismatches.append((i, pair))
                continue
            max_dev = max(max_dev, abs(got - want))
            if abs(got - want) > 1e-6:
                mismatches.append((i, pair))
    run = CorpusRun(time.perf_counter() - start, mismatches, violations, stats)
    run.used = used
    run.max_dev = max_dev
    return run


# ---------------------------------------------------------------------------
# 1. Triangle oracle equivalence


def test_criterion_1_triangle_oracle_equivalence(tc_corpus, tc_results):
    assert len(tc_corpus) == 1000
    shapes_seen = {tuple(p) for _, _, p in tc_corpus}
    assert shapes_seen == set(SHAPES), "all seven class shapes must be represented"
    assert tc_results.mismatches == []
    assert tc_results.elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: 1000/1000 triangle counts match brute force "
        f"({tc_results.elapsed:.1f}s < 60s)"
    )


# ---------------------------------------------------------------------------
# 2. NCD oracle equivalence


def test_criterion_2_ncd_oracle_equivalence(paths_corpus, ncd_results):
    assert len(paths_corpus) == 1000
    assert ncd_results.mismatches == []
    assert ncd_results.elapsed < 120.0
    n_cycles = sum(ncd_results.verdicts)
    print(
        f"\nACCEPTANCE 2 PASS: 1000/1000 negative-cycle verdicts match "
        f"Bellman-Ford ({n_cycles} cyclic, {ncd_results.elapsed:.1f}s < 120s)"
    )


# ---------------------------------------------------------------------------
# 3. APSP oracle equivalence


def test_criterion_3_apsp_oracle_equivalence(apsp_results):
    assert apsp_results.used == 500, "need 500 negative-cycle-free instances"
    assert apsp_results.mismatches == []
    assert apsp_results.elapsed < 120.0
    print(
        f"\nACCEPTANCE 3 PASS: 500 distance matrices match repeated "
        f"Bellman-Ford entrywise (max dev {apsp_results.max_dev:.2e} <= 1e-6, "
        f"{apsp_results.elapsed:.1f}s < 120s)"
    )


# ---------------------------------------------------------------------------
# 4. Potential feasibility under --verify


def test_criterion_4_potential_feasibility(ncd_results, apsp_results):
    violations = ncd_results.violations + apsp_results.violations
    assert violations == [], violations
    print(
        "\nACCEPTANCE 4 PASS: zero potential/summary violations across all "
        "verified fold nodes of the 1500 solver runs"
    )


# ---------------------------------------------------------------------------
# 5. Framework accounting


def test_criterion_5_framework_accounting(tc_results, ncd_results, apsp_results):
    checked = 0
    for run in (tc_results, ncd_results, apsp_results):
        for n, p, st in run.stats:
            assert st.sum_pattern_order <= 2 * n
            assert st.max_inc_nesting <= p.k
            assert assert_stats(st, n, p) == []
            checked += 1
    print(
        f"\nACCEPTANCE 5 PASS: pattern-order sum <= 2n and inc nesting <= k "
        f"on all {checked} folds"
    )


# ---------------------------------------------------------------------------
# 6. Handler cross-equality on tree-depth patterns


def _tiny_children(order, mode, seed):
    """Real summaries for small child expressions (sizes 1-3)."""
    from graphexpr import gen_weights

    tri, ncd, apsp = [], [], []
    for j, name in enumerate(order):
        budget = 1 + (seed + j) % 3
        child = gen_random(GenSpec(mode, budget=budget, seed=seed * 101 + j))
        g = evaluate(child)
        if mode == UNDIRECTED:
            tri.append((name, triangle_summary(child)[0]))
        else:
            w = gen_weights(g.vertices, -5.0, 5.0, seed * 77 + j)
            ncd.append((name, ncd_outcome(child, w)[0]))
            apsp.append((name, apsp_outcome(child, w)[0]))
    return tri, ncd, apsp


def test_criterion_6_handler_cross_equality():
    # a negative cycle ends the fold, so no handler is handed a child with
    # one; the directed cases that draw such a child compare nothing
    tol = 1e-9
    compared = real = 0
    for seed in range(200):
        depth = 1 + seed % 3
        budget = max(depth, 2) + seed % 9  # pattern order up to 12
        for mode in (UNDIRECTED, DIRECTED):
            pe = gen_random(GenSpec(mode, k=depth, budget=budget, seed=seed)).root
            pg = evaluate(Expression(mode, pe))
            order = pg.vertices
            assert len(order) <= 12
            tri, ncd, apsp = _tiny_children(order, mode, seed)
            if mode == UNDIRECTED:
                assert combine_subst(pg, tri) == combine_subst_td(post_order(pe), tri)
                continue
            if any(is_negative_cycle(s) for _, s in ncd):
                continue
            real += 1
            a = answer(ncd_subst, pg, ncd, TOL)
            b = answer(ncd_subst_td, post_order(pe), ncd, TOL)
            assert is_negative_cycle(a) == is_negative_cycle(b)
            if not is_negative_cycle(a):
                assert _close(a.msp, b.msp, tol)
                pa, pb = potential_dict(a.potential), potential_dict(b.potential)
                for k in pa:
                    assert _close(pa[k], pb[k], tol)
            fa = answer(apsp_subst, pg, apsp, TOL)
            fb = answer(apsp_subst_td, post_order(pe), apsp, TOL)
            assert is_negative_cycle(fa) == is_negative_cycle(fb)
            if not is_negative_cycle(fa):
                assert _close(fa.msp, fb.msp, tol)
                pa, pb = potential_dict(fa.potential), potential_dict(fb.potential)
                for k in pa:
                    assert _close(pa[k], pb[k], tol)
                for field in ("min_out", "min_in"):
                    ma = potential_dict(getattr(fa, field))
                    mb = potential_dict(getattr(fb, field))
                    assert ma.keys() == mb.keys()
                    for k in ma:
                        assert _close(ma[k], mb[k], tol)
                da = DistView([p for p, _ in fa.children], fa.rows)
                db = DistView([p for p, _ in fb.children], fb.rows)
                for pair in da:
                    assert _close(da[pair], db[pair], tol)
        compared += 1
    assert compared == 200
    assert real == 116
    print(
        "\nACCEPTANCE 6 PASS: subst-td handlers equal explicit-pattern "
        "handlers (tc, ncd, apsp) on 200 generated tree-depth patterns"
    )


# ---------------------------------------------------------------------------
# 7. Fixture parameters


def test_criterion_7_fixture_parameters():
    assert tuple(params(gen_fixture("lemma7.1", 4))) == (1, 0, 0)
    assert tuple(params(gen_fixture("substar", 5))) == (3, 0, 0)
    assert tuple(params(gen_fixture("lemma7.2", 3))) == (0, 0, 3)
    for p in range(2, 7):
        g = evaluate(gen_fixture("substar", p))
        assert oracle_treedepth(g, limit=2 * p + 1) == 3
    print(
        "\nACCEPTANCE 7 PASS: fixture params (1,0,0)/(3,0,0)/(0,0,3) and "
        "subdivided-star tree-depth 3 for p in [2,6]"
    )


# ---------------------------------------------------------------------------
# 8. Worked substitution identity


def test_criterion_8_worked_triangle_identity():
    pattern = Graph(UNDIRECTED, ("p", "q", "r"), {("p", "q"), ("p", "r"), ("q", "r")})
    children = [
        ("p", TriFold(2, 0, 0)),  # two non-adjacent vertices
        ("q", TriFold(1, 0, 0)),
        ("r", TriFold(1, 0, 0)),
    ]
    out = combine_subst(pattern, children)
    assert out.t == 2
    # brute force on the explicit 4-vertex graph (K4 minus one edge)
    from graphexpr import parse

    e = parse(
        "(undirected (subst (graph (p q r) ((p q) (p r) (q r)))"
        " ((p (union (vertex a) (vertex b))) (q (vertex c)) (r (vertex d)))))"
    )
    assert count_triangles(e) == oracle_triangles(evaluate(e)) == 2
    print("\nACCEPTANCE 8 PASS: triangle formula gives t=2 on K4 minus an edge")


# ---------------------------------------------------------------------------
# 9. Bench smoke test


def test_criterion_9_bench_smoke(tmp_path, capsys):
    out_file = tmp_path / "bench.tsv"
    start = time.perf_counter()
    code = cli_main(
        [
            "bench", "tc", "-k", "2", "-h", "4", "-l", "0",
            "--sizes", "1000,2000,4000", "--seed", "0", "-o", str(out_file),
        ]
    )
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    rows = [r.split("\t") for r in out_file.read_text().splitlines()]
    ns = [int(r[0]) for r in rows[1:]]
    assert ns == [1000, 2000, 4000]
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 9 PASS: bench tc (k,h,l)=(2,4,0) over n=1000,2000,4000 "
        f"completed in {elapsed:.1f}s < 60s with monotone n rows"
    )
