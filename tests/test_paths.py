"""Shortest-path machinery: potentials, negative cycle detection, all-pairs
distances, handler cross-equality, oracle equivalence."""

import copy
import dataclasses
import heapq
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexpr import (
    DIRECTED,
    INF,
    ContractViolation,
    Expression,
    Graph,
    InputError,
    all_pairs,
    apsp_outcome,
    check_potential,
    detect_negative_cycle,
    edge_shift,
    evaluate,
    fold,
    gen_weights,
    is_negative_cycle,
    ncd_outcome,
    normalize,
    oracle_apsp,
    oracle_ncd,
    parse,
    paths,
    validate_or_raise,
)
from graphexpr.expr import (
    Empty,
    Inc,
    Join,
    Pattern,
    Subst,
    Union,
    Vertex,
    collect_vertex_names,
    evaluate_node,
    post_order,
)
from graphexpr.graphs import TOL, DistView, floyd_vertex_weighted
from graphexpr.oracle import GenSpec, gen_random
from graphexpr.paths import (
    ModuleSummary,
    NcdSummary,
    _full_singleton,
    apsp_handlers,
    apsp_subst,
    apsp_subst_td,
    ncd_subst,
    ncd_subst_td,
    potential_dict,
    solve_tolerance,
    to_full_summary,
)

from brute_force import shortest_path_potential
from conftest import SHAPES, _need, answer, corpus_instance


def close(a, b, tol=1e-9):
    if a == INF or b == INF:
        return a == b
    return abs(a - b) <= tol


def dgraph(vertices, edges):
    return Graph(DIRECTED, vertices, edges)


# ---------------------------------------------------------------------------
# shortest_path_potential


def test_potential_all_zero_weights():
    g = dgraph("abc", [("a", "b"), ("b", "c")])
    pi = shortest_path_potential(g, {v: 0.0 for v in "abc"})
    assert all(v == 0.0 for v in pi.values())


def test_potential_single_negative_edge():
    g = dgraph("ab", [("a", "b")])
    pi = shortest_path_potential(g, {"a": -1.0, "b": 7.0})
    assert pi == {"a": 0.0, "b": -1.0}
    assert check_potential(g, edge_shift(g, {"a": -1.0, "b": 7.0}), pi)


def test_potential_edgeless_is_zero():
    g = dgraph("abc", [])
    assert shortest_path_potential(g, {"a": 3.0, "b": -9.0, "c": 0.0}) == {
        "a": 0.0,
        "b": 0.0,
        "c": 0.0,
    }


def test_potential_raises_on_negative_cycle():
    g = dgraph("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(ContractViolation):
        shortest_path_potential(g, {"a": -3.0, "b": 2.0})


# ---------------------------------------------------------------------------
# inc handler through small expressions


def test_ncd_inc_negative_tail():
    e = parse("(directed (inc x ((a x)) (vertex a)))")
    value, _ = ncd_outcome(e, {"a": -2.0, "x": -1.0})
    assert not is_negative_cycle(value)
    assert close(value.msp, -3.0)


def test_ncd_inc_detects_cycle_through_new_vertex():
    e = parse("(directed (inc x ((a x) (x a)) (vertex a)))")
    assert detect_negative_cycle(e, {"a": -3.0, "x": 2.0})


def test_ncd_inc_isolated_vertex_msp():
    e = parse("(directed (inc x () (union (vertex a) (vertex b))))")
    value, _ = ncd_outcome(e, {"a": -2.0, "b": 7.0, "x": 5.0})
    assert close(value.msp, -2.0)
    value2, _ = ncd_outcome(e, {"a": 6.0, "b": 7.0, "x": 5.0})
    assert close(value2.msp, 5.0)


def test_ncd_inc_feasibility_needs_entry_shift():
    # vertex u reaches x but x cannot reach u; the potential must drop on
    # the component feeding x although no negative cycle exists
    e = parse(
        "(directed (inc x ((u x) (x v))"
        " (union (inc u ((a u)) (vertex a)) (vertex v))))"
    )
    w = {"a": -10.0, "u": 0.0, "v": 0.0, "x": 0.0}
    value, _ = ncd_outcome(e, w, verify=True)
    assert not is_negative_cycle(value)
    g = evaluate(e)
    assert check_potential(g, edge_shift(g, w), value.potential)
    assert close(value.msp, -10.0)


def test_backward_search_names_the_child_edge_tail_first():
    # the child's edge a -> b is infeasible under pi; the search back from
    # x's in-name b meets it from its head, and still names it (a, b)
    e = parse("(directed (inc x ((b x)) (inc b ((a b)) (vertex a))))")
    w = {"a": 0.0, "b": 0.0, "x": 0.0}
    with pytest.raises(ContractViolation, match=r"edge \('a', 'b'\)"):
        f = NcdSummary({"a": 0.0, "b": 5.0}, 0.0)
        paths._inc_core(f, "x", {"b"}, (), e._order, [(0, len(e._order) - 1)], w, TOL)


class _HeapSpy:
    """``heapq`` as the searches see it, recording every vertex queued."""

    def __init__(self):
        self.queued = []

    def heapify(self, heap):
        self.queued += [v for _, v in heap]
        heapq.heapify(heap)

    def heappush(self, heap, item):
        self.queued.append(item[1])
        heapq.heappush(heap, item)

    heappop = staticmethod(heapq.heappop)


def test_inc_searches_never_queue_a_vertex_without_edges(monkeypatch):
    # y's searches start at x, whose out- and in-names are among 2000
    # vertices without edges of their own; x's searches start at those
    r = 2000
    outs = " ".join(f"(x v{i})" for i in range(0, r, 5))
    ins = " ".join(f"(v{i} x)" for i in range(2, r, 5))
    leaves = " ".join(f"(inc v{i} () (empty))" for i in range(r))
    e = parse(f"(directed (inc y ((y x) (x y)) (inc x ({outs} {ins}) (union {leaves}))))")
    w = {f"v{i}": float(i % 5) for i in range(r)} | {"x": 1.0, "y": -1.0}
    # the adjacency holds a list only for a vertex with an edge that way
    _, out, inn = evaluate_node(e._order, DIRECTED)
    edges = evaluate(e).edges
    assert set(out) == {a for a, _ in edges} and set(inn) == {b for _, b in edges}
    assert all(out.values()) and all(inn.values())
    for outcome in (ncd_outcome, apsp_outcome):
        spy = _HeapSpy()
        monkeypatch.setattr(paths, "heapq", spy)
        value, _ = outcome(e, w)
        monkeypatch.undo()
        assert value.msp == -1.0
        # x is the only vertex with both out- and in-edges in y's child
        assert set(spy.queued) == {"x"}


# ---------------------------------------------------------------------------
# subst handlers


def edge_pattern():
    return dgraph(("p", "q"), {("p", "q")})


def two_cycle_pattern():
    return dgraph(("p", "q"), {("p", "q"), ("q", "p")})


def test_ncd_subst_two_cycle_with_negative_sum():
    children = [
        ("p", _ncd_single("a", -3.0)),
        ("q", _ncd_single("b", 2.0)),
    ]
    assert is_negative_cycle(answer(ncd_subst, two_cycle_pattern(), children, TOL))


def test_ncd_subst_edge_pattern_msp():
    children = [("p", _ncd_single("a", 1.0)), ("q", _ncd_single("b", -2.0))]
    out = ncd_subst(edge_pattern(), children, TOL)
    assert close(out.msp, -2.0)


def test_ncd_subst_edgeless_pattern_is_min():
    pat = dgraph(("p", "q"), ())
    children = [("p", _ncd_single("a", 4.0)), ("q", _ncd_single("b", 7.0))]
    assert close(ncd_subst(pat, children, TOL).msp, 4.0)


def _ncd_single(name, weight):
    return NcdSummary({name: 0.0}, weight)


# ---------------------------------------------------------------------------
# apsp handlers, hand-checked tiny instances


def test_apsp_subst_directed_edge():
    children = [("p", _full_singleton("a", 1.0)), ("q", _full_singleton("b", 5.0))]
    out = apsp_subst(edge_pattern(), children, TOL)
    assert isinstance(out, ModuleSummary)
    assert close(_pattern_dist(out)[("p", "q")], 6.0)
    min_out, min_in = potential_dict(out.min_out), potential_dict(out.min_in)
    assert close(min_out["a"], 1.0)
    assert close(min_out["b"], 5.0)
    assert close(min_in["b"], 5.0)
    assert close(out.msp, 1.0)


def test_apsp_subst_edgeless_keeps_child_minima():
    pat = dgraph(("p", "q"), ())
    children = [("p", _full_singleton("a", 2.0)), ("q", _full_singleton("b", 9.0))]
    out = apsp_subst(pat, children, TOL)
    min_out = potential_dict(out.min_out)
    assert close(min_out["a"], 2.0)
    assert close(min_out["b"], 9.0)


def test_unions_call_no_floyd(monkeypatch):
    # a normalized union is a chain of substitutions into an edgeless
    # pattern: a disjoint union with zero shifts, which needs no Floyd
    from graphexpr import gen_weights, paths

    calls = []
    real = paths.floyd_vertex_weighted
    monkeypatch.setattr(
        paths, "floyd_vertex_weighted", lambda *a: calls.append(a) or real(*a)
    )
    names = [f"v{i}" for i in range(10**3)]
    w = gen_weights(names, -5.0, 5.0, 7)
    for leaf in ("(vertex {})", "(inc {} () (empty))"):
        e = parse("(directed (union " + " ".join(leaf.format(v) for v in names) + "))")
        for solve in (ncd_outcome, apsp_outcome):
            value, _ = solve(e, w)
            assert value.msp == min(w.values()), (leaf, solve.__name__)
            assert calls == [], (leaf, solve.__name__)
    # a join's pattern has edges, so its substitutions still run Floyd
    e = parse("(directed (join (vertex v0) (union (vertex v1) (vertex v2))))")
    for solve in (ncd_outcome, apsp_outcome):
        solve(e, w)
        assert len(calls) == 1, solve.__name__
        calls.clear()


def test_apsp_subst_bidirected_pair():
    children = [("p", _full_singleton("a", -1.0)), ("q", _full_singleton("b", 3.0))]
    out = apsp_subst(two_cycle_pattern(), children, TOL)
    assert close(_pattern_dist(out)[("p", "q")], 2.0)
    assert close(_pattern_dist(out)[("q", "p")], 2.0)
    assert close(potential_dict(out.min_out)["a"], -1.0)


def test_apsp_inc_two_vertex_cycle():
    e = parse("(directed (inc x ((a x) (x a)) (vertex a)))")
    w = {"a": 1.0, "x": 2.0}
    value, _ = apsp_outcome(e, w)
    assert close(value.dist[("a", "a")], 1.0)
    assert close(value.dist[("a", "x")], 3.0)
    assert close(value.dist[("x", "a")], 3.0)
    assert close(value.dist[("x", "x")], 2.0)


def test_apsp_inc_isolated_vertex():
    e = parse("(directed (inc x () (vertex a)))")
    value, _ = apsp_outcome(e, {"a": 4.0, "x": 9.0})
    assert close(value.dist[("x", "x")], 9.0)
    assert value.dist[("a", "x")] == INF
    assert close(value.dist[("a", "a")], 4.0)


def test_apsp_inc_shortcut_through_new_vertex():
    # the old route a -> c -> b costs 10; through the new vertex x it is 3
    e = parse(
        "(directed (inc x ((a x) (x b))"
        " (subst (graph (p q r) ((p q) (q r)))"
        " ((p (vertex a)) (q (vertex c)) (r (vertex b))))))"
    )
    w = {"a": 1.0, "b": 1.0, "c": 8.0, "x": 1.0}
    value, _ = apsp_outcome(e, w, verify=True)
    assert close(value.dist[("a", "b")], 3.0)
    heavy = {"a": 1.0, "b": 1.0, "c": 8.0, "x": 20.0}
    value2, _ = apsp_outcome(e, heavy)
    assert close(value2.dist[("a", "b")], 10.0)


# ---------------------------------------------------------------------------
# module-to-full expansion


def test_to_full_single_subst_under_root():
    children = [("p", _full_singleton("a", 1.0)), ("q", _full_singleton("b", 5.0))]
    full = to_full_summary(apsp_subst(edge_pattern(), children, TOL))
    assert close(full.dist[("a", "b")], 6.0)
    assert full.dist[("b", "a")] == INF
    assert close(full.dist[("a", "a")], 1.0)


def test_to_full_detour_through_outside():
    # u and v sit in one module; the cheap route leaves the module through
    # the heavily negative outside vertex z: u -> z -> v
    e = parse(
        "(directed (subst (graph (p z) ((p z) (z p)))"
        " ((p (union (vertex u) (vertex v))) (z (vertex zz)))))"
    )
    w = {"u": 1.0, "v": 1.0, "zz": -1.0}
    value, _ = apsp_outcome(e, w, verify=True)
    assert close(value.dist[("u", "v")], 1.0)
    ref = oracle_apsp(evaluate(e), w)
    for pair, want in ref.items():
        assert close(value.dist[pair], want, 1e-6)


def test_to_full_edgeless_everything():
    e = parse("(directed (union (vertex a) (vertex b) (vertex c)))")
    w = {"a": 1.0, "b": -2.0, "c": 5.0}
    value, _ = apsp_outcome(e, w)
    for u in "abc":
        for v in "abc":
            if u == v:
                assert close(value.dist[(u, v)], w[u])
            else:
                assert value.dist[(u, v)] == INF


# ---------------------------------------------------------------------------
# subst-td handlers mirror the explicit-pattern handlers


def _summaries_for(names, weights, kind):
    if kind == "ncd":
        return [(nm, _ncd_single(nm.upper(), wt)) for nm, wt in zip(names, weights)]
    return [(nm, _full_singleton(nm.upper(), wt)) for nm, wt in zip(names, weights)]


def test_subst_td_directed_path_pattern():
    from graphexpr.expr import Empty, Inc

    leaf = Inc("p1", frozenset(), frozenset(), Empty())
    mid = Inc("p2", frozenset({"p1"}), frozenset(), leaf)  # p1 -> p2
    top = Inc("p3", frozenset({"p2"}), frozenset(), mid)  # p2 -> p3
    pg = evaluate(Expression(DIRECTED, top))
    names = pg.vertices
    assert names == ("p1", "p2", "p3")
    children = _summaries_for(names, (1.0, 2.0, 3.0), "apsp")
    out = apsp_subst_td(post_order(top), children, TOL)
    assert close(_pattern_dist(out)[("p1", "p3")], 6.0)
    ref = apsp_subst(pg, children, TOL)
    _assert_module_summaries_equal(out, ref)


def test_subst_td_negative_cycle_in_pattern():
    from graphexpr.expr import Empty, Inc

    leaf = Inc("p1", frozenset(), frozenset(), Empty())
    top = Inc("p2", frozenset({"p1"}), frozenset({"p1"}), leaf)  # 2-cycle
    children = _summaries_for(("p1", "p2"), (-3.0, 2.0), "ncd")
    assert is_negative_cycle(answer(ncd_subst_td, post_order(top), children, TOL))


def _pattern_dist(s):
    """The pattern distances of a ModuleSummary, read by ``(p, q)``."""
    return DistView([p for p, _ in s.children], s.rows)


def _assert_module_summaries_equal(a, b, tol=1e-9):
    assert close(a.msp, b.msp, tol)
    pa, pb = potential_dict(a.potential), potential_dict(b.potential)
    assert pa.keys() == pb.keys()
    for k in pa:
        assert close(pa[k], pb[k], tol)
    for field in ("min_out", "min_in"):
        ma, mb = potential_dict(getattr(a, field)), potential_dict(getattr(b, field))
        assert ma.keys() == mb.keys()
        for k in ma:
            assert close(ma[k], mb[k], tol)
    assert set(a.omega) == set(b.omega)
    da, db = _pattern_dist(a), _pattern_dist(b)
    for pair in db:
        assert close(da[pair], db[pair], tol)


def test_handler_cross_equality_on_generated_patterns():
    for seed in range(60):
        depth = 1 + seed % 3
        pe = gen_random(
            GenSpec(DIRECTED, k=depth, budget=max(depth, 2) + seed % 6, seed=seed)
        ).root
        pg = evaluate(Expression(DIRECTED, pe))
        names = pg.vertices
        weights = [((seed + i * 7) % 11) - 5.0 for i in range(len(names))]

        ncd_children = _summaries_for(names, weights, "ncd")
        a = answer(ncd_subst, pg, ncd_children, TOL)
        b = answer(ncd_subst_td, post_order(pe), ncd_children, TOL)
        assert is_negative_cycle(a) == is_negative_cycle(b)
        if not is_negative_cycle(a):
            assert close(a.msp, b.msp)
            pa, pb = potential_dict(a.potential), potential_dict(b.potential)
            for k in pa:
                assert close(pa[k], pb[k])

        apsp_children = _summaries_for(names, weights, "apsp")
        fa = answer(apsp_subst, pg, apsp_children, TOL)
        fb = answer(apsp_subst_td, post_order(pe), apsp_children, TOL)
        assert is_negative_cycle(fa) == is_negative_cycle(fb)
        if not is_negative_cycle(fa):
            _assert_module_summaries_equal(fa, fb)


def _child_state(children):
    """What a handler could change in its children: each potential, walked
    afresh, and a deep copy of every other field."""
    state = []
    for name, s in children:
        fields = {f.name: getattr(s, f.name) for f in dataclasses.fields(s)}
        del fields["potential"]
        state.append((name, potential_dict(s.potential), copy.deepcopy(fields)))
    return state


def test_substitution_handlers_leave_their_children_alone():
    # the first child is itself a substitution, so its potential is a
    # shifted union; the pattern is the path p1 -> p2 -> p3
    leaf = Inc("p1", frozenset(), frozenset(), Empty())
    mid = Inc("p2", frozenset({"p1"}), frozenset(), leaf)
    top = Inc("p3", frozenset({"p2"}), frozenset(), mid)
    pg = evaluate(Expression(DIRECTED, top))
    pair = [("p", ("a", -2.0)), ("q", ("b", 3.0))]

    ncd = [
        ("p1", ncd_subst(edge_pattern(), [(p, _ncd_single(*v)) for p, v in pair], TOL)),
        ("p2", _ncd_single("c", -1.0)),
        ("p3", _ncd_single("d", 0.5)),
    ]
    before = _child_state(ncd)
    for handler in (
        lambda: ncd_subst(pg, ncd, TOL),
        lambda: ncd_subst_td(post_order(top), ncd, TOL),
    ):
        a, b = handler(), handler()
        assert a.msp == b.msp
        assert potential_dict(a.potential) == potential_dict(b.potential)
        assert _child_state(ncd) == before

    apsp = [
        ("p1", apsp_subst(edge_pattern(), [(p, _full_singleton(*v)) for p, v in pair], TOL)),
        ("p2", _full_singleton("c", -1.0)),
        ("p3", _full_singleton("d", 0.5)),
    ]
    before = _child_state(apsp)
    for handler in (
        lambda: apsp_subst(pg, apsp, TOL),
        lambda: apsp_subst_td(post_order(top), apsp, TOL),
    ):
        a, b = handler(), handler()
        _assert_module_summaries_equal(a, b, tol=0.0)
        assert _child_state(apsp) == before


# ---------------------------------------------------------------------------
# solvers against the oracle


def test_detect_negative_cycle_gates():
    with pytest.raises(InputError, match="directed"):
        detect_negative_cycle(parse("(undirected (vertex a))"), {"a": 0.0})
    with pytest.raises(InputError, match="missing"):
        detect_negative_cycle(parse("(directed (vertex a))"), {})


def test_nonnegative_weights_never_cycle():
    for seed in range(30):
        e = corpus_instance(seed, DIRECTED, 15)
        g = evaluate(e)
        w = {v: (i % 7) / 2.0 for i, v in enumerate(sorted(g.vertices))}
        assert not detect_negative_cycle(e, w)


def test_all_pairs_single_vertex():
    assert all_pairs(parse("(directed (vertex a))"), {"a": 7.0}) == {("a", "a"): 7.0}


def test_all_pairs_disconnected_pair():
    m = all_pairs(
        parse("(directed (union (vertex a) (vertex b)))"), {"a": 1.0, "b": 2.0}
    )
    assert m[("a", "b")] == INF
    assert m[("b", "a")] == INF


def test_solver_oracle_equivalence_sample():
    checked_apsp = 0
    for seed in range(200):
        e = corpus_instance(seed, DIRECTED, 15)
        g = evaluate(e)
        w = gen_weights(g.vertices, -5.0, 5.0, seed)
        verdict = detect_negative_cycle(e, w, verify=True)
        assert verdict == oracle_ncd(g, w), seed
        if verdict:
            assert is_negative_cycle(all_pairs(e, w))
            continue
        got, _ = apsp_outcome(e, w, verify=True)
        ref = oracle_apsp(g, w)
        for pair, want in ref.items():
            assert close(got.dist[pair], want, 1e-6), (seed, pair)
        # msp is the smallest matrix entry
        assert close(got.msp, min(ref.values()), 1e-6)
        checked_apsp += 1
    assert checked_apsp >= 60


def test_emitted_potentials_are_feasible_everywhere():
    # verify=True materializes every fold node and checks the potential
    # against the edge-shifted costs of that subgraph
    for seed in range(80):
        e = corpus_instance(seed, DIRECTED, 20)
        g = evaluate(e)
        w = gen_weights(g.vertices, -5.0, 5.0, seed * 31 + 7)
        ncd_outcome(e, w, verify=True)
        apsp_outcome(e, w, verify=True)


def test_solvers_on_empty_expression():
    e = parse("(directed (empty))")
    assert not detect_negative_cycle(e, {})
    assert all_pairs(e, {}) == {}


def test_inc_over_empty_child():
    e = parse("(directed (inc x () (empty)))")
    value, _ = apsp_outcome(e, {"x": -4.0}, verify=True)
    assert value.dist == {("x", "x"): -4.0}
    assert close(value.msp, -4.0)


def test_reweighted_pattern_child_with_internal_negative_path():
    # a child whose cheapest internal path is negative contributes that
    # value as its pattern weight
    child = parse("(directed (subst (graph (p q) ((p q))) ((p (vertex a)) (q (vertex b)))))")
    summary, _ = ncd_outcome(child, {"a": -4.0, "b": 1.0})
    assert close(summary.msp, -4.0)  # single vertex a beats the a->b path (-3)


def test_ncd_subst_td_edgeless_pattern():
    from graphexpr.expr import Empty, Inc, Union

    pe = Union(
        (
            Inc("p1", frozenset(), frozenset(), Empty()),
            Inc("p2", frozenset(), frozenset(), Empty()),
        )
    )
    children = [("p1", _ncd_single("a", 4.0)), ("p2", _ncd_single("b", -1.5))]
    out = ncd_subst_td(post_order(pe), children, TOL)
    assert close(out.msp, -1.5)


def test_to_full_detour_propagates_through_nested_spine():
    # two nested substitutions with no pattern edges: inner vertices are
    # mutually unreachable inside the spine, and the only routes go through
    # the heavily negative apex added above it; the detour value must
    # propagate through both spine levels
    text = (
        "(directed (inc x ((a x) (x a) (b x) (x b) (c x) (x c) (d x) (x d))"
        " (subst (graph (p q) ())"
        "  ((p (subst (graph (r s) ())"
        "      ((r (vertex a)) (s (vertex b)))))"
        "   (q (union (vertex c) (vertex d)))))))"
    )
    e = parse(text)
    w = {"a": 3.0, "b": 4.0, "c": 5.0, "d": 6.0, "x": -2.0}
    value, _ = apsp_outcome(e, w, verify=True)
    ref = oracle_apsp(evaluate(e), w)
    assert not is_negative_cycle(ref)
    for pair, want in ref.items():
        assert close(value.dist[pair], want, 1e-6), pair
    # spot check: a -> b must use the apex (3 + (-2) + 4)
    assert close(value.dist[("a", "b")], 5.0)


def test_verdict_and_msp_are_invariant_under_weight_scaling(paths_corpus):
    # an absolute tolerance falls below float resolution near 1e12 (one ulp
    # is about 1e-4), where feasible potentials used to raise
    # ContractViolation (seed 60 at 1e12, seed 284 at 1e9); without a
    # negative cycle the whole APSP matrix scales too, within the solve
    # tolerance of the scaled weights
    matrices = 0
    for seed, (e, g, w, p) in enumerate(paths_corpus):
        for outcome in (ncd_outcome, apsp_outcome):
            base, _ = outcome(e, w)
            for c in (1e6, 1e9, 1e12):
                cw = {v: c * x for v, x in w.items()}
                scaled, _ = outcome(e, cw)
                assert is_negative_cycle(scaled) == is_negative_cycle(base), (seed, c)
                if is_negative_cycle(base):
                    continue
                assert math.isclose(scaled.msp, c * base.msp, rel_tol=1e-9), (seed, c)
                if outcome is apsp_outcome:
                    tol = solve_tolerance(cw)
                    for pair, d in base.dist.items():
                        got = scaled.dist[pair]
                        assert got == d == INF or abs(got - c * d) <= tol, (seed, c, pair)
                    matrices += 1
    assert matrices > 300


def test_verify_accepts_correct_answers_at_large_weights(paths_corpus):
    # the verifier's feasibility and distance checks use the solve's
    # tolerance; an absolute one rejected correct potentials at 1e12
    for e, g, w, p in paths_corpus[:200]:
        scaled = {v: 1e12 * x for v, x in w.items()}
        ncd_outcome(e, scaled, verify=True)
        apsp_outcome(e, scaled, verify=True)


@pytest.mark.parametrize("big", [1e9, 1e12])
def test_large_weight_elsewhere_does_not_hide_a_negative_cycle(big):
    # the cycle x -> a -> x weighs -0.5 whatever the isolated vertex weighs
    e = parse("(directed (union (vertex big) (inc x ((x a) (a x)) (vertex a))))")
    w = {"big": big, "x": -1.0, "a": 0.5}
    assert oracle_ncd(evaluate(e), w)
    assert detect_negative_cycle(e, w, verify=True)
    assert is_negative_cycle(all_pairs(e, w, verify=True))


def test_verdicts_match_oracle_next_to_a_large_isolated_vertex(paths_corpus):
    from graphexpr.expr import Union, Vertex

    for seed, (e, g, w, p) in enumerate(paths_corpus[:300]):
        big_e = Expression(DIRECTED, Union((Vertex("big"), e.root)))
        big_w = {**w, "big": 1e12}
        want = oracle_ncd(evaluate(big_e), big_w)
        assert detect_negative_cycle(big_e, big_w) == want, seed
        assert is_negative_cycle(all_pairs(big_e, big_w)) == want, seed


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_all_pairs_exact_on_integer_weights_hypothesis(data):
    # sums of small integers are exact in floating point, so the distances
    # must equal the oracle's bit for bit, and scale exactly by a power of 2
    k, h, l = data.draw(st.sampled_from(SHAPES))
    budget = data.draw(st.integers(_need(k, h, l), 30))
    seed = data.draw(st.integers(0, 10**6))
    e = gen_random(GenSpec(DIRECTED, k=k, h=h, l=l, budget=budget, seed=seed))
    g = evaluate(e)
    drawn = data.draw(st.lists(st.integers(-3, 5), min_size=g.n, max_size=g.n))
    w = {v: float(x) for v, x in zip(g.vertices, drawn)}
    got, want = all_pairs(e, w), oracle_apsp(g, w)
    assert is_negative_cycle(got) == is_negative_cycle(want)
    if is_negative_cycle(want):
        return
    assert dict(got) == want
    scaled = all_pairs(e, {v: 1024 * x for v, x in w.items()})
    for pair, d in got.items():
        assert scaled[pair] == 1024 * d


def test_apsp_peak_memory_per_vertex_pair():
    # dense rows hold a float object and a list slot per pair (32 bytes);
    # the bound leaves as much again for the rest of the solve
    e = gen_random(GenSpec(DIRECTED, k=2, h=4, l=2, budget=400, seed=1))
    names = collect_vertex_names(e.root)
    w = gen_weights(names, 0.0, 5.0, 1)
    tracemalloc.start()
    try:
        value, _ = apsp_outcome(e, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(names)
    assert len(value.dist) == n * n
    assert peak <= 64 * n * n, f"{peak / (n * n):.1f} bytes per pair"


def test_apsp_peak_memory_on_a_join_heavy_input():
    # m = 19891 edges on 400 vertices: a solve that evaluated the whole
    # graph peaked at 63 bytes per pair before the root expansion; inc nodes
    # that evaluate only their own child leave the rows' 38
    e = gen_random(GenSpec(DIRECTED, k=2, h=4, l=2, budget=400, seed=3))
    names = collect_vertex_names(e.root)
    w = gen_weights(names, 0.0, 5.0, 3)
    tracemalloc.start()
    try:
        value, _ = apsp_outcome(e, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(names)
    assert len(value.dist) == n * n
    assert peak <= 48 * n * n, f"{peak / (n * n):.1f} bytes per pair"


def test_apsp_peak_memory_skips_unreachable_pairs():
    # 2.9% of these pairs are finite; an expansion that writes only the
    # blocks a finite connector reaches leaves the rest at the shared inf
    # of the prefilled rows: 13.1 bytes per pair, against 36.9 when every
    # unreachable pair got a float of its own
    e = gen_random(GenSpec(DIRECTED, k=2, h=4, l=2, budget=400, seed=1))
    names = collect_vertex_names(e.root)
    w = gen_weights(names, 0.0, 5.0, 1)
    tracemalloc.start()
    try:
        value, _ = apsp_outcome(e, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(names)
    assert len(value.dist) == n * n
    assert peak <= 24 * n * n, f"{peak / (n * n):.1f} bytes per pair"


def test_ncd_peak_memory_per_vertex_of_a_flat_union():
    # a vertex leaf's potential is its bare name, in a slotted summary: a
    # negative cycle test on a flat union of 10^5 vertices peaks at 143
    # bytes per vertex on CPython 3.11 (x86-64), against 367 when each leaf
    # kept a one-entry dict; the front end has run before, as its walk is
    # pinned in test_front_end.py
    r = 10**5
    e = parse("(directed (union " + " ".join(f"(vertex v{i})" for i in range(r)) + "))")
    w = {f"v{i}": float(i % 7 - 3) for i in range(r)}
    validate_or_raise(e)
    tracemalloc.start()
    try:
        negative = detect_negative_cycle(e, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not negative
    assert peak <= 200 * r, f"{peak / r:.0f} bytes per vertex"


def test_expanding_a_wide_union_skips_its_unreachable_blocks():
    # no module of a union reaches another, so the expansion only copies
    # the leaves' rows: 0.04 s on a 2-core x86-64 VM, against 1.6 s when it
    # filled r^2/2 one-element row segments with inf
    r = 2000
    e = Expression(DIRECTED, Union(tuple(Vertex(f"v{i}") for i in range(r))))
    w = {f"v{i}": float(i % 5) for i in range(r)}
    summary, _ = fold(normalize(e), apsp_handlers(w, solve_tolerance(w)))
    assert isinstance(summary, ModuleSummary)
    start = time.perf_counter()
    full = to_full_summary(summary)
    elapsed = time.perf_counter() - start
    assert [row.count(INF) for row in full.rows] == [r - 1] * r
    assert elapsed < 0.5, f"{elapsed:.2f} s"


def _edgeless_subst(parts):
    """The disjoint union of ``parts`` as one substitution into a pattern
    without edges, with pattern vertex p_i bound to the i-th part."""
    names = tuple(f"p{i}" for i in range(len(parts)))
    return Subst(Pattern(DIRECTED, names, frozenset()), tuple(zip(names, parts)))


@pytest.mark.parametrize(
    "kind, r",
    [(Union, 4000), (Join, 1000), (_edgeless_subst, 4000)],
    ids=["union", "join", "edgeless-subst"],
)
def test_apsp_fold_memory_is_linear_in_a_wide_union_or_join(kind, r):
    # module summaries hold their exits and entries as shifted unions over
    # their children's, about 2 kB per vertex on a 2-core x86-64 VM; a
    # dict copy of every entry below each level of the chain peaked at
    # 211 kB (union) and 54 kB (join) per vertex, and one module with the
    # r x r diagonal of an edgeless pattern's distances at 33.6 kB
    e = Expression(DIRECTED, kind(tuple(Vertex(f"v{i}") for i in range(r))))
    w = {f"v{i}": float(i % 5) for i in range(r)}
    handlers = apsp_handlers(w, solve_tolerance(w))
    tracemalloc.start()
    try:
        summary, _ = fold(e, handlers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4096 * r, f"{peak / r:.0f} bytes per vertex"
    assert isinstance(summary, ModuleSummary) and summary.n == r


def test_apsp_incs_without_edges_over_a_join_cost_a_small_multiple_of_the_join():
    # an inc without edges is a disjoint union with its vertex, so APSP
    # keeps the join as one module below d such incs, expanded once at the
    # root: on a 2-core x86-64 VM, 0.031 s for d = 200 over a join of two
    # 200-vertex unions, against 5.93 s when every inc expanded its child
    # to full rows and copied them
    def best_of_3(e):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            value, _ = apsp_outcome(e, w)
            times.append(time.perf_counter() - start)
        return min(times), value

    r = d = 200
    a_side = " ".join(f"(vertex a{i})" for i in range(r))
    b_side = " ".join(f"(vertex b{i})" for i in range(r))
    text = f"(join (union {a_side}) (union {b_side}))"
    join = parse(f"(directed {text})")
    for i in range(d):
        text = f"(inc x{i} () {text})"
    incs = parse(f"(directed {text})")
    w = gen_weights(collect_vertex_names(incs.root), 0.0, 5.0, 1)
    join_s, join_value = best_of_3(join)
    incs_s, value = best_of_3(incs)
    for row, join_row in zip(value.rows, join_value.rows):
        assert all(map(close, row, join_row)) and row[2 * r :] == [INF] * d
    assert incs_s <= 10 * join_s, (incs_s, join_s)


def test_apsp_on_a_deep_edge_chain_matches_the_oracle():
    # every level substitutes the chain so far and a new vertex into the
    # edge p -> q, the chain into p and q in turn: a DAG whose negative
    # vertices give nonzero out- and in-shifts, so the expansion reads
    # exits and entries that carry the shifts of up to 199 levels from the
    # root's values.  A negative vertex at levels 0 and 5 of every 20 (one
    # of each parity) shifts both the exits and the entries of the chain;
    # the other vertices weigh in [0, 5].
    r = 200
    rng = random.Random(5)
    text = "(vertex v0)"
    for i in range(1, r):
        pair = (text, f"(vertex v{i})")[:: 1 if i % 2 else -1]
        text = "(subst (graph (p q) ((p q))) ((p {}) (q {})))".format(*pair)
    e = parse(f"(directed {text})")
    w = {f"v{i}": -rng.uniform(0, 5) if i % 20 in (0, 5) else rng.uniform(0, 5) for i in range(r)}
    ref = oracle_apsp(evaluate(e), w)
    got = all_pairs(e, w)
    assert got.keys() == ref.keys()
    for pair, d in ref.items():
        assert close(got[pair], d, 1e-6), pair


@pytest.mark.parametrize(
    "text, weights, finite",
    [
        # the union's detour through c is finite, so a and b reach each
        # other through it
        (
            "(join (union (vertex a) (vertex b)) (vertex c))",
            {"a": 1, "b": 2, "c": 3},
            {("a", "b"): 6, ("b", "a"): 6, ("a", "c"): 4, ("c", "a"): 4,
             ("b", "c"): 5, ("c", "b"): 5},
        ),
        # a reaches b only through the added vertex x, b reaches neither
        (
            "(inc x ((a x) (x b)) (union (vertex a) (vertex b)))",
            {"a": 1, "b": 2, "x": 4},
            {("a", "b"): 7, ("a", "x"): 5, ("x", "b"): 6},
        ),
        # a union of components: finite inside each, inf across
        (
            "(union (join (vertex a) (vertex b)) (inc x ((x c) (c x)) (vertex c)) (vertex d))",
            {"a": 1, "b": 2, "c": -1, "d": 5, "x": 3},
            {("a", "b"): 3, ("b", "a"): 3, ("c", "x"): 2, ("x", "c"): 2},
        ),
    ],
    ids=["join-detour", "inc-bridge", "union-of-components"],
)
def test_expansion_writes_every_finite_distance(text, weights, finite):
    e = parse(f"(directed {text})")
    w = {v: float(x) for v, x in weights.items()}
    got = dict(all_pairs(e, w))
    assert got == dict(floyd_vertex_weighted(evaluate(e), w))
    for (u, v), d in got.items():
        assert d == (w[u] if u == v else finite.get((u, v), INF)), (u, v)


# ---------------------------------------------------------------------------
# substitution chains


def _alternating_chain(r, seed, inc_every=0):
    """A union/join chain over r vertices, nested as written (normalization
    keeps it one substitution per level), with an inc vertex every
    ``inc_every`` levels.  Union vertices weigh in [-1, 0), the others in
    [1, 2).  No two union vertices are adjacent, so every cycle has at least
    as many other vertices as union vertices and none is negative, while the
    negative weights give the join levels nonzero shifts."""
    rng = random.Random(seed)
    acc, w = Vertex("v0"), {"v0": -rng.random()}
    for i in range(1, r):
        v = f"v{i}"
        if i % 2:
            acc, w[v] = Join((acc, Vertex(v))), 1 + rng.random()
        else:
            acc, w[v] = Union((acc, Vertex(v))), -rng.random()
        if inc_every and i % inc_every == 0:
            x = f"x{i}"
            ins, outs = frozenset({v}), frozenset({f"v{i - 1}"})
            acc, w[x] = Inc(x, ins, outs, acc), 1 + rng.random()
    return Expression(DIRECTED, acc), w


def test_ncd_on_a_long_alternating_chain_is_near_linear():
    # copying the accumulated potential at every level makes this O(r^2):
    # 5.5 s on a 2-core x86-64 VM, against 0.4 s with shifted potentials
    e, w = _alternating_chain(10_000, seed=1)
    start = time.perf_counter()
    value, _ = ncd_outcome(e, w)
    elapsed = time.perf_counter() - start
    assert not is_negative_cycle(value)
    assert type(value.potential) is dict and len(value.potential) == 10_000
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_ncd_on_an_alternating_chain_matches_the_oracle():
    e, w = _alternating_chain(200, seed=2, inc_every=40)
    g = evaluate(e)
    assert not oracle_ncd(g, w)
    # verify checks the potential of every node and the msp of the small ones
    value, _ = ncd_outcome(e, w, verify=True)
    assert not is_negative_cycle(value)
    assert type(value.potential) is dict
    assert check_potential(g, edge_shift(g, w), value.potential)
    # any path longer than one vertex pairs each negative vertex with a
    # positive one of larger magnitude
    assert close(value.msp, min(w.values()))


def test_apsp_on_an_alternating_chain_matches_the_oracle():
    e, w = _alternating_chain(120, seed=4, inc_every=25)
    g = evaluate(e)
    ref = oracle_apsp(g, w)
    value, _ = apsp_outcome(e, w, verify=True)
    assert not is_negative_cycle(value)
    assert type(value.potential) is dict
    assert check_potential(g, edge_shift(g, w), value.potential)
    assert close(value.msp, min(ref.values()))
    assert value.dist.keys() == ref.keys()
    for pair, d in ref.items():
        assert close(value.dist[pair], d), pair


def _potential_reference(pi):
    """``potential_dict`` by plain recursion over the shifted union."""
    if isinstance(pi, dict):
        return pi
    out = {}

    def rec(p, acc):
        if isinstance(p, dict):
            for v, val in p.items():
                out[v] = val + acc
        else:
            for i in range(0, len(p), 2):
                rec(p[i], acc + p[i + 1])

    rec(pi, 0.0)
    return out


@st.composite
def _shifted_unions(draw):
    # nested shifted unions over fresh names, with zero and non-zero shifts,
    # weights of -0.0 and empty parts (empty dicts and empty unions)
    names = iter(range(10**6))
    values = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, 3e17])
    shifts = st.one_of(st.just(0.0), st.just(-0.0), values, st.floats(-1e6, 1e6))

    def leaf(n):
        return {f"v{next(names)}": draw(values) for _ in range(n)}

    def union(depth):
        parts = []
        for _ in range(draw(st.integers(0, 4))):
            deeper = depth and draw(st.booleans())
            parts += (union(depth - 1) if deeper else leaf(draw(st.integers(0, 3))), draw(shifts))
        return tuple(parts)

    return union(draw(st.integers(0, 5)))


@settings(max_examples=200, deadline=None)
@given(_shifted_unions())
def test_potential_dict_matches_a_recursive_reference(pi):
    # the same keys in the same insertion order, and bit-identical values
    got, want = potential_dict(pi), _potential_reference(pi)
    assert [(v, x.hex()) for v, x in got.items()] == [(v, x.hex()) for v, x in want.items()]


def test_potential_dict_walks_a_chain_deeper_than_the_recursion_limit():
    # a left-deep chain of 10^5 shifted unions, each adding a vertex of
    # weight -0.0 that its shift of 0.0 turns into 0.0
    depth = 10**5
    pi = {"v0": 1.0}
    for i in range(1, depth):
        pi = (pi, 0.5, {f"v{i}": -0.0}, 0.0)
    got = potential_dict(pi)
    assert list(got) == [f"v{i}" for i in range(depth)]
    assert got["v0"] == 1.0 + 0.5 * (depth - 1)
    assert all(math.copysign(1.0, got[f"v{i}"]) == 1.0 for i in range(1, depth))


def test_a_negative_cycle_test_reads_no_root_potential(monkeypatch):
    # detect_negative_cycle needs only the verdict, so the root's shifted
    # union is never turned into a dict; ncd_outcome still returns one
    calls = []
    real = paths.potential_dict
    monkeypatch.setattr(paths, "potential_dict", lambda pi: calls.append(pi) or real(pi))
    r = 1000
    e = parse("(directed (union " + " ".join(f"(inc v{i} () (empty))" for i in range(r)) + "))")
    w = {f"v{i}": float(i % 7 - 3) for i in range(r)}
    assert not detect_negative_cycle(e, w)
    assert calls == []
    value, _ = ncd_outcome(e, w)
    assert len(calls) == 1 and type(calls[0]) is tuple
    assert type(value.potential) is dict and len(value.potential) == r
