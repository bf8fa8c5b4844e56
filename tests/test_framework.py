"""The generic fold: handler dispatch, graph reconstruction sanity check,
accounting bounds."""

import pytest

from graphexpr import (
    UNDIRECTED,
    Expression,
    HandlerSet,
    InputError,
    Join,
    Params,
    Vertex,
    assert_stats,
    evaluate,
    fold,
    normalize,
    params,
    parse,
    validate_or_raise,
)
from graphexpr.expr import canonical_edge
from graphexpr.triangles import handlers as tri_handlers

from conftest import corpus_instance


def counting_handlers():
    """f = |V|, the simplest possible summary."""
    return HandlerSet(
        base_empty=lambda: 0,
        base_vertex=lambda name: 1,
        on_inc=lambda f, name, inn, out, view: f + 1,
        on_subst=lambda pg, children: sum(f for _, f in children),
        on_subst_td=lambda pe, pg, children: sum(f for _, f in children),
    )


def nm_handlers():
    """f = (n, m) via pure arithmetic."""

    def subst(h, children):
        by = dict(children)
        n = sum(v[0] for v in by.values())
        m = sum(v[1] for v in by.values())
        for (a, b) in h.edges:
            m += by[a][0] * by[b][0]
        return (n, m)

    return HandlerSet(
        base_empty=lambda: (0, 0),
        base_vertex=lambda name: (1, 0),
        on_inc=lambda f, name, inn, out, view: (f[0] + 1, f[1] + len(inn | out)),
        on_subst=subst,
        on_subst_td=lambda pe, pg, children: (_ for _ in ()).throw(AssertionError),
    )


def test_fold_single_vertex():
    e = parse("(directed (vertex a))")
    value, stats = fold(e, counting_handlers())
    assert value == 1
    assert stats.leaf_count == 1


def test_fold_binary_subst_nm():
    e = normalize(parse("(undirected (join (vertex a) (vertex b)))"))
    value, _ = fold(e, nm_handlers())
    assert value == (2, 1)


def test_fold_k4_minus_edge_triangles():
    # two non-adjacent vertices substituted into one corner of a triangle
    e = parse(
        "(undirected (subst (graph (p q r) ((p q) (p r) (q r)))"
        " ((p (union (vertex a) (vertex b))) (q (vertex c)) (r (vertex d)))))"
    )
    value, stats = fold(normalize(e), tri_handlers())
    assert (value.n, value.m, value.t) == (4, 5, 2)
    assert stats.sum_pattern_order >= 3


def test_fold_rejects_union_join():
    e = parse("(undirected (union (vertex a) (vertex b)))")
    with pytest.raises(InputError, match="normalize"):
        fold(e, counting_handlers())


def graph_rebuild_handlers(mode):
    """Handlers that rebuild (vertices, edges); folding them must reproduce
    evaluate() exactly."""

    def inc(f, name, inn, out, view):
        verts, edges = f
        if mode == "directed":
            edges |= {(name, u) for u in out} | {(u, name) for u in inn}
        else:
            edges |= {canonical_edge(mode, name, u) for u in inn | out}
        return (verts | {name}, edges)

    def subst(pg, children):
        by = dict(children)
        verts = set().union(*(v for v, _ in by.values()))
        edges = set().union(*(e for _, e in by.values()))
        for (a, b) in pg.edges:
            for u in by[a][0]:
                for v in by[b][0]:
                    if mode == "directed":
                        edges.add((u, v))
                    else:
                        edges.add(canonical_edge(mode, u, v))
        return (verts, edges)

    return HandlerSet(
        base_empty=lambda: (set(), set()),
        base_vertex=lambda name: ({name}, set()),
        on_inc=inc,
        on_subst=subst,
        on_subst_td=lambda pe, pg, children: subst(pg, children),
    )


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_fold_reconstructs_evaluation(mode):
    for seed in range(80):
        e = corpus_instance(seed, mode, 25)
        ne = normalize(e)
        (verts, edges), _ = fold(ne, graph_rebuild_handlers(mode))
        g = evaluate(e)
        assert verts == set(g.vertices)
        assert edges == set(g.edges)


def test_fold_is_deterministic():
    e = normalize(corpus_instance(11, UNDIRECTED, 30))
    a, _ = fold(e, tri_handlers())
    b, _ = fold(e, tri_handlers())
    assert a == b


def test_stats_bounds_on_random_corpus():
    for seed in range(120):
        e = corpus_instance(seed, UNDIRECTED, 30)
        p = params(e)
        ne = normalize(e)
        _, stats = fold(ne, counting_handlers())
        n = evaluate(e).n
        assert stats.sum_pattern_order <= 2 * n
        assert stats.max_inc_nesting <= p.k
        assert assert_stats(stats, n, p) == []


def test_assert_stats_k5_nested_joins():
    e = Expression(UNDIRECTED, Join(tuple(Vertex(c) for c in "abcde")))
    validate_or_raise(e)
    _, stats = fold(normalize(e), counting_handlers())
    # four binary substitutions, two pattern vertices each
    assert stats.sum_pattern_order == 8
    assert assert_stats(stats, 5, Params(0, 0, 0)) == []


def test_assert_stats_pure_td_nesting():
    from graphexpr import gen_random
    from graphexpr.oracle import GenSpec

    e = gen_random(GenSpec(UNDIRECTED, k=3, budget=9, seed=5))
    _, stats = fold(normalize(e), counting_handlers())
    assert stats.max_inc_nesting == 3


def test_assert_stats_empty_expression():
    e = parse("(undirected (empty))")
    value, stats = fold(e, counting_handlers())
    assert value == 0
    assert stats.sum_pattern_order == 0
    assert assert_stats(stats, 0, Params(0, 0, 0)) == []


def test_assert_stats_reports_violation():
    e = parse("(directed (inc x () (vertex a)))")
    _, stats = fold(e, counting_handlers())
    msgs = assert_stats(stats, 2, Params(0, 0, 0))
    assert any("inc nesting" in m for m in msgs)


def test_handler_error_carries_node_path():
    e = parse("(directed (inc x () (vertex a)))")

    def boom(f, name, inn, out, view):
        raise RuntimeError("boom")

    hs = counting_handlers()
    hs.on_inc = boom
    with pytest.raises(RuntimeError, match=r"at root"):
        fold(e, hs)


NESTED = (
    "(directed (subst (graph (a b) ()) ((a (vertex u))"
    " (b (subst (graph (p q) ()) ((p (inc x () (vertex y))) (q (vertex z))))))))"
)


def test_handler_error_message_is_unquoted():
    def boom(f, name, inn, out, view):
        raise RuntimeError("boom")

    hs = counting_handlers()
    hs.on_inc = boom
    with pytest.raises(RuntimeError) as info:
        fold(parse(NESTED), hs)
    assert str(info.value) == "boom [at root/bind[b]/bind[p]]"
    assert info.value._fold_path == "root/bind[b]/bind[p]"


def test_verify_receives_node_paths_in_post_order():
    seen = []
    fold(parse(NESTED), counting_handlers(), verify=lambda path, *_: seen.append(path))
    assert seen == [
        "root/bind[a]",
        "root/bind[b]/bind[p]/child",
        "root/bind[b]/bind[p]",
        "root/bind[b]/bind[q]",
        "root/bind[b]",
        "root",
    ]


def test_handler_error_path_on_deep_normalized_chain():
    r = 3001
    leaves = " ".join(f"(inc x{i} () (vertex a{i}))" for i in range(r))
    e = normalize(parse(f"(directed (union {leaves}))"))

    def boom(f, name, inn, out, view):
        if name == "x0":
            raise RuntimeError("boom")
        return f + 1

    hs = counting_handlers()
    hs.on_inc = boom
    with pytest.raises(RuntimeError) as info:
        fold(e, hs)
    path = "root" + "/bind[a]" * (r - 1)
    assert info.value._fold_path == path
    assert str(info.value).endswith(f" [at {path}]")


def test_inc_view_sees_child_subgraph_only():
    e = parse(
        "(undirected (join (vertex z) (inc x ((x a)) "
        "(union (vertex a) (vertex b)))))"
    )
    seen = {}

    def spy(f, name, inn, out, view):
        seen["vertices"] = set(view.vertices)
        seen["edges"] = {
            (u, v) for u in view.vertices for v in view.out_neighbors(u) if u <= v
        }
        return f + 1

    hs = counting_handlers()
    hs.on_inc = spy
    fold(normalize(e), hs)
    # the join to z happens above the inc; the view must not contain z or
    # any join edges
    assert seen["vertices"] == {"a", "b"}
    assert seen["edges"] == set()


def test_inc_view_resolves_its_vertices_and_graph_once(monkeypatch):
    # the view exposes the child expression; its vertex set and graph are
    # built on the first query and reused by every later one
    from graphexpr import framework

    collected = []
    real_collect = framework.collect_vertex_names
    monkeypatch.setattr(
        framework,
        "collect_vertex_names",
        lambda node: collected.append(node) or real_collect(node),
    )
    child = normalize(parse("(undirected (join (vertex a) (union (vertex b) (vertex c))))")).root
    g = evaluate(Expression(UNDIRECTED, child))
    built = []
    view = framework.SubgraphView(child, lambda: built.append(1) or g)
    assert view.child is child
    assert built == [] and collected == []
    assert sorted(view.out_neighbors("a")) == ["b", "c"]
    assert view.in_neighbors("b") == ["a"]
    assert view.vertices == {"a", "b", "c"}
    assert built == [1] and collected == [child]


def test_fold_evaluates_the_whole_graph_only_for_inc_views(monkeypatch):
    # without verify, a TC solve never builds the whole graph (its inc
    # handler counts from the child expression), and an APSP solve builds
    # it once if its main tree has an inc node; each subst-td pattern is
    # evaluated once per node
    from collections import Counter

    from graphexpr import DIRECTED, all_pairs, count_triangles, framework, gen_weights
    from graphexpr.expr import Inc, SubstTd, collect_vertex_names, fold_expression

    evaluated = []
    real = framework.evaluate
    monkeypatch.setattr(framework, "evaluate", lambda e: evaluated.append(e.root) or real(e))
    seen = set()
    for seed in range(70):
        for mode in (UNDIRECTED, DIRECTED):
            e = corpus_instance(seed, mode, 25)
            nodes = []
            fold_expression(e.root, lambda node, _vals, _where: nodes.append(node))
            patterns = Counter(id(n.pattern_expr) for n in nodes if isinstance(n, SubstTd))
            has_inc = any(isinstance(n, Inc) for n in nodes)
            evaluated.clear()
            if mode == UNDIRECTED:
                count_triangles(e)
            else:
                all_pairs(e, gen_weights(collect_vertex_names(e.root), 0.0, 5.0, seed))
            pattern_evals = Counter(id(r) for r in evaluated if id(r) in patterns)
            assert pattern_evals == patterns, seed
            whole = len(evaluated) - sum(pattern_evals.values())
            assert whole == (1 if has_inc and mode == DIRECTED else 0), seed
            seen.add((mode, has_inc))
    assert len(seen) == 4


def test_fold_builds_each_pattern_graph_once(monkeypatch):
    # a normalized 2000-way union is a chain of 1999 substitutions into one
    # shared two-vertex pattern; the fold builds its graph once, not per node
    from graphexpr import DIRECTED
    from graphexpr.expr import Pattern
    from graphexpr.paths import ncd_handlers

    calls = []
    real = Pattern.to_graph
    monkeypatch.setattr(Pattern, "to_graph", lambda p: calls.append(p) or real(p))
    r = 2000
    leaves = " ".join(f"(vertex a{i})" for i in range(r))
    for mode in (UNDIRECTED, DIRECTED):
        e = normalize(parse(f"({mode} (union {leaves}))"))
        calls.clear()
        if mode == UNDIRECTED:
            value, stats = fold(e, tri_handlers())
            assert (value.n, value.m, value.t) == (r, 0, 0)
        else:
            w = {f"a{i}": 1.0 for i in range(r)}
            value, stats = fold(e, ncd_handlers(w))
            assert value.msp == 1.0
        assert stats.counts["subst"] == r - 1
        assert len(calls) <= 2, mode
