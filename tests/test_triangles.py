"""Triangle counting: handler examples, oracle equivalence, handler
cross-equality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexpr import (
    UNDIRECTED,
    Expression,
    Graph,
    InputError,
    TriFold,
    count_triangles,
    evaluate,
    gen_fixture,
    gen_random,
    oracle_triangles,
    parse,
)
from graphexpr.expr import Empty, Inc, Union
from graphexpr.framework import SubgraphView
from graphexpr.oracle import GenSpec
from graphexpr.triangles import combine_inc, combine_subst, combine_subst_td

from conftest import corpus_instance


def _view(text):
    e = parse(text)
    g = evaluate(e)
    return g, SubgraphView(g, frozenset(g.vertices))


# ---------------------------------------------------------------------------
# combine_inc


def test_inc_closes_triangle_over_child_edge():
    _, view = _view("(undirected (join (vertex a) (vertex b)))")
    f = combine_inc(TriFold(2, 1, 0), "x", {"a", "b"}, view)
    assert f == TriFold(3, 3, 1)


def test_inc_isolated_vertex():
    _, view = _view("(undirected (join (vertex a) (vertex b)))")
    assert combine_inc(TriFold(2, 1, 0), "x", set(), view) == TriFold(3, 1, 0)


def test_inc_path_endpoints_close_nothing():
    # child path a-b-c, new vertex adjacent to a and c only
    _, view = _view(
        "(undirected (inc b ((b a) (b c)) (union (vertex a) (vertex c))))"
    )
    f = combine_inc(TriFold(3, 2, 0), "x", {"a", "c"}, view)
    assert f.t == 0
    assert f.m == 4


# ---------------------------------------------------------------------------
# combine_subst


def triangle_pattern():
    return Graph(UNDIRECTED, ("p", "q", "r"), {("p", "q"), ("p", "r"), ("q", "r")})


def test_subst_triangle_pattern_with_one_doubled_corner():
    children = [
        ("p", TriFold(2, 0, 0)),
        ("q", TriFold(1, 0, 0)),
        ("r", TriFold(1, 0, 0)),
    ]
    assert combine_subst(triangle_pattern(), children) == TriFold(4, 5, 2)


def test_subst_path_pattern_with_edge_module():
    pat = Graph(UNDIRECTED, ("p", "q", "r"), {("p", "q"), ("q", "r")})
    children = [
        ("p", TriFold(2, 1, 0)),
        ("q", TriFold(1, 0, 0)),
        ("r", TriFold(1, 0, 0)),
    ]
    assert combine_subst(pat, children) == TriFold(4, 4, 1)


def test_subst_edgeless_pattern_only_sums():
    pat = Graph(UNDIRECTED, ("p", "q"), ())
    children = [("p", TriFold(3, 2, 1)), ("q", TriFold(4, 3, 2))]
    assert combine_subst(pat, children) == TriFold(7, 5, 3)


# ---------------------------------------------------------------------------
# combine_subst_td


def k3_td_pattern():
    # triangle as a tree-depth expression: c over b over a
    leaf = Inc("p", frozenset(), frozenset(), Empty())
    mid = Inc("q", frozenset(), frozenset({"p"}), leaf)
    return Inc("r", frozenset(), frozenset({"p", "q"}), mid)


def test_subst_td_matches_subst_on_triangle():
    children = [
        ("p", TriFold(2, 0, 0)),
        ("q", TriFold(1, 0, 0)),
        ("r", TriFold(1, 0, 0)),
    ]
    pe = k3_td_pattern()
    pg = evaluate(Expression(UNDIRECTED, pe))
    assert combine_subst_td(pe, pg, children) == TriFold(4, 5, 2)


def test_subst_td_edgeless_pattern():
    pe = Union(
        (
            Inc("p", frozenset(), frozenset(), Empty()),
            Inc("q", frozenset(), frozenset(), Empty()),
        )
    )
    children = [("p", TriFold(2, 1, 1)), ("q", TriFold(3, 0, 0))]
    pg = evaluate(Expression(UNDIRECTED, pe))
    assert combine_subst_td(pe, pg, children).t == 1


def test_subst_td_tree_pattern_with_singletons_is_triangle_free():
    pe = gen_fixture("substar", 4).root
    pg = evaluate(Expression(UNDIRECTED, pe))
    children = [(nm, TriFold(1, 0, 0)) for nm in pg.vertices]
    assert combine_subst_td(pe, pg, children).t == 0


# ---------------------------------------------------------------------------
# count_triangles


def test_count_k4():
    e = parse("(undirected (join (vertex a) (vertex b) (vertex c) (vertex d)))")
    assert count_triangles(e) == 4


def test_count_tree_is_zero():
    assert count_triangles(gen_fixture("substar", 5)) == 0


def test_count_rejects_directed():
    with pytest.raises(InputError, match="undirected"):
        count_triangles(parse("(directed (vertex a))"))


def test_count_separation_fixture_matches_brute_force():
    e = gen_fixture("lemma7.1", 2)
    assert count_triangles(e) == oracle_triangles(evaluate(e))


def test_count_matches_oracle_on_random_corpus():
    for seed in range(250):
        e = corpus_instance(seed, UNDIRECTED, 40)
        assert count_triangles(e) == oracle_triangles(evaluate(e)), seed


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_count_matches_oracle_hypothesis(seed):
    e = corpus_instance(seed % 100000, UNDIRECTED, 25)
    assert count_triangles(e) == oracle_triangles(evaluate(e))


def test_subst_td_equals_subst_on_generated_patterns():
    for seed in range(80):
        depth = 1 + seed % 3
        pe = gen_random(GenSpec(UNDIRECTED, k=depth, budget=2 + seed % 9, seed=seed)).root
        pg = evaluate(Expression(UNDIRECTED, pe))
        names = pg.vertices
        rng_vals = [(i % 3 + 1, i % 2, 0) for i in range(len(names))]
        children = [
            (nm, TriFold(n, min(m, n * (n - 1) // 2), 0))
            for nm, (n, m, _) in zip(names, rng_vals)
        ]
        assert combine_subst(pg, children) == combine_subst_td(pe, pg, children), seed


def test_inc_monotonicity():
    # adding a vertex never loses triangles; the increase is the number of
    # child edges inside the new neighborhood
    for seed in range(40):
        e = corpus_instance(seed, UNDIRECTED, 12)
        base = count_triangles(e)
        g = evaluate(e)
        nbrs = frozenset(v for i, v in enumerate(sorted(g.vertices)) if i % 2 == 0)
        wrapped = Expression(UNDIRECTED, Inc("zz9", frozenset(), nbrs, e.root))
        inside = sum(1 for (a, b) in g.edges if a in nbrs and b in nbrs)
        assert count_triangles(wrapped) == base + inside


def test_count_empty_expression():
    assert count_triangles(parse("(undirected (empty))")) == 0
