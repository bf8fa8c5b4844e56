"""Triangle counting: handler examples, oracle equivalence, handler
cross-equality."""

import time

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
    normalize,
    oracle_triangles,
    params,
    parse,
)
from graphexpr.expr import Empty, Inc, Join, Union, Vertex, post_order
from graphexpr.oracle import GenSpec
from graphexpr.triangles import (
    combine_inc,
    combine_subst,
    combine_subst_td,
    edges_within,
    handlers,
)

from conftest import corpus_instance


def _child(text):
    # an inc handler gets its child as an order and runs of its entries:
    # here the child's own order, one run
    order = post_order(normalize(parse(text)).root)
    return order, [(0, len(order))]


# ---------------------------------------------------------------------------
# combine_inc


def test_inc_closes_triangle_over_child_edge():
    child = _child("(undirected (join (vertex a) (vertex b)))")
    f = combine_inc(TriFold(2, 1, 0), {"a", "b"}, *child)
    assert f == TriFold(3, 3, 1)


def test_inc_isolated_vertex():
    child = _child("(undirected (join (vertex a) (vertex b)))")
    assert combine_inc(TriFold(2, 1, 0), set(), *child) == TriFold(3, 1, 0)


def test_inc_path_endpoints_close_nothing():
    # child path a-b-c, new vertex adjacent to a and c only
    child = _child(
        "(undirected (inc b ((b a) (b c)) (union (vertex a) (vertex c))))"
    )
    f = combine_inc(TriFold(3, 2, 0), {"a", "c"}, *child)
    assert f.t == 0
    assert f.m == 4


def test_inc_over_dense_join_never_builds_the_graph(monkeypatch):
    # the child join has 10^6 edges; the closed count is read from the
    # expression, so no graph is evaluated and the solve stays fast
    from graphexpr import framework

    calls = []
    real = framework.evaluate
    monkeypatch.setattr(framework, "evaluate", lambda e: calls.append(e) or real(e))
    r = 1000
    a_side = " ".join(f"(vertex a{i})" for i in range(r))
    b_side = " ".join(f"(vertex b{i})" for i in range(r))
    nbrs = [f"a{i}" for i in range(0, r, 2)] + [f"b{i}" for i in range(0, r, 3)]
    edges = " ".join(f"(x {u})" for u in nbrs)
    e = parse(
        f"(undirected (inc x ({edges}) (join (union {a_side}) (union {b_side}))))"
    )
    start = time.perf_counter()
    t = count_triangles(e)
    elapsed = time.perf_counter() - start
    assert t == -(-r // 2) * -(-r // 3) == 167000
    assert calls == []
    assert elapsed < 1.0


def test_a_deep_chain_of_one_edge_incs_counts_in_a_small_multiple_of_its_evaluation():
    # an inc with fewer than two neighbors closes no triangle, so its child
    # is not read: on a 12000-deep chain of incs with one edge each, TC
    # took about 15 times as long as evaluate on a 2-core x86-64 VM, and
    # about 210 times when every inc counted the edges of its whole child
    def best_of_3(fn, e):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn(e)
            times.append(time.perf_counter() - start)
        return min(times)

    d = 12000
    text = "(vertex p0)"
    for i in range(1, d):
        text = f"(inc p{i} ((p{i} p{i - 1})) {text})"
    e = parse(f"(undirected {text})")
    assert count_triangles(e) == 0 and evaluate(e).m == d - 1
    tc_s, evaluate_s = best_of_3(count_triangles, e), best_of_3(evaluate, e)
    assert tc_s <= 40 * evaluate_s, (tc_s, evaluate_s)


@given(seed=st.integers(min_value=0, max_value=10**6), mask=st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_edges_within_matches_induced_subgraph(seed, mask):
    # every inc child of a generated expression with nested incs and
    # subst-td nodes, and the whole expression, against the evaluated graph:
    # the tree as written (multi-way unions, subst, subst-td) and normalized
    e = gen_random(GenSpec(UNDIRECTED, k=2, h=3, l=2, budget=8 + seed % 20, seed=seed))
    assert params(e) == (2, 3, 2)
    children = []
    for root in (e.root, normalize(e).root):
        children.append(root)
        children += [node.child for node in post_order(root).nodes if isinstance(node, Inc)]
    for child in children:
        g = evaluate(Expression(UNDIRECTED, child))
        s = frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1) | {"zz9"}
        induced_m = sum(1 for a, b in g.edges if a in s and b in s)
        order = post_order(child)
        assert edges_within(order, s, [(0, len(order))]) == induced_m


def _random_cograph_expr(rng):
    """A random undirected tree of unions and joins of two to four children,
    empty and vertex leaves, and incs adjacent to random vertices of their
    child."""
    fresh = iter(f"v{i}" for i in range(10**6))

    def build(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.25:
            if rng.random() < 0.2:
                return Empty(), []
            v = next(fresh)
            return Vertex(v), [v]
        if roll < 0.45:
            child, names = build(depth - 1)
            x = next(fresh)
            neighbors = frozenset(rng.sample(names, rng.randint(0, len(names))))
            return Inc(x, neighbors, frozenset(), child), names + [x]
        parts = [build(depth - 1) for _ in range(rng.randint(2, 4))]
        kind = Union if roll < 0.7 else Join
        return kind(tuple(p for p, _ in parts)), [v for _, names in parts for v in names]

    return build(4)[0]


@given(rng=st.randoms(use_true_random=False), mask=st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_edges_within_counts_induced_edges_on_raw_trees(rng, mask):
    # unions and joins as written: 3- and 4-way joins, nested unions and
    # joins, and empty children, at the root and at every inc child
    root = _random_cograph_expr(rng)
    children = [root]
    children += [node.child for node in post_order(root).nodes if isinstance(node, Inc)]
    for child in children:
        g = evaluate(Expression(UNDIRECTED, child))
        s = frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1) | {"zz9"}
        induced_m = sum(1 for a, b in g.edges if a in s and b in s)
        order = post_order(child)
        assert edges_within(order, s, [(0, len(order))]) == induced_m


def test_edges_within_of_a_wide_join():
    # a 4-way join of unions: the pairs of children each add c_i * c_j
    root = parse(
        "(undirected (join (union (vertex a) (vertex b)) (vertex c) (empty)"
        " (join (vertex d) (union (vertex e) (empty) (vertex f)))))"
    ).root
    order = post_order(root)
    whole = [(0, len(order))]
    assert edges_within(order, set("abcdef"), whole) == evaluate(Expression(UNDIRECTED, root)).m
    assert evaluate(Expression(UNDIRECTED, root)).m == 13
    # a, c, e: a-c, a-e, c-e; b, d: b-d
    assert edges_within(order, set("ace"), whole) == 3
    assert edges_within(order, set("bd"), whole) == 1


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


def test_subst_edgeless_pattern_matches_the_general_formula():
    # a pattern without edges or triangles must give the general formula's
    # closed form, the children's counts added up, and what the tree-depth
    # handler gives for the same pattern written as a union of its vertices
    import random

    from graphexpr.expr import Vertex

    rng = random.Random(13)
    for trial in range(200):
        names = tuple(f"p{i}" for i in range(rng.randint(1, 6)))
        children = []
        for nm in names:
            n = rng.randint(1, 50)
            m = rng.randint(0, n * (n - 1) // 2)
            children.append((nm, TriFold(n, m, rng.randint(0, 10**6))))
        got = combine_subst(Graph(UNDIRECTED, names, ()), children)
        assert got == TriFold(*(sum(f[j] for _, f in children) for j in range(3))), trial
        pattern_expr = Union(tuple(Vertex(nm) for nm in names))
        assert got == combine_subst_td(post_order(pattern_expr), children), trial


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
    assert combine_subst_td(post_order(pe), children) == TriFold(4, 5, 2)


def test_subst_td_edgeless_pattern():
    pe = Union(
        (
            Inc("p", frozenset(), frozenset(), Empty()),
            Inc("q", frozenset(), frozenset(), Empty()),
        )
    )
    children = [("p", TriFold(2, 1, 1)), ("q", TriFold(3, 0, 0))]
    assert combine_subst_td(post_order(pe), children).t == 1


def test_subst_td_tree_pattern_with_singletons_is_triangle_free():
    pe = gen_fixture("substar", 4).root
    pg = evaluate(Expression(UNDIRECTED, pe))
    children = [(nm, TriFold(1, 0, 0)) for nm in pg.vertices]
    assert combine_subst_td(post_order(pe), children).t == 0


def test_trifold_is_an_immutable_named_triple():
    f = TriFold(1, 0, 0)
    assert TriFold._fields == ("n", "m", "t")
    assert repr(f) == "TriFold(n=1, m=0, t=0)"
    assert (f.n, f.m, f.t) == (1, 0, 0)
    with pytest.raises(AttributeError):
        f.n = 2


def test_a_solve_leaves_the_shared_leaf_summaries_unchanged():
    h = handlers()
    vertex, nothing = h.base_vertex("a"), h.base_empty()
    assert handlers().base_vertex("b") is vertex and handlers().base_empty() is nothing
    for seed in range(20):
        count_triangles(corpus_instance(seed, UNDIRECTED, 40))
    assert count_triangles(parse("(undirected (union (empty) (inc x () (union (empty) (empty)))))")) == 0
    assert vertex == (1, 0, 0) and nothing == (0, 0, 0)


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
        assert combine_subst(pg, children) == combine_subst_td(post_order(pe), children), seed


def test_count_large_tree_depth_pattern():
    # a triangle (n = 3, m = 3, t = 1) in each of the 2p + 1 vertices of the
    # subdivided star, whose 2p edges close no triangle: each pattern edge
    # adds m_i * n_j + n_i * m_j = 18; 0.22-0.26 s on a 2-core x86-64 VM
    p = 2000
    e = gen_fixture("lemma7.2", p, clique=2)
    start = time.perf_counter()
    t = count_triangles(e)
    elapsed = time.perf_counter() - start
    assert t == (2 * p + 1) * 1 + 2 * p * (3 * 3 + 3 * 3)
    assert elapsed < 5.0, elapsed


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
