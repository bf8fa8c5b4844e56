"""Reference algorithms and generators."""

import math
import random

import pytest

from graphexpr import (
    DIRECTED,
    INF,
    UNDIRECTED,
    Graph,
    InputError,
    evaluate,
    floyd_vertex_weighted,
    gen_fixture,
    gen_random,
    gen_weights,
    is_negative_cycle,
    oracle_apsp,
    oracle_ncd,
    oracle_triangles,
    params,
    validate,
)
from graphexpr.oracle import GenSpec

from brute_force import oracle_treedepth
from conftest import SHAPES, corpus_instance


def ugraph(vertices, edges):
    return Graph(UNDIRECTED, vertices, edges)


def complete_graph(n):
    names = [f"v{i}" for i in range(n)]
    return ugraph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]])


def petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    names = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
    return ugraph(names, outer + inner + spokes)


# ---------------------------------------------------------------------------
# reference algorithms


def test_oracle_triangles_k4():
    assert oracle_triangles(complete_graph(4)) == 4


def test_oracle_triangles_c5():
    g = ugraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    assert oracle_triangles(g) == 0


def test_oracle_triangles_petersen():
    assert oracle_triangles(petersen()) == 0


def test_oracle_ncd_nonnegative_false():
    g = Graph(DIRECTED, "abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert not oracle_ncd(g, {"a": 0.0, "b": 1.0, "c": 2.0})


def test_oracle_ncd_negative_two_cycle():
    g = Graph(DIRECTED, "ab", [("a", "b"), ("b", "a")])
    assert oracle_ncd(g, {"a": -3.0, "b": 2.0})


def test_oracle_ncd_dag_never():
    g = Graph(DIRECTED, "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    assert not oracle_ncd(g, {v: -5.0 for v in "abcd"})


def test_oracle_apsp_single_vertex():
    g = Graph(DIRECTED, "a", [])
    assert oracle_apsp(g, {"a": 5.0}) == {("a", "a"): 5.0}


def test_oracle_apsp_edge():
    g = Graph(DIRECTED, "ab", [("a", "b")])
    d = oracle_apsp(g, {"a": 1.0, "b": 5.0})
    assert d[("a", "b")] == 6.0
    assert d[("b", "a")] == INF


def test_oracle_apsp_negative_cycle_verdict():
    g = Graph(DIRECTED, "ab", [("a", "b"), ("b", "a")])
    assert is_negative_cycle(oracle_apsp(g, {"a": -3.0, "b": 2.0}))


def test_oracle_treedepth_clique():
    assert oracle_treedepth(complete_graph(3)) == 3


def test_oracle_treedepth_path():
    g = ugraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert oracle_treedepth(g) == 3


def test_oracle_treedepth_edgeless():
    assert oracle_treedepth(ugraph("abcde", [])) == 1


def test_oracle_treedepth_refuses_large():
    with pytest.raises(InputError):
        oracle_treedepth(complete_graph(11))


def test_floyd_and_oracle_apsp_are_independent_but_agree():
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(1, 9)
        names = [f"v{i}" for i in range(n)]
        edges = [
            (a, b) for a in names for b in names if a != b and rng.random() < 0.3
        ]
        g = Graph(DIRECTED, names, edges)
        w = {v: rng.uniform(-5, 5) for v in names}
        a = floyd_vertex_weighted(g, w)
        b = oracle_apsp(g, w)
        if is_negative_cycle(b):
            assert is_negative_cycle(a)
            continue
        assert not is_negative_cycle(a)
        for pair in b:
            x, y = a[pair], b[pair]
            assert x == y == INF or math.isclose(x, y, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# generator


def test_gen_random_is_deterministic():
    spec = GenSpec(UNDIRECTED, k=2, h=3, l=2, budget=18, seed=42)
    assert gen_random(spec) == gen_random(spec)


def test_gen_random_achieves_exact_parameters():
    for seed in range(120):
        k, h, l = SHAPES[seed % len(SHAPES)]
        e = corpus_instance(seed, DIRECTED if seed % 2 else UNDIRECTED, 30)
        p = params(e)
        assert (p.k, p.h, p.l) == (k, h, l), seed
        assert validate(e) == []


def _nodes(root):
    """Every main-tree node of an expression."""
    from graphexpr.expr import post_order

    return post_order(root).nodes


def test_gen_random_cograph_shape():
    from graphexpr.expr import Inc, Subst, SubstTd

    e = gen_random(GenSpec(UNDIRECTED, budget=14, seed=3))
    assert not any(isinstance(n, (Inc, Subst, SubstTd)) for n in _nodes(e.root))


def test_gen_random_pure_td_shape():
    from graphexpr.expr import Join, Subst, SubstTd, Vertex

    e = gen_random(GenSpec(UNDIRECTED, k=3, budget=12, seed=4))
    assert not any(
        isinstance(n, (Join, Subst, SubstTd, Vertex)) for n in _nodes(e.root)
    )


def test_gen_random_budget_is_exact():
    for seed in range(40):
        e = corpus_instance(seed, UNDIRECTED, 25)
        assert evaluate(e).n == len(set(evaluate(e).vertices))


def test_gen_random_infeasible_specs():
    with pytest.raises(InputError):
        gen_random(GenSpec(UNDIRECTED, h=1, budget=10, seed=0))
    with pytest.raises(InputError):
        gen_random(GenSpec(UNDIRECTED, k=5, h=5, budget=3, seed=0))
    with pytest.raises(InputError):
        gen_random(GenSpec("sideways", budget=3, seed=0))


def test_gen_weights_deterministic_and_in_range():
    w1 = gen_weights(["a", "b", "c"], -5, 5, 17)
    w2 = gen_weights(["c", "b", "a"], -5, 5, 17)
    assert w1 == w2
    assert all(-5 <= v <= 5 for v in w1.values())


# ---------------------------------------------------------------------------
# fixtures


def test_fixture_lemma71_structure():
    for p in (2, 3, 4):
        e = gen_fixture("lemma7.1", p)
        assert tuple(params(e)) == (1, 0, 0)
        g = evaluate(e)
        assert g.n == 2 * p + 1
        # cross edges between distinct pairs plus p apex edges
        assert g.m == 4 * p * (p - 1) // 2 + p


def test_fixture_substar_structure_and_treedepth():
    for p in range(2, 7):
        e = gen_fixture("substar", p)
        assert tuple(params(e)) == (3, 0, 0)
        g = evaluate(e)
        assert g.n == 2 * p + 1 and g.m == 2 * p
        if g.n <= 10:
            assert oracle_treedepth(g) == 3


def test_fixture_substar_treedepth_large_limit():
    g = evaluate(gen_fixture("substar", 6))
    assert oracle_treedepth(g, limit=13) == 3


def test_fixture_lemma72_contains_clique_modules():
    e = gen_fixture("lemma7.2", 2, clique=1)
    assert tuple(params(e)) == (0, 0, 3)
    g = evaluate(e)
    assert g.n == 2 * (2 * 2 + 1)
    assert all(p <= bound for p, bound in zip(params(e), (0, 0, 3)))


def test_fixture_cliquependant():
    e = gen_fixture("cliquependant", 4)
    assert tuple(params(e)) == (0, 8, 0)
    g = evaluate(e)
    assert g.n == 8
    assert g.m == 6 + 4


def test_fixture_unknown_name():
    with pytest.raises(InputError, match="unknown fixture"):
        gen_fixture("nonesuch", 3)
    with pytest.raises(InputError):
        gen_fixture("substar", 1)
