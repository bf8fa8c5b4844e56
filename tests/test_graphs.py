"""Graph primitives: edge shift, potentials, Dijkstra with initial labels,
vertex-weighted Floyd, weight files."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexpr import (
    DIRECTED,
    INF,
    UNDIRECTED,
    ContractViolation,
    Graph,
    InputError,
    check_potential,
    detect_negative_cycle,
    edge_shift,
    floyd_vertex_weighted,
    is_negative_cycle,
    oracle_apsp,
    oracle_ncd,
    parse,
)
from graphexpr.graphs import TOL, check_total_weights, parse_weights
from graphexpr.paths import _dijkstra_labels

from brute_force import shortest_path_potential


def dgraph(vertices, edges):
    return Graph(DIRECTED, vertices, edges)


def dijkstra_labels(g, w, pi, sources, forward=True):
    """The solvers' Dijkstra under the reduced edge-shifted costs
    ``w(tail) + pi(tail) - pi(head)``, along out-lists (``forward``) or
    in-lists, from ``(vertex, initial_label)`` sources, with INF for the
    vertices it does not reach (the search labels only those it reaches).
    Like the solvers' adjacency, only vertices with edges have a list."""
    adjacency = {}
    for a, b in g.edges:
        tail, head = (a, b) if forward else (b, a)
        adjacency.setdefault(tail, []).append(head)
    labels = _dijkstra_labels(adjacency, w, pi, dict(sources), TOL, forward)
    return {v: labels.get(v, INF) for v in g.vertices}


# ---------------------------------------------------------------------------
# edge_shift


def test_edge_shift_moves_tail_weight():
    g = dgraph("ab", [("a", "b")])
    costs = edge_shift(g, {"a": -1.0, "b": 3.0})
    assert costs == {("a", "b"): -1.0}


def test_edge_shift_all_zero():
    g = dgraph("abc", [("a", "b"), ("b", "c")])
    costs = edge_shift(g, {v: 0.0 for v in "abc"})
    assert all(c == 0.0 for c in costs.values())


def test_edge_shift_cycle_cost_equals_vertex_weight_sum():
    g = dgraph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    w = {"a": 1.0, "b": 2.0, "c": 3.0}
    costs = edge_shift(g, w)
    assert costs[("a", "b")] == 1.0
    assert costs[("b", "c")] == 2.0
    assert costs[("c", "a")] == 3.0
    assert sum(costs.values()) == sum(w.values())


def test_edge_shift_rejects_undirected():
    g = Graph(UNDIRECTED, "ab", [("a", "b")])
    with pytest.raises(InputError):
        edge_shift(g, {"a": 0.0, "b": 0.0})


# ---------------------------------------------------------------------------
# check_potential


def test_check_potential_edgeless_always_true():
    g = dgraph("abc", [])
    assert check_potential(g, {}, {"a": 5.0, "b": -7.0, "c": 0.0})


def test_check_potential_zero_reduced_cost():
    g = dgraph("ab", [("a", "b")])
    assert check_potential(g, {("a", "b"): -1.0}, {"a": 0.0, "b": -1.0})


def test_check_potential_negative_edge_zero_potential():
    g = dgraph("ab", [("a", "b")])
    assert not check_potential(g, {("a", "b"): -1.0}, {"a": 0.0, "b": 0.0})


# ---------------------------------------------------------------------------
# Dijkstra with initial labels


def test_dijkstra_single_source_edgeless():
    g = dgraph("abc", [])
    zeros = {v: 0.0 for v in "abc"}
    labels = dijkstra_labels(g, zeros, zeros, [("a", 0.0)])
    assert labels == {"a": 0.0, "b": INF, "c": INF}


def test_dijkstra_zero_cost_path():
    g = dgraph("abc", [("a", "b"), ("b", "c")])
    zeros = {v: 0.0 for v in "abc"}
    labels = dijkstra_labels(g, zeros, zeros, [("a", 0.0)])
    assert labels == {"a": 0.0, "b": 0.0, "c": 0.0}


def test_dijkstra_negative_initial_label_beats_relaxation():
    g = dgraph("ab", [("b", "a")])
    labels = dijkstra_labels(
        g, {"a": 0.0, "b": 1.0}, {"a": 0.0, "b": 0.0}, [("a", -3.0), ("b", 0.0)]
    )
    assert labels["a"] == -3.0  # -3 < 0 + 1


def test_dijkstra_rejects_infeasible_potential():
    g = dgraph("ab", [("a", "b")])
    with pytest.raises(ContractViolation):
        dijkstra_labels(g, {"a": -1.0, "b": 0.0}, {"a": 0.0, "b": 0.0}, [("a", 0.0)])


# ---------------------------------------------------------------------------
# floyd_vertex_weighted


def test_floyd_single_vertex_distance_is_own_weight():
    g = dgraph("a", [])
    d = floyd_vertex_weighted(g, {"a": 5.0})
    assert d == {("a", "a"): 5.0}


def test_floyd_negative_two_cycle():
    g = dgraph("ab", [("a", "b"), ("b", "a")])
    assert is_negative_cycle(floyd_vertex_weighted(g, {"a": -3.0, "b": 2.0}))


def test_floyd_single_edge():
    g = dgraph("ab", [("a", "b")])
    d = floyd_vertex_weighted(g, {"a": 1.0, "b": 5.0})
    assert d[("a", "b")] == 6.0
    assert d[("b", "a")] == INF


# ---------------------------------------------------------------------------
# invariants


def _random_digraph(rng, n, p=0.35):
    names = [f"v{i}" for i in range(n)]
    edges = [
        (a, b) for a in names for b in names if a != b and rng.random() < p
    ]
    return Graph(DIRECTED, names, edges)


def _all_simple_paths(g, max_len=8):
    paths = []
    out = {v: [] for v in g.vertices}
    for a, b in g.edges:
        out[a].append(b)

    def extend(path):
        paths.append(path)
        for u in out[path[-1]]:
            if u not in path and len(path) < max_len:
                extend(path + [u])

    for v in g.vertices:
        extend([v])
    return paths


def test_reduced_path_cost_identity():
    # c_pi(P) = c(P) + pi(start) - pi(end) for any potential, any path
    rng = random.Random(1)
    for _ in range(50):
        g = _random_digraph(rng, rng.randint(2, 7))
        costs = {e: rng.uniform(-4, 4) for e in g.edges}
        pi = {v: rng.uniform(-5, 5) for v in g.vertices}
        for path in _all_simple_paths(g):
            if len(path) < 2:
                continue
            hops = list(zip(path, path[1:]))
            plain = sum(costs[e] for e in hops)
            reduced = sum(costs[e] + pi[e[0]] - pi[e[1]] for e in hops)
            assert math.isclose(reduced, plain + pi[path[0]] - pi[path[-1]], abs_tol=1e-9)


def test_edge_shifted_path_and_cycle_identities():
    # c_w(P) = w(P) - w(end); closing a cycle adds the missing end weight
    rng = random.Random(2)
    for _ in range(40):
        g = _random_digraph(rng, rng.randint(2, 6), p=0.4)
        w = {v: rng.uniform(-5, 5) for v in g.vertices}
        costs = edge_shift(g, w)
        for path in _all_simple_paths(g):
            shifted = sum(costs[e] for e in zip(path, path[1:]))
            total = sum(w[v] for v in path)
            assert math.isclose(shifted, total - w[path[-1]], abs_tol=1e-9)
            if len(path) >= 2 and (path[-1], path[0]) in g.edges:
                cycle_cost = shifted + costs[(path[-1], path[0])]
                assert math.isclose(cycle_cost, total, abs_tol=1e-9)


def test_dijkstra_matches_bellman_ford_oracle():
    rng = random.Random(3)
    checked = 0
    for _ in range(120):
        g = _random_digraph(rng, rng.randint(2, 8))
        w = {v: rng.uniform(-5, 5) for v in g.vertices}
        if oracle_ncd(g, w):
            continue
        pi = shortest_path_potential(g, w)
        costs = edge_shift(g, w)
        assert check_potential(g, costs, pi)
        want = oracle_apsp(g, w)
        for s in g.vertices:
            labels = dijkstra_labels(g, w, pi, [(s, 0.0)])
            for v in g.vertices:
                got = labels[v] - pi[s] + pi[v] + w[v] if labels[v] < INF else INF
                ref = want[(s, v)] if v != s else w[s]
                if v == s:
                    got = w[s]  # single-vertex path convention
                assert got == ref == INF or math.isclose(got, ref, abs_tol=1e-6)
        checked += 1
    assert checked >= 40


def test_backward_dijkstra_matches_bellman_ford_oracle():
    # labels along in-lists from several sources at once, as an inc's
    # search back from its in-names: sources without edges, and vertices
    # without in-edges that only a relaxation reaches, are labelled too
    rng = random.Random(5)
    checked = edgeless_sources = relaxed_dead_ends = 0
    for _ in range(120):
        g = _random_digraph(rng, rng.randint(2, 8))
        sources = rng.sample(list(g.vertices), rng.randint(1, min(3, g.n))) + ["z0"]
        g = dgraph(list(g.vertices) + ["z0", "z1"], g.edges)  # two edgeless vertices
        w = {v: rng.uniform(-5, 5) for v in g.vertices}
        if oracle_ncd(g, w):
            continue
        pi = shortest_path_potential(g, w)
        want = oracle_apsp(g, w)
        labels = dijkstra_labels(g, w, pi, [(s, w[s] + pi[s]) for s in sources], forward=False)
        has_in = {b for _, b in g.edges}
        for v in g.vertices:
            # the cheapest path from v into a source, both endpoints counted
            ref = min(w[s] if v == s else want[(v, s)] for s in sources)
            got = labels[v] - pi[v] if labels[v] < INF else INF
            assert got == ref == INF or math.isclose(got, ref, abs_tol=1e-6)
            if v not in sources and v not in has_in and labels[v] < INF:
                relaxed_dead_ends += 1
        edgeless_sources += labels["z0"] == w["z0"] + pi["z0"] and labels["z1"] == INF
        checked += 1
    assert checked >= 40 and edgeless_sources == checked and relaxed_dead_ends >= 10


def test_floyd_agrees_with_oracle_on_random_graphs():
    rng = random.Random(4)
    ncycles = 0
    for _ in range(150):
        g = _random_digraph(rng, rng.randint(1, 8))
        w = {v: rng.uniform(-5, 5) for v in g.vertices}
        got = floyd_vertex_weighted(g, w)
        want = oracle_apsp(g, w)
        if is_negative_cycle(want):
            assert is_negative_cycle(got)
            ncycles += 1
            continue
        assert not is_negative_cycle(got)
        for pair in want:
            a, b = got[pair], want[pair]
            assert a == b == INF or math.isclose(a, b, abs_tol=1e-6)
    assert ncycles > 10


@st.composite
def weighted_digraphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = [f"v{i}" for i in range(n)]
    edges = [
        (a, b)
        for a in names
        for b in names
        if a != b and draw(st.booleans())
    ]
    weights = {v: draw(st.integers(-50, 50)) / 10.0 for v in names}
    return Graph(DIRECTED, names, edges), weights


@given(weighted_digraphs())
@settings(max_examples=60, deadline=None)
def test_floyd_matches_oracle_hypothesis(gw):
    g, w = gw
    got = floyd_vertex_weighted(g, w)
    want = oracle_apsp(g, w)
    assert is_negative_cycle(got) == is_negative_cycle(want)
    if not is_negative_cycle(got):
        for pair in want:
            a, b = got[pair], want[pair]
            assert a == b == INF or math.isclose(a, b, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# weight files


def test_parse_weights_tsv():
    text = "# comment\na\t1.5\nb\t-2\n\nc\t0\n"
    assert parse_weights(text) == {"a": 1.5, "b": -2.0, "c": 0.0}


def test_parse_weights_rejects_garbage():
    with pytest.raises(InputError):
        parse_weights("a\tnope\n")
    with pytest.raises(InputError):
        parse_weights("a 1.5\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_weights_rejects_non_finite(value):
    with pytest.raises(InputError, match="not finite"):
        parse_weights(f"a\t1\nb\t{value}\n")


def test_parse_weights_rejects_duplicate_names():
    with pytest.raises(InputError, match="line 3: duplicate name 'a'"):
        parse_weights("a\t1\n# comment\na \t2\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_total_weights_rejects_non_finite(bad):
    g = dgraph("ab", [("a", "b")])
    check_total_weights(g.vertices, {"a": 1.0, "b": -2.0})
    with pytest.raises(InputError, match="non-finite"):
        check_total_weights(g.vertices, {"a": 1.0, "b": bad})
    # library solvers check their weights through the same gate
    e = parse("(directed (inc x ((x a) (a x)) (vertex a)))")
    with pytest.raises(InputError, match="non-finite"):
        detect_negative_cycle(e, {"x": bad, "a": -1.0})
