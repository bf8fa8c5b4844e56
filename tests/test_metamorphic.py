"""Metamorphic checks: the same graph written as another expression gives
the same answers.  One rewrite reverses the order of the children of
every union and join and of the bindings of every substitution, which
changes the post-order the fold runs over, and so which edge-bearing
pieces of an inc's child sit next to each other in it.  The others write
each disjoint union another way: a union as a substitution or subst-td
into a pattern without edges, and an inc without edges as a union with
its vertex, also inside a tree-depth pattern with edges, where a
hand-built family also meets the oracles."""

import random

from graphexpr import (
    DIRECTED,
    UNDIRECTED,
    Expression,
    Join,
    Subst,
    Union,
    Vertex,
    apsp_outcome,
    count_triangles,
    evaluate,
    gen_weights,
    is_negative_cycle,
    ncd_outcome,
    oracle_apsp,
    oracle_ncd,
    oracle_triangles,
)
from graphexpr.expr import Empty, Inc, Pattern, SubstTd, subst_td_of
from graphexpr.paths import solve_tolerance


def reversed_expression(e):
    """``e`` with the children of every union and join and the bindings of
    every subst and subst-td of its main tree in reverse order, by one loop
    over ``e._order`` with a stack of the rewritten subtrees."""
    vals = []
    for node, c in zip(e._order.nodes, e._order.counts):
        t = type(node)
        top = len(vals) - c
        kids = vals[top:][::-1]
        del vals[top:]
        if t is Union or t is Join:
            node = t(tuple(kids))
        elif t is Inc:
            node = Inc(node.name, node.in_names, node.out_names, kids[0])
        elif t is Subst or t is SubstTd:
            bindings = tuple(zip([bn for bn, _ in reversed(node.bindings)], kids))
            if t is Subst:
                node = Subst(node.pattern, bindings)
            else:
                node = subst_td_of(node.pattern_order, bindings)
        vals.append(node)
    return Expression(e.mode, vals[0])


def _leaf_names(e):
    return [node.name for node in e._order.nodes if type(node) is Vertex]


def test_reversal_changes_the_order_and_keeps_the_graph(tc_corpus, paths_corpus):
    moved = 0
    for e, g, *_ in tc_corpus + paths_corpus:
        rev = reversed_expression(e)
        rg = evaluate(rev)
        assert (set(rg.vertices), rg.edges) == (set(g.vertices), g.edges)
        moved += _leaf_names(rev) != _leaf_names(e)
    assert moved > 1500


def test_reversal_keeps_the_triangle_count(tc_corpus):
    for e, *_ in tc_corpus:
        assert count_triangles(reversed_expression(e)) == count_triangles(e)


def _assert_close(got, want, tol, what):
    assert got == want or abs(got - want) <= tol, (what, got, want)


def test_reversal_keeps_the_shortest_path_answers(paths_corpus):
    # the corpus weights (mostly negative cycles) and weights in [0, 5],
    # which never make one, so that every instance compares its distances
    verdicts = set()
    for seed, (e, g, w, _) in enumerate(paths_corpus):
        rev = reversed_expression(e)
        for weights in (w, gen_weights(g.vertices, 0.0, 5.0, seed)):
            tol = solve_tolerance(weights)
            got, want = ncd_outcome(rev, weights)[0], ncd_outcome(e, weights)[0]
            assert is_negative_cycle(got) == is_negative_cycle(want), seed
            verdicts.add(is_negative_cycle(want))
            if not is_negative_cycle(want):
                _assert_close(got.msp, want.msp, tol, seed)
            got, want = apsp_outcome(rev, weights)[0], apsp_outcome(e, weights)[0]
            assert is_negative_cycle(got) == is_negative_cycle(want), seed
            if not is_negative_cycle(want):
                assert got.dist.keys() == want.dist.keys(), seed
                for pair, d in want.dist.items():
                    _assert_close(got.dist[pair], d, tol, (seed, pair))
    assert verdicts == {True, False}



# ---------------------------------------------------------------------------
# A disjoint union, four ways


def _unions_rewritten(e, form):
    """``e`` with the disjoint unions of its main tree written another way,
    and how many nodes were rewritten.  ``"subst"`` writes a union of r >= 2
    parts with vertices as a subst into the edgeless r-vertex pattern, and
    ``"subst-td"`` as a subst-td into ``(union (inc p1 () (empty)) ...)``,
    both dropping its parts without vertices; ``"inc"`` writes every ``(inc
    x () C)`` as ``(union C (vertex x))``.  One loop over ``e._order`` with a
    stack of the rewritten subtrees and one of whether they have
    vertices."""
    vals, full, rewritten = [], [], 0
    for node, c in zip(e._order.nodes, e._order.counts):
        t = type(node)
        top = len(vals) - c
        kids, has = vals[top:], full[top:]
        del vals[top:], full[top:]
        parts = [kid for kid, h in zip(kids, has) if h]
        if t is Union and form != "inc" and len(parts) > 1:
            names = tuple(f"p{i}" for i in range(1, len(parts) + 1))
            bindings = tuple(zip(names, parts))
            if form == "subst":
                node = Subst(Pattern(e.mode, names, frozenset()), bindings)
            else:
                none = frozenset()
                node = SubstTd(Union(tuple(Inc(p, none, none, Empty()) for p in names)), bindings)
            rewritten += 1
        elif t is Union or t is Join:
            node = t(tuple(kids))
        elif t is Inc and form == "inc" and not (node.in_names or node.out_names):
            node = Union((kids[0], Vertex(node.name)))
            rewritten += 1
        elif t is Inc:
            node = Inc(node.name, node.in_names, node.out_names, kids[0])
        elif t is Subst or t is SubstTd:
            bindings = tuple(zip([bn for bn, _ in node.bindings], kids))
            if t is Subst:
                node = Subst(node.pattern, bindings)
            else:
                node = subst_td_of(node.pattern_order, bindings)
        vals.append(node)
        full.append(t is Vertex or t is Inc or bool(parts))
    return Expression(e.mode, vals[0]), rewritten


_FORMS = ("subst", "subst-td", "inc")


def test_a_disjoint_union_written_four_ways_keeps_the_graph_and_triangle_count(
    tc_corpus, paths_corpus
):
    rewritten = dict.fromkeys(_FORMS, 0)
    for e, g, *_ in tc_corpus + paths_corpus:
        for form in _FORMS:
            other, count = _unions_rewritten(e, form)
            rewritten[form] += count
            og = evaluate(other)
            assert (set(og.vertices), og.edges) == (set(g.vertices), g.edges), form
            if e.mode == "undirected" and count:
                assert count_triangles(other) == count_triangles(e), form
    assert min(rewritten.values()) > 5000, rewritten


def test_a_disjoint_union_written_four_ways_keeps_the_shortest_path_answers(paths_corpus):
    # the corpus weights (mostly negative cycles), within the solve
    # tolerance, and integer weights in [0, 5], which never make one and
    # whose path sums are exact, so they must agree exactly
    verdicts = set()
    for seed, (e, g, w, _) in enumerate(paths_corpus):
        others = [x for x, count in (_unions_rewritten(e, form) for form in _FORMS) if count]
        whole = {v: float(round(x)) for v, x in gen_weights(g.vertices, 0.0, 5.0, seed).items()}
        for weights, tol in ((w, solve_tolerance(w)), (whole, 0.0)):
            ncd, apsp = ncd_outcome(e, weights)[0], apsp_outcome(e, weights)[0]
            verdicts.add(is_negative_cycle(ncd))
            for other in others:
                got = ncd_outcome(other, weights)[0]
                assert is_negative_cycle(got) == is_negative_cycle(ncd), seed
                if not is_negative_cycle(ncd):
                    _assert_close(got.msp, ncd.msp, tol, seed)
                got = apsp_outcome(other, weights)[0]
                assert is_negative_cycle(got) == is_negative_cycle(apsp), seed
                if not is_negative_cycle(apsp):
                    assert got.dist.keys() == apsp.dist.keys(), seed
                    for pair, d in apsp.dist.items():
                        _assert_close(got.dist[pair], d, tol, (seed, pair))
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# An inc without edges inside a tree-depth pattern with edges


def _edgeless_inc_in_a_pattern(mode, seed, as_union=False):
    """A subst-td, sometimes under an inc, whose tree-depth pattern has
    edges and one or more incs without names over vertices, each bound to
    a small graph; with ``as_union``, each such pattern inc is written as
    the union of its child and its vertex.  No generated corpus holds
    one."""
    rng = random.Random(seed)
    none = frozenset()
    names = ["p0"]
    pattern, edgeless, edged = Vertex("p0"), 0, 0
    while not (edgeless and edged) or len(names) < 3 or rng.random() < 0.5:
        p = f"p{len(names)}"
        step = rng.choice(["edges", "edges", "none", "union"])
        if step == "union":
            pattern = Union((pattern, Inc(p, none, none, Vertex(p + "v"))))
            names.append(p + "v")
            edgeless += 1
        elif step == "none":
            pattern = Inc(p, none, none, pattern)
            edgeless += 1
        else:
            targets = rng.sample(names, rng.randint(1, min(3, len(names))))
            ins = frozenset(t for t in targets if mode == DIRECTED and rng.random() < 0.5)
            pattern = Inc(p, ins, frozenset(targets) - ins, pattern)
            edged += 1
        names.append(p)
    if as_union:
        pattern = _pattern_incs_as_unions(pattern)
    bindings = []
    for p in sorted(names):
        a, b = Vertex(p + "a"), Vertex(p + "b")
        edge = Inc(p + "x", none, frozenset({p + "a"}), a)
        bindings.append((p, rng.choice([a, Union((a, b)), Join((a, b)), edge])))
    root = SubstTd(pattern, tuple(bindings))
    if rng.random() < 0.5:
        top = frozenset({f"{p}a" for p in rng.sample(names, 2)})
        root = Inc("top", top if mode == DIRECTED else none, top, root)
    return Expression(mode, root)


def _pattern_incs_as_unions(node):
    """``node`` with every inc without names written as a union."""
    t = type(node)
    if t is Inc and not (node.in_names or node.out_names):
        return Union((_pattern_incs_as_unions(node.child), Vertex(node.name)))
    if t is Inc:
        child = _pattern_incs_as_unions(node.child)
        return Inc(node.name, node.in_names, node.out_names, child)
    if t is Union:
        return Union(tuple(map(_pattern_incs_as_unions, node.children)))
    return node


def test_an_edgeless_inc_in_a_pattern_with_edges_meets_the_oracles():
    tc = paths = 0
    for seed in range(120):
        mode = (UNDIRECTED, DIRECTED)[seed % 2]
        e = _edgeless_inc_in_a_pattern(mode, seed)
        other = _edgeless_inc_in_a_pattern(mode, seed, as_union=True)
        g = evaluate(e)
        og = evaluate(other)
        assert (set(og.vertices), og.edges) == (set(g.vertices), g.edges), seed
        assert g.m, seed
        if mode == UNDIRECTED:
            assert count_triangles(e) == count_triangles(other) == oracle_triangles(g), seed
            tc += 1
            continue
        whole = {v: float(round(x)) for v, x in gen_weights(g.vertices, 0.0, 5.0, seed).items()}
        for weights in (gen_weights(g.vertices, -5.0, 5.0, seed), whole):
            tol = solve_tolerance(weights)
            ref = oracle_apsp(g, weights)
            for x in (e, other):
                ncd, apsp = ncd_outcome(x, weights)[0], apsp_outcome(x, weights)[0]
                assert is_negative_cycle(ncd) == is_negative_cycle(apsp) == oracle_ncd(g, weights)
                if is_negative_cycle(ref):
                    continue
                _assert_close(ncd.msp, min(ref.values()), tol, seed)
                assert apsp.dist.keys() == ref.keys(), seed
                for pair, d in ref.items():
                    _assert_close(apsp.dist[pair], d, max(tol, 1e-9), (seed, pair))
            paths += not is_negative_cycle(ref)
    assert tc == 60 and paths >= 40, (tc, paths)

