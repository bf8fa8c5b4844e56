"""Metamorphic checks: the same graph written as another expression gives
the same answers.  The rewrite here reverses the order of the children of
every union and join and of the bindings of every substitution, which
changes the post-order the fold runs over, and so which edge-bearing
pieces of an inc's child sit next to each other in it."""

from graphexpr import (
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
)
from graphexpr.expr import Inc, SubstTd, subst_td_of
from graphexpr.paths import solve_tolerance


def reversed_expression(e):
    """``e`` with the children of every union and join and the bindings of
    every subst and subst-td of its main tree in reverse order, by one loop
    over ``e._order`` with a stack of the rewritten subtrees."""
    vals = []
    for node, c, _ in e._order:
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
    return [node.name for node, _, _ in e._order if type(node) is Vertex]


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

