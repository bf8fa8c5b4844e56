"""The generic fold: handler dispatch, graph reconstruction sanity check,
accounting bounds."""

import itertools
import re
from array import array

import pytest

from graphexpr import (
    UNDIRECTED,
    Expression,
    HandlerSet,
    Join,
    Params,
    Subst,
    Vertex,
    assert_stats,
    evaluate,
    fold,
    normalize,
    params,
    parse,
    validate,
    validate_or_raise,
)
from graphexpr.expr import (
    Inc,
    Order,
    SubstTd,
    Union,
    canonical_edge,
    expression_of,
    td_pattern_edges,
)
from graphexpr.framework import fold_td_expression
from graphexpr.triangles import handlers as tri_handlers

from conftest import corpus_instance


def counting_handlers():
    """f = |V|, the simplest possible summary."""
    return HandlerSet(
        base_empty=lambda: 0,
        base_vertex=lambda name: 1,
        on_inc=lambda f, name, inn, out, order, runs: f + 1,
        on_subst=lambda pg, children: sum(f for _, f in children),
        on_subst_td=lambda pe, children: sum(f for _, f in children),
        on_union=sum,
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
        on_inc=lambda f, name, inn, out, order, runs: (f[0] + 1, f[1] + len(inn | out)),
        on_subst=subst,
        on_subst_td=lambda pe, children: (_ for _ in ()).throw(AssertionError),
        on_union=lambda parts: (sum(n for n, _ in parts), sum(m for _, m in parts)),
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


EMPTY_CASES = [
    "(union (empty) (vertex a) (join (empty) (vertex b) (vertex c)) (empty))",
    "(union (empty) (empty))",
    "(inc x () (union (empty) (join (empty) (empty))))",
    "(join (vertex a) (union (empty) (vertex b)) (vertex c)"
    " (inc d ((d a2) (d b2)) (join (vertex a2) (empty) (vertex b2))))",
    "(subst (graph (p q) ((p q))) ((p (union (vertex a) (empty) (vertex b)))"
    " (q (join (empty) (inc c ((c d)) (union (vertex d) (empty)))))))",
]


def _solver_handlers(w):
    from graphexpr.paths import apsp_handlers, ncd_handlers, solve_tolerance

    tol = solve_tolerance(w)
    return {"ncd": ncd_handlers(w, tol), "apsp": apsp_handlers(w, tol)}


def _comparable(value):
    """A summary as plain data: potentials as item lists (key order
    included) and APSP summaries expanded to their rows."""
    from graphexpr import TriFold, is_negative_cycle
    from graphexpr.paths import ModuleSummary, potential_dict, to_full_summary

    if isinstance(value, (int, TriFold)) or is_negative_cycle(value):
        return value
    if isinstance(value, ModuleSummary):
        value = to_full_summary(value)
    out = [list(potential_dict(value.potential).items()), value.msp]
    if hasattr(value, "rows"):
        out += [list(value.min_out.items()), list(value.min_in.items()), value.rows]
    return out


def _assert_folds_like_normalize(e, handlers, **kwargs):
    got, got_stats = fold(e, handlers, **kwargs)
    want, want_stats = fold(normalize(e), handlers, **kwargs)
    assert _comparable(got) == _comparable(want)
    assert got_stats == want_stats


def test_fold_equals_fold_of_normalize(tc_corpus, paths_corpus):
    # a union or join folds as the substitution chain normalize makes of it:
    # the same value and the same stats, with empty children dropped and a
    # subtree without vertices one empty leaf where it is kept
    for e, *_ in tc_corpus:
        _assert_folds_like_normalize(e, counting_handlers())
        _assert_folds_like_normalize(e, tri_handlers())
    for e, _, w, _ in paths_corpus:
        _assert_folds_like_normalize(e, counting_handlers())
        for hs in _solver_handlers(w).values():
            _assert_folds_like_normalize(e, hs)
    for text in EMPTY_CASES:
        _assert_folds_like_normalize(parse(f"(undirected {text})"), tri_handlers())
        e = parse(f"(directed {text})")
        w = {v: (-1.0) ** len(v) * len(v) for v in validate_or_raise(e)}
        for hs in (counting_handlers(), *_solver_handlers(w).values()):
            _assert_folds_like_normalize(e, hs)
    _, stats = fold(parse("(directed (union (empty) (empty)))"), counting_handlers())
    assert stats.counts == {"empty": 1} and stats.leaf_count == 1


def test_a_union_and_its_parts_as_one_edgeless_subst_agree(monkeypatch, tc_corpus, paths_corpus):
    # a substitution into a pattern without edges is a disjoint union, which
    # the fold hands to on_union: every solve gives the union's values and
    # makes no Floyd call for it, and FoldStats count one substitution of
    # order r where the union counts r - 1 of order 2
    from dataclasses import replace

    from graphexpr import apsp_outcome, gen_weights, ncd_outcome, paths, triangle_summary
    from graphexpr.expr import Pattern, collect_vertex_names

    floyd_calls = []
    real = paths.floyd_vertex_weighted
    monkeypatch.setattr(
        paths, "floyd_vertex_weighted", lambda *a: floyd_calls.append(a) or real(*a)
    )

    def as_subst(e):
        names = tuple(f"p{i}" for i in range(len(e.root.children)))
        pattern = Pattern(e.mode, names, frozenset())
        return Expression(e.mode, Subst(pattern, tuple(zip(names, e.root.children))))

    def agree(e, solve, *args):
        floyd_calls.clear()
        u_value, u_stats = solve(e, *args)
        u_floyd = len(floyd_calls)
        s_value, s_stats = solve(as_subst(e), *args)
        assert len(floyd_calls) == 2 * u_floyd
        assert _comparable(s_value) == _comparable(u_value)
        fewer = len(e.root.children) - 2
        assert s_stats == replace(
            u_stats,
            counts={**u_stats.counts, "subst": u_stats.counts["subst"] - fewer},
            sum_pattern_order=u_stats.sum_pattern_order - fewer,
            max_subst_order=max(u_stats.max_subst_order, fewer + 2),
        )
        return u_floyd

    def unions(corpus):
        roots = [x for x in corpus if type(x[0].root) is Union]
        return [x for x in roots if all(map(collect_vertex_names, x[0].root.children))][:150]

    for e, *_ in unions(tc_corpus):
        agree(e, triangle_summary)
    floyd = 0
    for e, g, w, _ in unions(paths_corpus):
        for weights in (w, gen_weights(g.vertices, 0.0, 5.0, len(g.vertices))):
            floyd += agree(e, ncd_outcome, weights)
            floyd += agree(e, apsp_outcome, weights)
    assert floyd > 0
    r = 300
    e = parse(
        "(directed (union "
        + " ".join(f"(inc b{i} ((a{i} b{i}) (b{i} a{i})) (vertex a{i}))" for i in range(r))
        + "))"
    )
    w = {f"{s}{i}": 1.0 + (s == "b") for i in range(r) for s in "ab"}
    for solve in (ncd_outcome, apsp_outcome):
        assert agree(e, solve, w) == 0


def _td_vertices(node):
    """The vertices of the tree-depth pattern ``node`` in post-order, each
    as ``(name, whether its inc has in- or out-names)``, by recursion."""
    if isinstance(node, Vertex):
        return [(node.name, False)]
    if isinstance(node, Inc):
        return _td_vertices(node.child) + [(node.name, bool(node.in_names or node.out_names))]
    return [v for child in getattr(node, "children", ()) for v in _td_vertices(child)]


def _edge_parts(root):
    """What the fold hands an inc over ``root``: the order entries of the
    maximal edge-bearing parts under ``root``, in post-order, by recursion
    over the node fields.  A part is the whole subtree of a join with two
    or more children with vertices, or of a substitution or subst-td into a
    pattern with edges, or the lone entry of an inc with in- or
    out-names."""
    from graphexpr.expr import collect_vertex_names, post_order, subexpressions

    def rec(node):
        kids = subexpressions(node)
        if (
            isinstance(node, Join) and sum(bool(collect_vertex_names(c)) for c in kids) > 1
            or isinstance(node, Subst) and node.pattern.edges
            or isinstance(node, SubstTd)
            and any(named for _, named in _td_vertices(node.pattern_expr))
        ):
            return _entries(post_order(node))
        parts = [entry for child in kids for entry in rec(child)]
        if isinstance(node, Inc) and (node.in_names or node.out_names):
            parts.append(_entries(post_order(node))[-1])
        return parts

    return rec(root)


def _entries(order, runs=None):
    """The ``(node, child count, subtree size)`` of each entry of ``order``
    in ``runs``, ``[start, stop)`` pairs (by default the whole order)."""
    if runs is None:
        runs = [(0, len(order))]
    return [
        (order.nodes[i], order.counts[i], order.sizes[i])
        for start, stop in runs
        for i in range(start, stop)
    ]


def _as_order(entries):
    """The ``Order`` whose entries are ``entries``, as ``_entries`` lists them."""
    nodes, counts, sizes = zip(*entries) if entries else ((), (), ())
    return Order(list(nodes), array("I", counts), array("I", sizes))


def _entry_ids(entries):
    """An order's entries, with each node by its identity."""
    return tuple((id(node), c, size) for node, c, size in entries)


def logging_handlers(log):
    """``counting_handlers`` that log each call: the handler, its node name
    or pattern, and its children (names and summaries), the entries of its
    child's edge-bearing parts or the length and root identity of its
    pattern order."""

    def subst(pg, children):
        log.append(("on_subst", pg.vertices, pg.edges, tuple(children)))
        return sum(f for _, f in children)

    def subst_td(po, children):
        log.append(("on_subst_td", len(po), id(po.nodes[-1]), tuple(children)))
        return sum(f for _, f in children)

    return HandlerSet(
        base_empty=lambda: log.append(("base_empty",)) or 0,
        base_vertex=lambda name: log.append(("base_vertex", name)) or 1,
        on_inc=lambda f, name, inn, out, order, runs: log.append(
            ("on_inc", name, f, _entry_ids(_entries(order, runs)))
        )
        or f + 1,
        on_subst=subst,
        on_subst_td=subst_td,
        on_union=lambda parts: log.append(("on_union", tuple(parts))) or sum(parts),
    )


def _reference_fold(e, hs):
    """``fold`` without ``verify``, as its docstring puts it, by plain
    recursion over the node fields: parts without vertices are dropped, a
    union is one ``on_union`` call counted as r - 1 substitutions into two
    isolated vertices, a join a left chain of ``on_subst`` steps over the
    ``_PAT_K2`` graph, a substitution or subst-td into a pattern without
    edges one ``on_union`` call (over the children in the pattern's vertex
    post-order for a subst-td) counted as that substitution, an inc over
    nothing ``base_vertex`` below an empty leaf, an inc without in- or
    out-names over vertices ``on_union`` of its child and x, an inc with
    names handed the edge-bearing parts of its child (``_edge_parts``), and
    a root without vertices ``base_empty``."""
    from graphexpr import FoldStats
    from graphexpr.expr import _PAT_K2, Empty, post_order, subexpressions

    stats = FoldStats()
    k2 = _PAT_K2[e.mode].to_graph()

    def count(kind, times=1):
        stats.counts[kind] = stats.counts.get(kind, 0) + times

    def substituted(order, times=1):
        count("subst", times)
        stats.sum_pattern_order += order * times
        stats.max_subst_order = max(stats.max_subst_order, order)

    def leaf(kind):
        count(kind)
        stats.leaf_count += 1

    def rec(node):  # (summary, or None without vertices; inc nesting)
        if isinstance(node, Empty):
            return None, 0
        if isinstance(node, Vertex):
            leaf("vertex")
            return hs.base_vertex(node.name), 0
        kids = [rec(child) for child in subexpressions(node)]
        depth = max([d for _, d in kids], default=0)
        if isinstance(node, Inc):
            count("inc")
            stats.max_inc_nesting = max(stats.max_inc_nesting, depth + 1)
            f = kids[0][0]
            if f is None:
                leaf("empty")
                return hs.base_vertex(node.name), depth + 1
            if not (node.in_names or node.out_names):  # a disjoint union
                return hs.on_union([f, hs.base_vertex(node.name)]), depth + 1
            child = _edge_parts(node.child)
            order, runs = _as_order(child), [(0, len(child))]
            return hs.on_inc(f, node.name, node.in_names, node.out_names, order, runs), depth + 1
        if isinstance(node, Subst):
            by_name = {bn: f for (bn, _), (f, _) in zip(node.bindings, kids)}
            substituted(len(node.pattern.names))
            if not node.pattern.edges:  # a disjoint union
                return hs.on_union([by_name[p] for p in node.pattern.names]), depth
            children = [(p, by_name[p]) for p in node.pattern.names]
            return hs.on_subst(node.pattern.to_graph(), children), depth
        if isinstance(node, SubstTd):
            count("subst_td")
            stats.sum_pattern_order += len(node.bindings)
            stats.max_subtd_depth = max(stats.max_subtd_depth, _inc_nesting(node.pattern_expr))
            children = [(bn, f) for (bn, _), (f, _) in zip(node.bindings, kids)]
            vertices = _td_vertices(node.pattern_expr)
            if not any(named for _, named in vertices):  # a disjoint union
                by_name = dict(children)
                return hs.on_union([by_name[p] for p, _ in vertices]), depth
            return hs.on_subst_td(post_order(node.pattern_expr), children), depth
        parts = [f for f, _ in kids if f is not None]
        if len(parts) < 2:
            return (parts[0] if parts else None), depth
        if isinstance(node, Union):
            substituted(2, len(parts) - 1)
            return hs.on_union(parts), depth
        value = parts[0]
        for f in parts[1:]:
            substituted(2)
            value = hs.on_subst(k2, [("a", value), ("b", f)])
        return value, depth

    value, _ = rec(e.root)
    if value is None:
        leaf("empty")
        value = hs.base_empty()
    return value, stats


def _inc_nesting(node):
    """The most inc nodes on a root-to-leaf path of the tree under ``node``,
    by recursion."""
    from graphexpr.expr import subexpressions

    depth = max(map(_inc_nesting, subexpressions(node)), default=0)
    return depth + 1 if isinstance(node, Inc) else depth


def _with_deep_stack(fn, *args):
    """``fn(*args)`` in a thread whose stack and recursion limit fit a
    recursion some 10^4 calls deep."""
    import sys
    import threading

    out = []

    def run():
        try:
            out.append((True, fn(*args)))
        except BaseException as exc:  # re-raised in the calling thread
            out.append((False, exc))

    limit, size = sys.getrecursionlimit(), threading.stack_size(256 * 2**20)
    sys.setrecursionlimit(10**5)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    assert not thread.is_alive()
    ok, value = out[0]
    if not ok:
        raise value
    return value


def test_fold_makes_the_calls_of_a_recursive_reference(tc_corpus, paths_corpus):
    # every handler call, in order, with its node, pattern and children,
    # and the stats, against the reference fold above
    def deep_chain(d):
        # unions and joins with empty parts, nesting d deep, and an inc
        # over the chain so far every 1000 levels
        text = "(vertex v0)"
        for i in range(1, d):
            if i % 1000 == 0:
                text = f"(inc x{i} ((x{i} v{i - 1})) {text})"
            elif i % 2:
                text = f"(union {text} (empty) (vertex v{i}))"
            else:
                text = f"(join (empty) (vertex v{i}) {text})"
        return text

    texts = EMPTY_CASES + [deep_chain(10**4)]
    cases = [e for e, *_ in tc_corpus + paths_corpus]
    cases += [parse(f"({mode} {text})") for text in texts for mode in ("undirected", "directed")]
    for e in cases:
        got, want = [], []
        got_value, got_stats = fold(e, logging_handlers(got))
        want_value, want_stats = _with_deep_stack(_reference_fold, e, logging_handlers(want))
        assert got == want
        assert (got_value, got_stats) == (want_value, want_stats)
    assert want_stats.counts["inc"] == 9 and want_stats.max_inc_nesting == 9
    assert want_stats.counts["subst"] == 10**4 - 10


def test_verify_sees_a_union_whole_and_every_step_of_a_join(tc_corpus):
    # verify checks the subgraphs that it checks on the normalized tree,
    # except that a union of r parts with vertices is checked once, on its
    # whole subgraph, where the normalized chain checks each of its r - 1
    # steps; a join is checked at each step, on the children folded so far
    from collections import Counter

    from graphexpr.expr import collect_vertex_names, post_order

    def seen(e):
        calls = Counter()
        fold(
            e,
            counting_handlers(),
            verify=lambda path, node, value, sub: calls.update([(value, sub.vertices, sub.edges)]),
        )
        return calls

    cases = [parse(f"(undirected {text})") for text in EMPTY_CASES]
    for e in cases + [e for e, *_ in tc_corpus[:200]]:
        got, chained = seen(e), seen(normalize(e))
        assert not got - chained
        nodes = post_order(e.root).nodes
        steps = 0
        for u in nodes:
            r = sum(bool(collect_vertex_names(c)) for c in u.children) if type(u) is Union else 0
            if r > 1:
                steps += r - 2
                g = evaluate(Expression(e.mode, u))
                assert got[(g.n, g.vertices, g.edges)] >= 1
        assert sum((chained - got).values()) == steps

    def paths(text):
        calls = []
        fold(
            parse(f"(undirected {text})"),
            counting_handlers(),
            verify=lambda path, node, value, sub: calls.append((path, value)),
        )
        return calls

    assert paths("(inc x () (join (vertex a) (empty) (vertex b) (vertex c)))") == [
        ("root/child/0", 1),
        ("root/child/2", 1),
        ("root/child/3", 1),
        ("root/child", 2),
        ("root/child", 3),
        ("root", 4),
    ]
    # an inc over nothing is checked as the empty leaf and then the inc
    assert paths("(inc x () (union (vertex a) (empty) (inc b () (empty)) (vertex c)))") == [
        ("root/child/0", 1),
        ("root/child/2/child", 0),
        ("root/child/2", 1),
        ("root/child/3", 1),
        ("root/child", 3),
        ("root", 4),
    ]


def graph_rebuild_handlers(mode):
    """Handlers that rebuild (vertices, edges); folding them must reproduce
    evaluate() exactly."""

    def inc(f, name, inn, out, order, runs):
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
        on_subst_td=lambda po, children: subst(evaluate(expression_of(mode, po)), children),
        on_union=lambda parts: (
            set().union(*(v for v, _ in parts)),
            set().union(*(e for _, e in parts)),
        ),
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
    e = parse("(directed (inc x ((x a)) (vertex a)))")

    def boom(f, name, inn, out, order, runs):
        raise RuntimeError("boom")

    hs = counting_handlers()
    hs.on_inc = boom
    with pytest.raises(RuntimeError, match=r"at root"):
        fold(e, hs)


NESTED = (
    "(directed (subst (graph (a b) ()) ((a (vertex u))"
    " (b (subst (graph (p q) ()) ((p (inc x ((x y)) (vertex y))) (q (vertex z))))))))"
)


def test_handler_error_message_is_unquoted():
    def boom(f, name, inn, out, order, runs):
        raise RuntimeError("boom")

    hs = counting_handlers()
    hs.on_inc = boom
    with pytest.raises(RuntimeError) as info:
        fold(parse(NESTED), hs)
    assert str(info.value) == "boom [at root/bind[b]/bind[p]]"
    assert info.value._fold_path == "root/bind[b]/bind[p]"


def _reference_paths(node, path="root"):
    """``(path, node)`` for ``node`` and every node below it in post-order,
    by plain recursion over the node fields."""
    if isinstance(node, Inc):
        steps = [("child", node.child)]
    elif isinstance(node, (Union, Join)):
        steps = [(str(i), child) for i, child in enumerate(node.children)]
    elif isinstance(node, (Subst, SubstTd)):
        steps = [(f"bind[{bn}]", sub) for bn, sub in node.bindings]
    else:
        steps = []
    out = []
    for step, child in steps:
        out += _reference_paths(child, f"{path}/{step}")
    return out + [(path, node)]


def _tag_every_node(node, path, expected, in_pattern=False):
    """A copy of ``node`` in which every inc, subst and subst-td node, and
    every union and join outside subst-td patterns, causes exactly one
    validation violation that names a fresh tag ``zz<i>``; ``expected[tag]``
    is that node's path.  An inc names the tag as an unknown target, a union
    or join gets the tag as two duplicate vertex children, a substitution a
    binding for the tag as an unknown pattern vertex."""
    tag = f"zz{len(expected)}"
    if isinstance(node, Inc):
        expected[tag] = path
        child = _tag_every_node(node.child, path + "/child", expected, in_pattern)
        return Inc(node.name, node.in_names, node.out_names | {tag}, child)
    if isinstance(node, (Union, Join)):
        if not in_pattern:
            expected[tag] = path
        children = tuple(
            _tag_every_node(child, f"{path}/{i}", expected, in_pattern)
            for i, child in enumerate(node.children)
        )
        return type(node)(children if in_pattern else children + (Vertex(tag), Vertex(tag)))
    if isinstance(node, (Subst, SubstTd)):
        expected[tag] = path
        bindings = tuple(
            (bn, _tag_every_node(sub, f"{path}/bind[{bn}]", expected))
            for bn, sub in node.bindings
        )
        bindings += ((tag, Vertex(tag + "v")),)
        if isinstance(node, Subst):
            return Subst(node.pattern, bindings)
        pattern = _tag_every_node(node.pattern_expr, path + "/pattern", expected, True)
        return SubstTd(pattern, bindings)
    return node


def test_verify_receives_node_paths_in_post_order(tc_corpus, paths_corpus):
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
    # the acceptance corpora: every node the fold verifies, and every
    # validation violation, is located where an independent walk puts it
    pattern_paths = 0
    for e, *_ in tc_corpus + paths_corpus:
        ne = normalize(e)
        seen = []
        fold(ne, counting_handlers(), verify=lambda path, node, *_: seen.append((path, node)))
        want = _reference_paths(ne.root)
        assert [path for path, _ in seen] == [path for path, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(seen, want))

        expected = {}
        tagged = _tag_every_node(e.root, "root", expected)
        got = {}
        for v in validate(Expression(e.mode, tagged)):
            (tag,) = re.findall(r"'(zz\d+)'", v.message)
            assert tag not in got, v
            got[tag] = v.path
        assert got == expected
        pattern_paths += sum("/pattern" in path for path in got.values())
    assert pattern_paths > 100


def test_handler_error_path_on_deep_normalized_chain():
    r = 3001
    leaves = " ".join(f"(inc x{i} ((x{i} a{i})) (vertex a{i}))" for i in range(r))
    e = normalize(parse(f"(directed (union {leaves}))"))

    def boom(f, name, inn, out, order, runs):
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


def test_solve_handler_error_names_the_raw_input_path(monkeypatch):
    # the solvers fold the tree as parsed: a handler error names the path of
    # the node as written, and an error in a step of a union or join names
    # that union or join
    from graphexpr import ContractViolation, ncd_outcome, paths, triangle_summary, triangles

    def boom(real, bad):
        def spy(*args):
            if bad(*args):
                raise ContractViolation("boom")
            return real(*args)

        return spy

    nested = "(union (vertex a) (vertex b) (inc y () (inc x ((x c)) (union (vertex c) (empty)))))"
    monkeypatch.setattr(paths, "ncd_inc", boom(paths.ncd_inc, lambda f, x, *_: x == "x"))
    w = dict.fromkeys("abcxy", 1.0)
    with pytest.raises(ContractViolation) as info:
        ncd_outcome(parse(f"(directed {nested})"), w)
    assert str(info.value) == "boom [at root/2/child]"
    # an error in a pattern replay names the subst-td node, not the pattern
    replayed = "(subst-td (inc q ((q p)) (vertex p)) ((p (vertex a)) (q (vertex b))))"
    monkeypatch.setattr(paths, "ncd_inc", boom(paths.ncd_inc, lambda f, x, *_: x == "q"))
    with pytest.raises(ContractViolation) as info:
        ncd_outcome(parse(f"(directed (union (vertex z) {replayed}))"), dict.fromkeys("abz", 1.0))
    assert str(info.value) == "boom [at root/1]"

    monkeypatch.setattr(triangles, "combine_subst", boom(triangles.combine_subst, lambda *_: True))
    with pytest.raises(ContractViolation) as info:
        triangle_summary(parse("(undirected (inc y () (join (vertex a) (empty) (vertex b))))"))
    assert str(info.value) == "boom [at root/child]"


def test_inc_handler_gets_its_child_expression_only():
    # x's child has edges in a join and at the inc y; x gets those two
    # parts of its child alone, and nothing of the join to z above it
    from graphexpr.expr import evaluate_node

    e = parse(
        "(undirected (join (vertex z) (inc x ((x a)) "
        "(union (join (vertex a) (vertex b)) (vertex c) (inc y ((y c)) (vertex d))))))"
    )
    for folded in (e, normalize(e)):
        seen = {}

        def spy(f, name, inn, out, order, runs):
            assert order is folded._order  # the folded order itself, not a copy
            seen[name] = runs
            return f + 1

        hs = counting_handlers()
        hs.on_inc = spy
        fold(folded, hs)
        x = folded.root.children[1] if folded is e else folded.root.bindings[1][1]
        child = _entries(folded._order, seen["x"])
        assert _entry_ids(child) == _entry_ids(_edge_parts(x.child))
        # the parts: the subtree of the join of a and b, and the entry of y
        kinds = [type(node).__name__ for node, _, _ in child]
        assert kinds[-1] == "Inc" and child[-1][0].name == "y"
        assert {type(node).__name__ for node, _, _ in child[:-1]} <= {"Join", "Subst", "Vertex"}
        _, out, _ = evaluate_node(folded._order, UNDIRECTED, seen["x"])
        edges = {canonical_edge(UNDIRECTED, u, v) for u, heads in out.items() for v in heads}
        assert edges == {canonical_edge(UNDIRECTED, *p) for p in (("a", "b"), ("y", "c"))}
        assert "z" not in out and "x" not in out
        # an inc over a child without edges gets no part at all
        assert seen["y"] == []


@pytest.fixture
def evaluations(monkeypatch):
    """The evaluations started outside the evaluator: every module's
    ``evaluate`` and ``evaluate_node`` is wrapped, and the calls the
    evaluator makes to itself are not recorded.  An ``evaluate`` call is
    recorded as its expression's root, an ``evaluate_node`` call as the
    entries of its order, each node by its identity (``_entry_ids``)."""
    from graphexpr import expr, framework, paths, triangles

    roots, depth = [], [0]

    def wrap(real, root_of):
        def spy(*args):
            if not depth[0]:
                roots.append(root_of(*args))
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1

        return spy

    for module in (expr, framework, paths, triangles):
        if hasattr(module, "evaluate"):
            monkeypatch.setattr(module, "evaluate", wrap(module.evaluate, lambda e: e.root))
        if hasattr(module, "evaluate_node"):
            real = module.evaluate_node
            monkeypatch.setattr(
                module,
                "evaluate_node",
                wrap(real, lambda order, mode, runs=None: _entry_ids(_entries(order, runs))),
            )
    return roots


def test_solves_evaluate_only_their_inc_children(evaluations):
    # without verify, the fold and a TC solve evaluate nothing; an NCD or
    # APSP solve evaluates the child of each inc node with in- or out-names
    # once, its edge-bearing parts, in the main tree and in subst-td
    # patterns alike (an inc without names is a disjoint union, and
    # evaluates nothing)
    from collections import Counter

    from graphexpr import (
        DIRECTED,
        apsp_outcome,
        count_triangles,
        gen_weights,
        is_negative_cycle,
        ncd_outcome,
    )
    from graphexpr.expr import Inc, SubstTd, collect_vertex_names, post_order

    def inc_children(root):
        nodes = post_order(root).nodes
        incs = [n.child for n in nodes if isinstance(n, Inc) and (n.in_names or n.out_names)]
        return incs, [n.pattern_expr for n in nodes if isinstance(n, SubstTd)]

    seen = Counter()
    for seed in range(70):
        for mode in (UNDIRECTED, DIRECTED):
            e = corpus_instance(seed, mode, 25)
            evaluations.clear()  # the generator evaluates its patterns
            fold(e, counting_handlers())
            assert evaluations == [], seed
            if mode == UNDIRECTED:
                count_triangles(e)
                assert evaluations == [], seed
                continue
            main, patterns = inc_children(e.root)
            pattern_incs = [c for pe in patterns for c in inc_children(pe)[0]]
            seen["main"] += len(main)
            seen["pattern"] += len(pattern_incs)
            w = gen_weights(collect_vertex_names(e.root), 0.0, 5.0, seed)
            for solve in (ncd_outcome, apsp_outcome):
                evaluations.clear()
                value, _ = solve(e, w)
                assert not is_negative_cycle(value)
                want = Counter(_entry_ids(_edge_parts(c)) for c in main + pattern_incs)
                assert Counter(evaluations) == want, (seed, solve.__name__)
    assert seen["main"] and seen["pattern"]


def test_inc_over_the_empty_graph_evaluates_nothing(evaluations):
    # a wide union of incs over (empty) is a union of single vertices: NCD
    # and APSP answer each inc without evaluating its child, and give the
    # summaries of the union of vertex leaves.  APSP runs on 10^3 leaves:
    # the root's expansion to n^2 distances sets its time and memory.
    from graphexpr import apsp_outcome, gen_weights, ncd_outcome

    def unions(r):
        names = [f"v{i}" for i in range(r)]
        incs = " ".join(f"(inc {v} () (empty))" for v in names)
        vertices = " ".join(f"(vertex {v})" for v in names)
        w = gen_weights(names, -5.0, 5.0, r)
        return parse(f"(directed (union {incs}))"), parse(f"(directed (union {vertices}))"), w

    for solve, r in ((ncd_outcome, 10**4), (apsp_outcome, 10**3)):
        incs, vertices, w = unions(r)
        evaluations.clear()
        got, _ = solve(incs, w)
        assert evaluations == [], solve.__name__
        want, _ = solve(vertices, w)
        assert got.potential == want.potential, solve.__name__
        assert got.msp == want.msp == min(w.values()), solve.__name__
        if solve is apsp_outcome:
            assert got.rows == want.rows


def test_a_wide_union_of_incs_over_nothing_is_one_union_call(monkeypatch):
    # a 10^4-way union of (inc v () (empty)) is a union of vertex leaves: no
    # inc handler, no substitution handler and one union handler call per
    # solve, with the stats of folding the normalized chain.  APSP is folded
    # without the root's expansion, whose 10^8 distances would not fit.
    from collections import Counter

    from graphexpr import gen_weights, ncd_outcome, paths, triangle_summary, triangles

    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("_inc_core", "ncd_subst", "_ncd_union", "apsp_subst", "_apsp_union"):
        spy(paths, name)
    for name in ("edges_within", "combine_subst", "combine_union"):
        spy(triangles, name)

    r = 10**4
    names = [f"v{i}" for i in range(r)]
    incs = " ".join(f"(inc {v} () (empty))" for v in names)
    w = gen_weights(names, -5.0, 5.0, r)
    tol = paths.solve_tolerance(w)
    solves = (
        ("undirected", triangle_summary, "combine_union"),
        ("directed", lambda e: ncd_outcome(e, w), "_ncd_union"),
        ("directed", lambda e: fold(e, paths.apsp_handlers(w, tol)), "_apsp_union"),
    )
    for mode, solve, union in solves:
        e = parse(f"({mode} (union {incs}))")
        calls.clear()
        _, stats = solve(e)
        assert calls == {union: 1}, mode
        assert stats == fold(normalize(e), counting_handlers())[1]
        assert stats.counts == {"inc": r, "empty": r, "subst": r - 1}
        assert stats.sum_pattern_order == 2 * (r - 1) and stats.max_subst_order == 2


def test_every_disjoint_union_reaches_on_union(tc_corpus, paths_corpus):
    # an inc without in- or out-names over vertices, and a subst-td into a
    # pattern without edges, are disjoint unions: the fold hands them to
    # on_union, in the main tree and in pattern replays, and never to
    # on_inc or on_subst_td.  A summary is the tuple of the vertex names in
    # leaf order; on_subst_td replays its pattern with the same handlers.
    from graphexpr.expr import collect_vertex_names

    def inc(f, name, inn, out, order, runs):
        assert inn or out, f"on_inc for {name!r}, which has no edges"
        return f + (name,)

    def subst_td(po, children):
        assert list(td_pattern_edges(po, "directed")), "on_subst_td for an edgeless pattern"
        fold_td_expression(po, hs)
        return sum((f for _, f in children), ())

    unions = []
    hs = HandlerSet(
        base_empty=tuple,
        base_vertex=lambda name: (name,),
        on_inc=inc,
        on_subst=lambda pg, children: sum((f for _, f in children), ()),
        on_subst_td=subst_td,
        on_union=lambda parts: unions.append(tuple(parts)) or sum(parts, ()),
    )
    e = parse(
        "(directed (union (inc x () (subst-td (union (inc p () (vertex q)) (vertex s))"
        " ((p (vertex a)) (q (vertex b)) (s (vertex c)))))"
        " (subst-td (union (inc p () (vertex q)) (inc r ((r s)) (vertex s)))"
        " ((p (vertex d)) (q (vertex e)) (r (vertex f)) (s (vertex g))))))"
    )
    value, _ = fold(e, hs)
    assert value == ("b", "a", "c", "x", "d", "e", "f", "g")
    assert unions == [
        (("b",), ("a",), ("c",)),  # the edgeless subst-td, in pattern vertex post-order
        (("b", "a", "c"), ("x",)),  # the inc x over it
        (("q",), ("p",)),  # the inc p in the replay of the other pattern
        (("q", "p"), ("s", "r")),  # that pattern's union
        (("b", "a", "c", "x"), ("d", "e", "f", "g")),  # the root
    ]

    # the corpora put no inc without names over vertices into a pattern
    # with edges, so the replay is pinned by the input above only
    routed = {"inc": 0, "subst_td": 0}
    for e, *_ in tc_corpus + paths_corpus:
        for node in e._order.nodes:
            if type(node) is Inc and not (node.in_names or node.out_names):
                routed["inc"] += bool(collect_vertex_names(node.child))
            elif type(node) is SubstTd:
                routed["subst_td"] += not list(td_pattern_edges(node.pattern_order, e.mode))
        value, _ = fold(e, hs)
        assert sorted(value) == sorted(validate_or_raise(e))
    assert min(routed.values()) > 50, routed


def _cycle_then_incs(r, cycle_weight):
    """A union whose first part is the 2-cycle a <-> x of weight
    2 * cycle_weight, followed by r incs over nothing, and its weights."""
    incs = " ".join(f"(inc v{i} () (empty))" for i in range(r))
    e = parse(f"(directed (union (inc x ((x a) (a x)) (vertex a)) {incs}))")
    w = {"a": cycle_weight, "x": cycle_weight, **{f"v{i}": 1.0 for i in range(r)}}
    return e, w


def _spied(handlers, calls):
    """``handlers`` with each call recorded in ``calls`` by handler name."""
    from dataclasses import fields

    def spy(name, handler):
        def call(*args):
            calls.append(name)
            return handler(*args)

        return call

    return HandlerSet(**{f.name: spy(f.name, getattr(handlers, f.name)) for f in fields(handlers)})


def test_a_negative_cycle_ends_the_fold_with_the_stats_of_the_whole_expression(monkeypatch):
    # the first inc finds the cycle, and the 10^4 parts after it reach no
    # handler; the stats still count every node, as the front end counts
    # them, and equal those of the same input without the cycle
    from graphexpr import NEGATIVE_CYCLE, paths
    from graphexpr.framework import Verdict

    calls = []
    real = paths._inc_core

    def inc_core(*args):
        try:
            return real(*args)
        except Verdict:
            calls.append("verdict")
            raise

    monkeypatch.setattr(paths, "_inc_core", inc_core)
    r = 10**4
    for make in (paths.ncd_handlers, paths.apsp_handlers):
        e, w = _cycle_then_incs(r, -1.0)
        calls.clear()
        value, stats = fold(e, _spied(make(w, paths.solve_tolerance(w)), calls))
        assert value is NEGATIVE_CYCLE
        assert calls == ["base_vertex", "on_inc", "verdict"]
        e_pos, w_pos = _cycle_then_incs(r, 1.0)
        value_pos, stats_pos = fold(e_pos, make(w_pos, paths.solve_tolerance(w_pos)))
        assert value_pos.msp == 1.0
        assert stats == stats_pos == fold(e, counting_handlers())[1]
        assert stats.counts == {"vertex": 1, "inc": r + 1, "empty": r, "subst": r}


def test_verify_checks_a_verdict_once_at_the_node_that_reported_it():
    from graphexpr import NEGATIVE_CYCLE, paths

    e, w = _cycle_then_incs(100, -1.0)
    tol = paths.solve_tolerance(w)
    for make in (paths.ncd_handlers, paths.apsp_handlers):
        checker, seen = paths.make_paths_verifier(w, tol), []

        def check(path, node, value, sub):
            seen.append((path, value))
            checker(path, node, value, sub)

        value, _ = fold(e, make(w, tol), verify=check)
        assert [(path, v) for path, v in seen if v is value] == [("root/0", value)]
        assert [path for path, _ in seen] == ["root/0/child", "root/0"]
    # a verdict raised in a pattern replay is checked once, at the subst-td
    # node that replays the pattern
    e = parse(
        "(directed (union (vertex z) (subst-td (inc q ((q p) (p q)) (vertex p))"
        " ((p (vertex a)) (q (vertex b))))))"
    )
    w = {"z": 1.0, "a": -1.0, "b": -1.0}
    tol = paths.solve_tolerance(w)
    for make in (paths.ncd_handlers, paths.apsp_handlers):
        checker, seen = paths.make_paths_verifier(w, tol), []

        def check(path, node, value, sub):
            seen.append((path, value))
            checker(path, node, value, sub)

        value, _ = fold(e, make(w, tol), verify=check)
        assert value is NEGATIVE_CYCLE
        assert [(path, v) for path, v in seen if v is value] == [("root/1", value)]
        assert [path for path, _ in seen] == ["root/0", "root/1/bind[p]", "root/1/bind[q]", "root/1"]


def test_verify_catches_a_false_verdict(monkeypatch, tmp_path, capsys):
    # a handler that reports a negative cycle where there is none ends the
    # fold, and --verify finds no cycle in that node's subgraph
    from graphexpr import NEGATIVE_CYCLE, cli, paths
    from graphexpr.framework import Verdict

    def inc_core(*args):
        raise Verdict(NEGATIVE_CYCLE)

    (tmp_path / "e.txt").write_text("(directed (inc x ((x a) (b x)) (join (vertex a) (vertex b))))")
    (tmp_path / "w.tsv").write_text("a\t1\nb\t2\nx\t3\n")
    argv = ["solve", "ncd", str(tmp_path / "e.txt"), str(tmp_path / "w.tsv")]
    assert cli.main(argv + ["--verify"]) == 0
    assert "negative-cycle=false" in capsys.readouterr().out
    monkeypatch.setattr(paths, "_inc_core", inc_core)
    assert cli.main(argv) == 0
    assert "negative-cycle=true" in capsys.readouterr().out
    assert cli.main(argv + ["--verify"]) == 3
    assert "root: handler reported a negative cycle, subgraph has none" in capsys.readouterr().err


def test_verify_errors_leave_the_fold_as_raised():
    # an error that verify raises is the checker's, not a handler's: the
    # fold passes it on as it is, with no node path appended
    def check(path, node, value, sub):
        raise ValueError(f"checked {path}")

    with pytest.raises(ValueError, match=r"^checked root/0$"):
        fold(parse("(directed (union (vertex a) (vertex b)))"), counting_handlers(), verify=check)


def test_verify_checks_a_wide_union_once():
    # verify checks a union on its whole subgraph once; checking each step
    # on the growing partial union instead is quadratic, about 8 s here
    import time

    from graphexpr import gen_weights, ncd_outcome

    names = [f"v{i}" for i in range(2000)]
    incs = " ".join(f"(inc {v} () (empty))" for v in names)
    e = parse(f"(directed (union {incs}))")
    w = gen_weights(names, -5.0, 5.0, 3)
    start = time.perf_counter()
    value, _ = ncd_outcome(e, w, verify=True)
    assert time.perf_counter() - start < 1.0
    assert value.msp == min(w.values())


def test_verify_locates_each_node_of_a_wide_union_in_constant_time():
    # verify renders the location of each of the 2 * 10^4 nodes below a
    # 10^4-way union: the parent index is built once, and each call then
    # climbs one level; finding each node's place among the union's
    # children afresh costs O(width) per call, several seconds here
    import time

    from graphexpr import gen_weights, ncd_outcome

    names = [f"v{i}" for i in range(10**4)]
    incs = " ".join(f"(inc {v} () (empty))" for v in names)
    e = parse(f"(directed (union {incs}))")
    w = gen_weights(names, -5.0, 5.0, 3)
    start = time.perf_counter()
    value, stats = ncd_outcome(e, w, verify=True)
    assert time.perf_counter() - start < 3.0
    assert value.msp == min(w.values())
    assert stats.counts == {"inc": 10**4, "empty": 10**4, "subst": 10**4 - 1}


def test_verify_walks_only_join_steps_anew(monkeypatch, tc_corpus, paths_corpus):
    # the checker evaluates a node's subgraph from the node's slice of the
    # order; only a join step, the chain of two-vertex substitutions over
    # the join's children folded so far, is no slice and is walked with
    # post_order, once per step
    from graphexpr import expr
    from graphexpr.expr import collect_vertex_names

    walked = []
    real = expr.post_order
    monkeypatch.setattr(expr, "post_order", lambda root: walked.append(root) or real(root))
    total = 0
    for e, *_ in tc_corpus[:300] + paths_corpus[:300]:
        fold(e, counting_handlers())  # the order and the front end are cached in e
        walked.clear()
        fold(e, counting_handlers(), verify=lambda path, node, value, sub: None)
        steps = 0
        for node in e._order.nodes:
            if type(node) is Join:
                parts = sum(bool(collect_vertex_names(child)) for child in node.children)
                steps += max(parts - 1, 0)
        assert len(walked) == steps
        assert all(type(root) is Subst for root in walked)
        total += steps
    assert total > 100


def test_verify_on_a_deep_inc_chain_checks_each_node_without_refolding_it():
    # --verify evaluates and checks each node's subgraph once, O(depth x
    # graph) on a 300-deep inc chain with one edge per inc; folding each
    # subtree again to check it is O(depth x fold), tens of seconds here
    import time

    from graphexpr import apsp_outcome, ncd_outcome

    d = 300
    text = "".join(f"(inc p{i} ((p{i} p{i - 1})) " for i in range(d - 1, 0, -1))
    e = parse(f"(directed {text}(vertex p0){')' * (d - 1)})")
    w = {f"p{i}": 1.0 for i in range(d)}
    start = time.perf_counter()
    value, _ = ncd_outcome(e, w, verify=True)
    full, _ = apsp_outcome(e, w, verify=True)
    assert time.perf_counter() - start < 3.0
    assert value.msp == full.msp == 1.0
    assert full.dist[(f"p{d - 1}", "p0")] == d


def test_inc_view_resolves_its_vertices_and_graph_once(evaluations):
    # an inc handler gets the edge-bearing parts of the Inc node's own
    # child; the shortest-path inc core resolves that child's edges with one
    # evaluation of those parts and never evaluates the whole graph
    from graphexpr import DIRECTED, apsp_outcome, is_negative_cycle, ncd_outcome
    from graphexpr.expr import Inc, post_order
    from graphexpr.paths import ncd_handlers, solve_tolerance

    e = parse(
        "(directed (join (vertex z) (inc y ((y x) (c y)) (inc x ((x a) (b x)) "
        "(union (vertex a) (vertex b) (join (vertex c) (vertex d)))))))"
    )
    nodes = post_order(e.root).nodes
    incs = [n for n in nodes if isinstance(n, Inc)]
    assert [n.name for n in incs] == ["x", "y"]
    w = {v: 1.0 for v in "abcdxyz"}
    # x gets the join of c and d; y gets that join and the entry of x
    cd = nodes[[type(n) for n in nodes].index(Join)]
    cd_entries = _entries(post_order(cd))
    parts = [cd_entries, cd_entries + [_entries(post_order(incs[0]))[-1]]]
    assert [_edge_parts(n.child) for n in incs] == parts

    received = []
    hs = ncd_handlers(w, solve_tolerance(w))
    real_inc = hs.on_inc
    hs.on_inc = lambda f, name, inn, out, order, runs: received.append(
        _entries(order, runs)
    ) or real_inc(f, name, inn, out, order, runs)
    evaluations.clear()
    fold(e, hs)
    # each child comes as the entries of its parts, nodes of the tree itself
    assert [_entry_ids(c) for c in received] == [_entry_ids(p) for p in parts]
    assert evaluations == [_entry_ids(p) for p in parts]

    for solve in (ncd_outcome, apsp_outcome):
        evaluations.clear()
        value, _ = solve(e, w)
        assert not is_negative_cycle(value)
        assert evaluations == [_entry_ids(p) for p in parts], solve.__name__
        assert e.root not in evaluations
    assert evaluate(Expression(DIRECTED, incs[0].child)).edges == {("c", "d"), ("d", "c")}


def test_fold_evaluates_the_whole_graph_only_for_inc_views(evaluations):
    # without verify the fold evaluates nothing, not even the whole graph;
    # with verify it evaluates each node's own subexpression once, in post
    # order, so the whole graph is evaluated once, for the root alone
    from graphexpr.expr import post_order

    for seed in range(10):
        ne = normalize(corpus_instance(seed, UNDIRECTED, 25))
        nodes = post_order(ne.root).nodes
        evaluations.clear()
        plain, _ = fold(ne, counting_handlers())
        assert evaluations == [], seed
        checked = []
        verified, _ = fold(
            ne,
            counting_handlers(),
            verify=lambda path, node, value, sub: checked.append(
                value == len(sub.vertices)
            ),
        )
        assert verified == plain
        assert all(checked) and len(checked) == len(nodes), seed
        assert [id(r) for r in evaluations] == [id(n) for n in nodes], seed
        assert sum(r is ne.root for r in evaluations) == 1, seed


def test_fold_builds_each_pattern_graph_once(monkeypatch):
    # the steps of a join share one two-vertex graph per mode, built at
    # import, so folding a parsed 2000-way join builds no pattern graph; a
    # substitution with edges builds its own pattern's graph at its node
    from graphexpr import DIRECTED
    from graphexpr.expr import Pattern, post_order
    from graphexpr.paths import ncd_handlers, solve_tolerance

    calls = []
    real = Pattern.to_graph
    monkeypatch.setattr(Pattern, "to_graph", lambda p: calls.append(p) or real(p))
    r = 2000
    leaves = " ".join(f"(vertex a{i})" for i in range(r))
    w = {f"a{i}": 1.0 for i in range(r)}
    for mode in (UNDIRECTED, DIRECTED):
        e = parse(f"({mode} (join {leaves}))")
        calls.clear()
        if mode == UNDIRECTED:
            value, stats = fold(e, tri_handlers())
            assert (value.n, value.m, value.t) == (r, r * (r - 1) // 2, r * (r - 1) * (r - 2) // 6)
        else:
            value, stats = fold(e, ncd_handlers(w, solve_tolerance(w)))
            assert value.msp == 1.0
        assert stats.counts["subst"] == r - 1
        assert calls == [], mode
    # nested substitutions into copies of one pattern text: one graph each
    text = "(vertex a0)"
    for i in range(1, 50):
        text = f"(subst (graph (p q) ((p q))) ((p {text}) (q (vertex a{i}))))"
    for mode in (UNDIRECTED, DIRECTED):
        e = parse(f"({mode} {text})")
        calls.clear()
        value, _ = fold(e, counting_handlers())
        assert value == 50
        substs = [node for node in post_order(e.root).nodes if type(node) is Subst]
        assert len(substs) == 49
        assert [id(p) for p in calls] == [id(node.pattern) for node in substs], mode


def _inc_chain_text(mode, d):
    """The inc chain p_{d-1} over ... over p0, d deep, each inc with one
    edge to the vertex below it."""
    text = "(vertex p0)"
    for i in range(1, d):
        text = f"(inc p{i} ((p{i} p{i - 1})) {text})"
    return f"({mode} {text})"


def _best_of_3(fn, *args):
    """The least wall time of three calls of ``fn(*args)``."""
    import time

    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def test_a_deep_inc_chain_folds_in_a_small_multiple_of_its_evaluation():
    # each inc of a chain is its own piece, and the pieces below an inc are
    # one run of consecutive entries, handed over as one run: folding a
    # 4000-deep chain, in the main tree or as a subst-td pattern, takes a
    # small multiple of evaluating it, where one slice per piece took
    # about 100 times as long
    d = 4000
    hs = counting_handlers()
    hs.on_subst_td = lambda pattern_order, children: fold_td_expression(pattern_order, hs)
    for e in (parse(_inc_chain_text(UNDIRECTED, d)), parse(_deep_td_text(UNDIRECTED, d))):
        assert fold(e, hs)[0] == d
        assert evaluate(e).m == d - 1
        fold_s, evaluate_s = _best_of_3(fold, e, hs), _best_of_3(evaluate, e)
        assert fold_s <= 30 * evaluate_s, (type(e.root).__name__, fold_s, evaluate_s)


def test_an_inc_chain_folds_without_copying_its_children():
    # each inc of a 12000-deep chain is handed the bounds of its child's
    # one run, not a copy of its entries, so folding the chain with trivial
    # handlers, or counting its triangles, costs about one evaluation of it
    # (0.7x and 1.0x on CPython 3.11, x86-64), where copying each child's
    # run made the fold quadratic: 15 to 21 times the evaluation
    from graphexpr import count_triangles

    d = 12000
    e = parse(_inc_chain_text(UNDIRECTED, d))
    hs = counting_handlers()
    assert fold(e, hs)[0] == d and count_triangles(e) == 0
    evaluate_s = _best_of_3(evaluate, e)
    for solve, args in ((fold, (e, hs)), (count_triangles, (e,))):
        solve_s = _best_of_3(solve, *args)
        assert solve_s <= 4 * evaluate_s, (solve.__name__, solve_s, evaluate_s)


def _deep_td_text(mode, d):
    """A subst-td whose pattern is the inc chain p_{d-1} over ... over p0,
    d deep, with each p_i bound to (vertex v_i)."""
    pattern = "(vertex p0)"
    for i in range(1, d):
        pattern = f"(inc p{i} ((p{i} p{i - 1})) {pattern})"
    bindings = " ".join(f"(p{i} (vertex v{i}))" for i in range(d))
    return f"({mode} (subst-td {pattern} ({bindings})))"


def test_solves_walk_each_pattern_from_its_recorded_order(monkeypatch, tc_corpus, paths_corpus):
    # parse records each subst-td pattern's order, so the front end, TC's
    # pattern edges and the NCD and APSP pattern replays build no order and
    # make no fold_order call of their own
    import graphexpr
    from graphexpr import apsp_outcome, cli, expr, ncd_outcome, oracle, paths, triangles
    from graphexpr.cli import format_expression

    calls = []
    for module in (graphexpr, cli, expr, graphexpr.framework, oracle, paths, triangles):
        for name in ("post_order", "fold_order"):
            if hasattr(module, name):
                real = getattr(module, name)
                spy = lambda *args, real=real, name=name: calls.append(name) or real(*args)
                monkeypatch.setattr(module, name, spy)
    tc_texts = [format_expression(e) for e, _, p in tc_corpus if p.l >= 1][:150]
    paths_cases = [(format_expression(e), w) for e, _, w, p in paths_corpus if p.l >= 1][:150]
    tc_texts.append(_deep_td_text("undirected", 3000))
    # the directed replays cost quadratic time in the inc depth of a chain
    deep = _deep_td_text("directed", 200)
    paths_cases.append((deep, {f"v{i}": 1.0 + i % 3 for i in range(200)}))
    assert len(tc_texts) == len(paths_cases) == 151
    for text in tc_texts:
        assert params(parse(text)).l >= 1
        value, stats = graphexpr.triangle_summary(parse(text))
    for text, w in paths_cases:
        assert params(parse(text)).l >= 1
        ncd_outcome(parse(text), w)
        apsp_outcome(parse(text), w)
    assert calls == []
    # the last TC case is the 3000-deep pattern, a path
    assert (value.n, value.m, value.t, stats.max_subtd_depth) == (3000, 2999, 0, 2999)


def test_fold_counts_the_pattern_nesting_of_params(tc_corpus, paths_corpus):
    # the fold's max_subtd_depth is the l of params, read from the nesting
    # that the front end records for each subst-td node
    from graphexpr import gen_fixture

    cases = [e for e, *_ in tc_corpus + paths_corpus]
    cases += [gen_fixture("substar", 5), gen_fixture("lemma7.2", 4, clique=1)]
    seen = set()
    for e in cases:
        _, stats = fold(e, counting_handlers())
        assert stats.max_subtd_depth == params(e).l
        seen.add(params(e).l)
    assert {0, 2, 3} <= seen
    assert params(cases[-1]).l == 3


def _inc_chain(mode, r, k, td=False):
    """k nested incs x1 .. xk, each with one or two edges, over a union of
    r incs ``(inc vI () (empty))``: x1 has an edge to v0, and xj an edge to
    x(j-1) and one to a vertex vc, the same vc as x(j-1)'s for even j, which
    closes a triangle resp. a cycle; directed, the edge between xj and
    x(j-1) points down for even j and up for odd j.  With ``td``, the chain
    over a union of r vertices ``(vertex vI)`` is the pattern of a subst-td
    that binds each pattern vertex to a vertex of its own name."""
    leaf = "(vertex v{})" if td else "(inc v{} () (empty))"
    text = "(union " + " ".join(leaf.format(i) for i in range(r)) + ")"
    c = 0
    for j in range(1, k + 1):
        x = f"x{j}"
        if j == 1:
            edges = [(x, "v0")]
        else:
            c = c if j % 2 == 0 else (c + 7) % r
            down = mode == UNDIRECTED or j % 2 == 0
            below = [(x, f"x{j - 1}") if down else (f"x{j - 1}", x)]
            edges = below + [(f"v{c}", x) if j % 2 == 0 else (x, f"v{c}")]
        text = f"(inc {x} ({' '.join(f'({a} {b})' for a, b in edges)}) {text})"
    if td:
        names = [f"v{i}" for i in range(r)] + [f"x{j}" for j in range(1, k + 1)]
        text = f"(subst-td {text} ({' '.join(f'({p} (vertex {p}))' for p in names)}))"
    return parse(f"({mode} {text})")


def test_an_inc_is_handed_the_edges_of_its_child_not_its_size():
    # a chain of k incs with edges over a union of r edgeless incs, or as
    # a subst-td pattern over a union of r vertices: the inc xj is handed
    # the lone entries of x1 .. x(j-1) and nothing of the union, k(k - 1)/2
    # entries in all where the whole children hold rk or more; the solvers
    # agree with the oracles on a small chain
    from graphexpr import (
        DIRECTED,
        all_pairs,
        count_triangles,
        detect_negative_cycle,
        gen_weights,
        is_negative_cycle,
        oracle_apsp,
        oracle_ncd,
        oracle_triangles,
    )

    r, k = 10**4, 40
    for mode, td in itertools.product((UNDIRECTED, DIRECTED), (False, True)):
        e = _inc_chain(mode, r, k, td)
        handed = []
        hs = counting_handlers()
        hs.on_inc = lambda f, name, inn, out, order, runs: handed.append(
            (name, _entries(order, runs))
        ) or f + 1
        hs.on_subst_td = lambda pattern_order, children: fold_td_expression(pattern_order, hs)
        value, _ = fold(e, hs)
        assert value == r + k
        chain = [(name, child) for name, child in handed if name.startswith("x")]
        assert len(chain) == k
        assert sum(len(child) for _, child in handed) == k * (k - 1) // 2
        for j, (name, child) in enumerate(chain, 1):
            assert name == f"x{j}"
            assert [node.name for node, _, _ in child] == [f"x{i}" for i in range(1, j)]
    for td in (False, True):
        assert count_triangles(_inc_chain(UNDIRECTED, r, k, td)) == k // 2

    for (r, k), td in itertools.product(((30, 8), (12, 5)), (False, True)):
        e = _inc_chain(UNDIRECTED, r, k, td)
        assert count_triangles(e) == oracle_triangles(evaluate(e)) == k // 2
        e = _inc_chain(DIRECTED, r, k, td)
        g = evaluate(e)
        for seed in range(6):
            for lo in (-5.0, 0.0):
                w = gen_weights(g.vertices, lo, 5.0, seed)
                assert detect_negative_cycle(e, w) == oracle_ncd(g, w), (r, seed, lo)
                got, want = all_pairs(e, w), oracle_apsp(g, w)
                assert is_negative_cycle(got) == is_negative_cycle(want), (r, seed, lo)
                if not is_negative_cycle(want):
                    assert got.keys() == want.keys()
                    for pair, d in want.items():
                        assert d == got[pair] or abs(d - got[pair]) <= 1e-9, (r, seed, pair)
