"""The generic fold: handler dispatch, graph reconstruction sanity check,
accounting bounds."""

import re

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
from graphexpr.expr import Inc, SubstTd, Union, canonical_edge
from graphexpr.triangles import handlers as tri_handlers

from conftest import corpus_instance


def counting_handlers():
    """f = |V|, the simplest possible summary."""
    return HandlerSet(
        base_empty=lambda: 0,
        base_vertex=lambda name: 1,
        on_inc=lambda f, name, inn, out, child: f + 1,
        on_subst=lambda pg, children: sum(f for _, f in children),
        on_subst_td=lambda pe, children: sum(f for _, f in children),
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
        on_inc=lambda f, name, inn, out, child: (f[0] + 1, f[1] + len(inn | out)),
        on_subst=subst,
        on_subst_td=lambda pe, children: (_ for _ in ()).throw(AssertionError),
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


def test_verify_sees_every_step_of_a_union_or_join(tc_corpus):
    # verify checks the same subgraphs as on the normalized tree: each step
    # of a chain on the children folded so far, at the raw node's path
    def seen(e):
        calls = []
        fold(
            e,
            counting_handlers(),
            verify=lambda path, node, value, sub: calls.append(
                (value, sub.vertices, sub.edges)
            ),
        )
        return sorted(calls, key=repr)

    cases = [parse(f"(undirected {text})") for text in EMPTY_CASES]
    for e in cases + [e for e, *_ in tc_corpus[:200]]:
        assert seen(e) == seen(normalize(e))
    paths = []
    fold(
        parse("(undirected (inc x () (join (vertex a) (empty) (vertex b) (vertex c))))"),
        counting_handlers(),
        verify=lambda path, node, value, sub: paths.append((path, value)),
    )
    assert paths == [
        ("root/child/0", 1),
        ("root/child/2", 1),
        ("root/child/3", 1),
        ("root/child", 2),
        ("root/child", 3),
        ("root", 4),
    ]


def graph_rebuild_handlers(mode):
    """Handlers that rebuild (vertices, edges); folding them must reproduce
    evaluate() exactly."""

    def inc(f, name, inn, out, child):
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
        on_subst_td=lambda pe, children: subst(evaluate(Expression(mode, pe)), children),
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

    def boom(f, name, inn, out, child):
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
    def boom(f, name, inn, out, child):
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
    leaves = " ".join(f"(inc x{i} () (vertex a{i}))" for i in range(r))
    e = normalize(parse(f"(directed (union {leaves}))"))

    def boom(f, name, inn, out, child):
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

    nested = "(union (vertex a) (vertex b) (inc y () (inc x () (union (vertex c) (empty)))))"
    monkeypatch.setattr(paths, "ncd_inc", boom(paths.ncd_inc, lambda f, x, *_: x == "x"))
    w = dict.fromkeys("abcxy", 1.0)
    with pytest.raises(ContractViolation) as info:
        ncd_outcome(parse(f"(directed {nested})"), w)
    assert str(info.value) == "boom [at root/2/child]"

    monkeypatch.setattr(triangles, "combine_subst", boom(triangles.combine_subst, lambda *_: True))
    with pytest.raises(ContractViolation) as info:
        triangle_summary(parse("(undirected (inc y () (join (vertex a) (empty) (vertex b))))"))
    assert str(info.value) == "boom [at root/child]"


def test_inc_handler_gets_its_child_expression_only():
    e = parse(
        "(undirected (join (vertex z) (inc x ((x a)) "
        "(union (vertex a) (vertex b)))))"
    )
    seen = {}

    def spy(f, name, inn, out, child):
        seen["graph"] = evaluate(Expression(UNDIRECTED, child))
        return f + 1

    hs = counting_handlers()
    hs.on_inc = spy
    fold(normalize(e), hs)
    # the join to z happens above the inc; the child must not contain z or
    # any join edges
    assert set(seen["graph"].vertices) == {"a", "b"}
    assert seen["graph"].edges == frozenset()


@pytest.fixture
def evaluations(monkeypatch):
    """Roots of the evaluations started outside the evaluator: every
    module's ``evaluate`` and ``evaluate_node`` is wrapped, and the calls the
    evaluator makes to itself are not recorded."""
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
            monkeypatch.setattr(
                module, "evaluate_node", wrap(module.evaluate_node, lambda root, mode: root)
            )
    return roots


def test_solves_evaluate_only_their_inc_children(evaluations):
    # without verify, the fold and a TC solve evaluate nothing; an NCD or
    # APSP solve evaluates each inc node's child once, in the main tree and
    # in subst-td patterns alike (an inc over a vertexless child is answered
    # without evaluating it)
    from collections import Counter

    from graphexpr import (
        DIRECTED,
        apsp_outcome,
        count_triangles,
        gen_weights,
        is_negative_cycle,
        ncd_outcome,
    )
    from graphexpr.expr import Inc, SubstTd, collect_vertex_names, fold_expression

    def inc_children(root):
        nodes = []
        fold_expression(root, lambda node, _vals, _where: nodes.append(node))
        incs = [n.child for n in nodes if isinstance(n, Inc)]
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
                want = Counter(
                    c
                    for c in main + pattern_incs
                    if collect_vertex_names(c)
                )
                assert Counter(evaluations) == want, (seed, solve.__name__)
    assert seen["main"] and seen["pattern"]


def test_inc_over_the_empty_graph_evaluates_nothing(evaluations):
    # a wide union of incs over (empty) is a union of single vertices: NCD
    # and APSP answer each inc without evaluating its child, and give the
    # summaries of the union of vertex leaves.  APSP runs on 10^3 leaves:
    # its substitution summaries copy min_out and min_in at every step of
    # the union's chain, O(r^2) in time and memory.
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


def test_inc_view_resolves_its_vertices_and_graph_once(evaluations):
    # an inc handler gets the Inc node's own child; the shortest-path inc
    # core resolves that child's vertices and edges with one evaluation and
    # never evaluates the whole graph
    from graphexpr import DIRECTED, apsp_outcome, is_negative_cycle, ncd_outcome
    from graphexpr.expr import Inc, fold_expression
    from graphexpr.paths import ncd_handlers, solve_tolerance

    e = parse(
        "(directed (join (vertex z) (inc y ((y x)) (inc x ((x a) (b x)) "
        "(union (vertex a) (vertex b))))))"
    )
    nodes = []
    fold_expression(e.root, lambda node, _vals, _where: nodes.append(node))
    incs = [n for n in nodes if isinstance(n, Inc)]
    assert [n.name for n in incs] == ["x", "y"]
    w = {v: 1.0 for v in "abxyz"}

    received = []
    hs = ncd_handlers(w, solve_tolerance(w))
    real_inc = hs.on_inc
    hs.on_inc = lambda f, name, inn, out, child: received.append(child) or real_inc(
        f, name, inn, out, child
    )
    evaluations.clear()
    fold(e, hs)
    assert [id(c) for c in received] == [id(n.child) for n in incs]
    assert [id(r) for r in evaluations] == [id(n.child) for n in incs]

    for solve in (ncd_outcome, apsp_outcome):
        evaluations.clear()
        value, _ = solve(e, w)
        assert not is_negative_cycle(value)
        assert [id(r) for r in evaluations] == [id(n.child) for n in incs], solve.__name__
        assert e.root not in evaluations
    assert evaluate(Expression(DIRECTED, incs[0].child)).edges == frozenset()


def test_fold_evaluates_the_whole_graph_only_for_inc_views(evaluations):
    # without verify the fold evaluates nothing, not even the whole graph;
    # with verify it evaluates each node's own subexpression once, in post
    # order, so the whole graph is evaluated once, for the root alone
    from graphexpr.expr import fold_expression

    for seed in range(10):
        ne = normalize(corpus_instance(seed, UNDIRECTED, 25))
        nodes = []
        fold_expression(ne.root, lambda node, _vals, _where: nodes.append(node))
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
    # a normalized 2000-way union is a chain of 1999 substitutions into one
    # shared two-vertex pattern; the fold builds its graph once, not per node
    from graphexpr import DIRECTED
    from graphexpr.expr import Pattern
    from graphexpr.paths import ncd_handlers, solve_tolerance

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
            value, stats = fold(e, ncd_handlers(w, solve_tolerance(w)))
            assert value.msp == 1.0
        assert stats.counts["subst"] == r - 1
        assert len(calls) <= 2, mode
