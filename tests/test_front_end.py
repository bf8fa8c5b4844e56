"""The front end's walk, ``expr._scan``, against the set-merging walk it
replaced, ``brute_force.scan_by_name_sets``: the same vertex names, the
same violations (message, path, position and order), the same ``Params``
and the same fold stats, on both corpora, on the CLI pins' invalid inputs
and on seeded mutations of corpus instances; and its memory on a wide
union."""

import random
import tracemalloc
from collections import Counter

from brute_force import scan_by_name_sets
from conftest import corpus_instance
from graphexpr import DIRECTED, UNDIRECTED, Expression, InputError, expr
from graphexpr.cli import format_expression
from graphexpr.expr import (
    Empty,
    Inc,
    Join,
    Pattern,
    Subst,
    SubstTd,
    Union,
    Vertex,
    parse,
    post_order,
)
from test_cli_pins import _invalid_cases


def assert_scans_agree(e):
    """``_scan`` and the reference on ``e``; returns the violations."""
    got, want = expr._scan(e._order), scan_by_name_sets(e._order)
    assert set(got[0]) == want[0]
    assert got[1] == want[1]
    assert got[2:] == want[2:]
    return got[1]


def test_scan_matches_the_reference_on_both_corpora(tc_corpus, paths_corpus):
    for e, *_ in tc_corpus + paths_corpus:
        assert assert_scans_agree(e) == []


def test_scan_matches_the_reference_on_the_pinned_invalid_inputs():
    compared = invalid = 0
    for _, text, _ in _invalid_cases():
        try:
            e = parse(text)
        except InputError:
            continue  # a parse error: the front end never runs
        compared += 1
        invalid += bool(assert_scans_agree(e))
    assert compared >= 30 and invalid >= 8, (compared, invalid)


# ---------------------------------------------------------------------------
# Mutations


def _rebuilt(order, swap):
    """The tree of ``order`` rebuilt bottom-up, each node handed with its
    rebuilt children to ``swap(i, node)``, which returns it or another."""
    vals = []
    for i, (node, c, _) in enumerate(order):
        top = len(vals) - c
        kids = vals[top:]
        del vals[top:]
        t = type(node)
        if t is Union or t is Join:
            node = t(tuple(kids), node.pos)
        elif t is Inc:
            node = Inc(node.name, node.in_names, node.out_names, kids[0], node.pos)
        elif t is Subst or t is SubstTd:
            bindings = tuple(zip([bn for bn, _ in node.bindings], kids))
            if t is Subst:
                node = Subst(node.pattern, bindings, node.pos)
            else:
                node = SubstTd(node.pattern_expr, bindings, node.pos)
        vals.append(swap(i, node))
    return vals[0]


def _named(order):
    return [i for i, (node, _, _) in enumerate(order) if type(node) in (Vertex, Inc)]


def _names(order):
    return [order[i][0].name for i in _named(order)]


def _renamed(node, name):
    if type(node) is Vertex:
        return Vertex(name, node.pos)
    return Inc(name, node.in_names, node.out_names, node.child, node.pos)


def _repeat(order, rng):
    """One name given to 2 to 4 vertices or incs anywhere in the tree."""
    named = _named(order)
    if len(named) < 2:
        return None
    picked = rng.sample(named, min(len(named), rng.randint(2, 4)))
    name = order[picked[0]][0].name
    return lambda i, node: _renamed(node, name) if i in picked[1:] else node


def _inc_own(order, rng):
    """An inc named like a vertex of its child."""
    choices = []
    for i, (node, _, size) in enumerate(order):
        if type(node) is Inc:
            inside = _names(order[i - size + 1 : i])
            if inside:
                choices.append((i, rng.choice(inside)))
    if not choices:
        return None
    at, name = rng.choice(choices)
    return lambda i, node: _renamed(node, name) if i == at else node


def _foreign_target(order, rng):
    """An inc target that is a vertex elsewhere in the tree, not in the
    inc's child, or sometimes no vertex at all."""
    everywhere = set(_names(order))
    choices = []
    for i, (node, _, size) in enumerate(order):
        if type(node) is Inc:
            outside = sorted(everywhere - set(_names(order[i - size + 1 : i])) - {node.name})
            if outside:
                choices.append((i, rng.choice(outside)))
    if not choices or rng.random() < 0.2:
        incs = [i for i, (node, _, _) in enumerate(order) if type(node) is Inc]
        if not incs:
            return None
        choices = [(rng.choice(incs), "nowhere")]
    at, target = rng.choice(choices)
    into_in = rng.random() < 0.5

    def swap(i, node):
        if i != at:
            return node
        ins, outs = node.in_names, node.out_names
        if into_in:
            ins = ins | {target}
        else:
            outs = outs | {target}
        return Inc(node.name, ins, outs, node.child, node.pos)

    return swap


def _bindings(order, rng):
    """A subst or subst-td that drops a binding, binds a pattern vertex
    twice, binds an unknown one or binds the empty graph."""
    subs = [i for i, (node, _, _) in enumerate(order) if type(node) in (Subst, SubstTd)]
    if not subs:
        return None
    at, how = rng.choice(subs), rng.choice(["drop", "twice", "unknown", "empty"])
    j = rng.randrange(len(order[at][0].bindings))

    def swap(i, node):
        if i != at:
            return node
        bindings = list(node.bindings)
        bn, sub = bindings[j]
        if how == "drop":
            del bindings[j]
        elif how == "twice":
            bindings[j] = (bindings[j - 1][0], sub)
        elif how == "unknown":
            bindings[j] = ("nope", sub)
        else:
            bindings[j] = (bn, rng.choice([Empty(), Union((Empty(), Empty()))]))
        if type(node) is Subst:
            return Subst(node.pattern, tuple(bindings), node.pos)
        return SubstTd(node.pattern_expr, tuple(bindings), node.pos)

    return swap


def _pattern(order, rng):
    """A broken pattern: an explicit one with a loop, an undeclared vertex,
    a repeated vertex or one vertex; a tree-depth one with a join, a
    repeated vertex, one vertex or an inc with an unknown target."""
    subs = [i for i, (node, _, _) in enumerate(order) if type(node) in (Subst, SubstTd)]
    if not subs:
        return None
    at, how = rng.choice(subs), rng.randrange(4)

    def swap(i, node):
        if i != at:
            return node
        if type(node) is Subst:
            p = node.pattern
            names, edges = p.names, set(p.edges)
            if how == 0:
                edges.add((names[0], names[0]))
            elif how == 1:
                edges.add((names[0], "nope"))
            elif how == 2:
                names += (names[-1],)
            else:
                names = names[:1]
            return Subst(Pattern(p.kind, names, frozenset(edges), p.pos), node.bindings, node.pos)
        pe = node.pattern_expr
        first = node.bindings[0][0]
        if how == 0:
            pe = Join((pe, Vertex("extra")))
        elif how == 1:
            pe = Union((pe, Vertex(first)))
        elif how == 2:
            pe = Vertex(first)
        else:
            pe = Inc("extra", frozenset(), frozenset({"nope"}), pe)
        return SubstTd(pe, node.bindings, node.pos)

    return swap


def _one_child(order, rng):
    """A union or join cut down to its first child."""
    wide = [i for i, (node, _, _) in enumerate(order) if type(node) in (Union, Join)]
    if not wide:
        return None
    at = rng.choice(wide)
    return lambda i, node: type(node)(node.children[:1], node.pos) if i == at else node


_MUTATIONS = (_repeat, _inc_own, _foreign_target, _bindings, _pattern, _one_child)


def _mutated(e, rng):
    """``e`` after one to three random mutations, and their names."""
    applied = []
    for _ in range(rng.randint(1, 3)):
        mutation = rng.choice(_MUTATIONS)
        order = e._order  # the mutations read it as (node, count, size) entries
        entries = list(zip(order.nodes, order.counts, order.sizes))
        swap = mutation(entries, rng)
        if swap is not None:
            e = Expression(e.mode, _rebuilt(entries, swap))
            applied.append(mutation.__name__)
    return e, applied


def test_scan_matches_the_reference_on_mutated_inputs():
    rng = random.Random(2024)
    seen, invalid, reparsed = Counter(), Counter(), 0
    for seed in range(700):
        mode = (DIRECTED, UNDIRECTED)[seed % 2]
        e, applied = _mutated(corpus_instance(seed, mode, 40), rng)
        violations = assert_scans_agree(e)
        for name in set(applied):
            invalid[name] += bool(violations)
        at_one_node = Counter((v.path, v.message) for v in violations)
        if any(n > 1 for m, n in at_one_node.items() if m[1].startswith("duplicate vertex")):
            seen["a name in three or more children"] += 1
        for v in violations:
            seen[v.message.split(" '")[0].split(" (")[0]] += 1
            if v.message.startswith("unknown inc target") and "nowhere" not in v.message:
                seen["unknown inc target that is a vertex elsewhere"] += 1
            if "/pattern" in v.path:
                seen["in a tree-depth pattern"] += 1
        # the same tree parsed back from its text, so positions are compared
        try:
            parsed = parse(format_expression(e))
        except InputError:
            continue
        reparsed += 1
        assert_scans_agree(parsed)
    assert min(invalid[m.__name__] for m in _MUTATIONS) >= 30, invalid
    assert reparsed >= 300, reparsed
    for message in (
        "duplicate vertex name",
        "unknown inc target",
        "unknown inc target that is a vertex elsewhere",
        "pattern vertex",
        "binding for unknown pattern vertex",
        "binding",
        "loop edge on pattern vertex",
        "pattern edge",
        "duplicate pattern vertex name",
        "pattern needs at least two vertices",
        "subst-td pattern has fewer than two vertices",
        "pattern is not a tree-depth expression",
        "union/join needs at least two children",
        "in a tree-depth pattern",
        "a name in three or more children",
    ):
        assert seen[message] >= 5, (message, seen)


def test_a_name_repeated_across_siblings_is_reported_as_the_set_merge_reports_it():
    # a name in three children of different sizes, at different depths, and
    # an inc named like a vertex of its child, in one tree
    text = (
        "(undirected (join (union (vertex a) (vertex b) (vertex c))"
        " (union (vertex d) (union (vertex a) (inc b () (vertex e))))"
        " (vertex a) (inc d ((d f)) (union (vertex f) (vertex d)))))"
    )
    violations = assert_scans_agree(parse(text))
    assert [(v.path, v.message) for v in violations] == [
        ("root/3", "duplicate vertex name 'd'"),
        ("root", "duplicate vertex name 'a'"),
        ("root", "duplicate vertex name 'b'"),
        ("root", "duplicate vertex name 'd'"),
        ("root", "duplicate vertex name 'a'"),
    ]


def test_scan_memory_per_vertex_on_a_wide_union():
    # one name index and a stack of counts, where a name set per subtree
    # took about 300 bytes per vertex
    r = 10**5
    order = post_order(Union(tuple(Vertex(f"v{i}") for i in range(r))))
    tracemalloc.start()
    try:
        expr._scan(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / r < 150, peak / r
