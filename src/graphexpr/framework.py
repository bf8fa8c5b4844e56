"""Generic bottom-up fold over expression trees, as parsed.

A problem is solved on an expression by supplying one handler per operation;
the fold threads per-subtree summary values upward as the expression is
structured, a union in one call, a join as a chain of binary substitutions.
The fold is one loop over the expression's post-order
(``Expression._order``, which the parser records) with a stack of child
summaries, as a Python call per node costs more than most nodes' work.
Handlers see only summaries and the node payload.  An inc handler gets the
order and the ``[start, stop)`` runs of its child's edge-bearing parts, in
post-order, and reads from them what it needs of the child graph: triangle
counting counts the closed edges in a loop of its own, the shortest-path
handlers evaluate them.  A *piece* is a part of the order that holds
edges: the whole subtree of a join with two or more parts with vertices,
or of a substitution or subst-td into a pattern with edges, or the lone
entry of an inc with in- or out-names.  The fold keeps the maximal runs of
consecutive piece entries finished so far, and every edge of a child graph
is made inside one of its pieces, so an inc pays for the child's edges,
not for its size: the fold hands it the runs' bounds, O(runs), and copies
no entry.
Every disjoint union goes to the union handler, in O(parts) whatever the
size of the parts: a union node, a substitution or subst-td into a pattern
without edges, and an inc without in- or out-names over a child with
vertices, which is the union of the child and its vertex; none of them is
a piece.  Any other substitution handler gets its pattern: an explicit
pattern as a graph, built at its node (a join step's two-vertex pattern
once, at import), a tree-depth pattern as its order
(``SubstTd.pattern_order``), which the NCD and APSP handlers replay with
``fold_td_expression``, the fold's own loop over that order, so a pattern
inc is handed its child's pieces, and a pattern inc without names goes to
the union handler, as well.  The loop yields each summary as it makes it,
and evaluates nothing: ``fold`` drains the summaries, or hands them to a
checker outside the loop, which evaluates each node's subgraph and checks
the summary on it (``verify``, the ``--verify`` debug mode).

A handler whose value answers the whole expression, such as a negative
cycle, raises ``Verdict`` with it, which ends the fold.  The front end's
walk (``expr._scan``) counts the fold's accounting statistics, which the
theory bounds, and ``assert_stats`` re-checks those bounds on every run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Callable

from .errors import InputError
from .expr import (
    Empty,
    Expression,
    Inc,
    Join,
    Params,
    Subst,
    SubstTd,
    Union,
    Vertex,
    _PAT_K2,
    collect_vertex_names,
    evaluate,
    expression_of,
    locator,
)

_NO_VERTICES = object()  # the value of a subtree without vertices
_NAMED = (Vertex, Inc)  # the node types of a tree-depth pattern's vertices
_K2_GRAPH = {mode: pattern.to_graph() for mode, pattern in _PAT_K2.items()}


@dataclass
class HandlerSet:
    """Per-operation handlers producing summaries of type F.

    on_inc receives, for an inc with in- or out-names, the child's summary,
    the folded ``expr.Order`` and the child's edge-bearing parts in it, as
    ascending ``[start, stop)`` runs of entries: the maximal joins of two or
    more parts with vertices and substitutions and subst-tds into patterns
    with edges inside the child, each with its whole subtree, and the incs
    with in- or out-names there that none of those holds, each alone.
    Every edge of the child graph is made inside one of them; the child's
    whole span is one such run too.  on_subst receives the pattern
    graph, which has edges, and the children as ``(pattern vertex name,
    summary)`` pairs in pattern vertex order, also per step of a join;
    on_subst_td receives the order of the pattern's tree-depth expression
    (``SubstTd.pattern_order``), which has edges, and the children in
    binding order.  on_union receives the summaries of the parts of a
    disjoint union: the two or more parts with vertices of a union, in
    order; the children of a substitution into a pattern without edges, in
    pattern vertex order, or of a subst-td into one, in the pattern's
    vertex post-order (its Vertex and Inc entries); or, for an inc without
    in- or out-names over a child with vertices, the child's summary and
    ``base_vertex`` of the inc's vertex.  The leaf, inc and union handlers
    also replay tree-depth patterns by the same loop
    (``fold_td_expression``), where an inc gets the edge-bearing parts of
    its child in the pattern order.  A handler raises ``Verdict(value)``
    instead of returning a value that answers the whole expression.
    """

    base_empty: Callable
    base_vertex: Callable
    on_inc: Callable      # (child F, name, in_names, out_names, Order, child runs) -> F
    on_subst: Callable    # (pattern Graph with edges, [(name, F), ...]) -> F
    on_subst_td: Callable  # (pattern order, [(name, F), ...]) -> F
    on_union: Callable    # ([F, F, ...]) -> F


@dataclass
class FoldStats:
    """The fold's accounting, counted by the front end (``expr._scan``)."""

    counts: dict = field(default_factory=dict)
    sum_pattern_order: int = 0
    max_inc_nesting: int = 0
    leaf_count: int = 0
    max_subst_order: int = 0
    max_subtd_depth: int = 0


class Verdict(Exception):
    """Raised by a handler with the ``value`` that answers the whole
    expression, such as a negative cycle: ``fold`` returns it at once."""

    value = property(lambda self: self.args[0])


def fold(e: Expression, handlers: HandlerSet, *, verify=None):
    """Fold a validated expression bottom-up, with the values and stats of
    folding ``normalize(e)``: a union or join drops its children without
    vertices, a union passes the rest to one ``on_union`` call counted as
    the substitutions it stands for, and a join chains them through
    ``on_subst``; a substitution or subst-td into a pattern without edges
    is one ``on_union`` call, counted as that substitution, and so is an
    inc without in- or out-names over vertices, counted as that inc; a
    subtree without vertices is one empty leaf where an inc (which is then
    ``base_vertex``) or the root keeps it.  Returns ``(summary,
    FoldStats)``; a ``Verdict`` ends the fold with its value, and the
    stats, which the front end counts (``expr._scan``), still cover the
    whole expression.  A handler error is re-raised with the path of its
    node in the main tree appended, that of the subst-td node for an error
    in a pattern replay.

    The loop (``_fold``) yields its summaries as it makes them, and without
    ``verify`` they are drained, the last one being the root's.  With
    ``verify`` (debug mode), a checker outside the loop (``_checked``)
    calls ``verify(path, node, summary, subgraph)`` with each of them and
    the evaluated subgraph of its node, or of a join's children folded so
    far (cubic in the width of a join), and with a verdict's value at the
    node that raised it.  An error that ``verify`` raises passes as raised.
    """
    counts, *accounting = e._front_end[3]
    stats = FoldStats(dict(counts), *accounting)
    steps = _fold(e._order, e.mode, handlers) if verify is None else _checked(e, handlers, verify)
    try:
        last = deque(steps, maxlen=1)
    except Verdict as verdict:
        return verdict.value, stats
    except Exception as exc:
        if not hasattr(exc, "_fold_index"):  # the checker's own, such as a VerificationError
            raise
        path = exc._fold_path = locator(e._order)(exc._fold_index)
        message = exc.args[0] if exc.args else repr(exc)
        exc.args = (f"{message} [at {path}]",) + exc.args[1:]
        raise
    return (last[0][1] if last else handlers.base_empty()), stats


def fold_td_expression(pattern_order, handlers: HandlerSet):
    """The summary of a tree-depth pattern with vertices, given as its
    order (``SubstTd.pattern_order``), by the loop of ``fold`` with
    ``handlers``: the subst-td handlers replay their pattern with it."""
    return deque(_fold(pattern_order, None, handlers), maxlen=1)[0][1]


def _fold(order, mode, handlers):
    """The loop of ``fold`` over ``order``.  It yields ``(i, summary)`` for
    the entry at i after each node with vertices but a union or join with
    one part with vertices, whose summary is that part's; a join yields at
    each of its steps instead, and an inc over a child without vertices
    yields ``_NO_VERTICES`` at the child's entry first.  So the last
    summary yielded is the root's, and none means that the tree has no
    vertices.  A handler error, a ``Verdict`` too, is tagged with the index
    of its node as ``_fold_index``, which an enclosing loop overwrites."""
    base_vertex, on_inc = handlers.base_vertex, handlers.on_inc
    on_subst, on_union = handlers.on_subst, handlers.on_union
    sizes = order.sizes
    vals = []  # per finished subtree, its summary
    runs = []  # the maximal [start, stop) runs of piece entries, ascending
    try:
        for i, node, c in zip(count(), order.nodes, order.counts):
            t = type(node)
            if t is Vertex:
                value = base_vertex(node.name)
            elif t is Inc:
                f = vals.pop()
                if f is _NO_VERTICES:  # x is the whole graph
                    yield i - 1, f
                    value = base_vertex(node.name)
                elif node.in_names or node.out_names:  # a piece of its own
                    a, j = i - sizes[i - 1], len(runs)  # the child spans [a, i)
                    while j and runs[j - 1][1] > a:  # the runs that end inside it
                        j -= 1
                    child = [(max(start, a), stop) for start, stop in runs[j:]]
                    value = on_inc(f, node.name, node.in_names, node.out_names, order, child)
                    _add_piece(runs, i, i + 1)
                else:  # a disjoint union with x
                    value = on_union([f, base_vertex(node.name)])
            elif t is Empty:
                vals.append(_NO_VERTICES)
                continue
            else:
                top = len(vals) - c
                kids = vals[top:]
                del vals[top:]
                if t is Subst:
                    names = node.pattern.names
                    by_name = {bn: v for (bn, _), v in zip(node.bindings, kids)}
                    if node.pattern.edges:
                        value = on_subst(node.pattern.to_graph(), [(p, by_name[p]) for p in names])
                        _add_piece(runs, i + 1 - sizes[i], i + 1)
                    else:  # a disjoint union
                        value = on_union([by_name[p] for p in names])
                elif t is Union or t is Join:
                    parts = [v for v in kids if v is not _NO_VERTICES]
                    value = parts[0] if parts else _NO_VERTICES
                    if len(parts) > 1:
                        if t is Join:  # r - 1 steps into two-vertex patterns
                            for part in parts[1:]:
                                value = on_subst(_K2_GRAPH[mode], [("a", value), ("b", part)])
                                yield i, value
                            _add_piece(runs, i + 1 - sizes[i], i + 1)
                        else:
                            value = on_union(parts)
                            yield i, value
                    vals.append(value)
                    continue
                elif t is SubstTd:
                    po = node.pattern_order
                    children = [(bn, v) for (bn, _), v in zip(node.bindings, kids)]
                    if any(type(p) is Inc and (p.in_names or p.out_names) for p in po.nodes):
                        value = handlers.on_subst_td(po, children)
                        _add_piece(runs, i + 1 - sizes[i], i + 1)
                    else:  # a disjoint union, in the pattern's vertex post-order
                        by_name = dict(children)
                        value = on_union([by_name[p.name] for p in po.nodes if type(p) in _NAMED])
                else:
                    raise InputError(f"unknown node type {t.__name__}")
            yield i, value
            vals.append(value)
    except Exception as exc:
        exc._fold_index = i
        raise


def _checked(e, handlers, verify):
    """The steps of ``fold``'s loop over ``e``, passed on once ``verify``
    has checked each summary on the evaluated subgraph of its node, the
    expression of its slice of the order.  A join step's node is the chain
    of two-vertex substitutions that the join's steps so far fold, over its
    children with vertices, which is walked anew; a tree without vertices,
    an inc's child or the whole expression, is checked with
    ``base_empty()``.  A ``Verdict`` is checked at the node that raised it,
    and passes on."""
    order, mode = e._order, e.mode
    nodes, sizes = order.nodes, order.sizes
    locate, last = locator(order), None

    def subtree(i):
        return expression_of(mode, order.span(i + 1 - sizes[i], i + 1))

    try:
        for i, value in _fold(order, mode, handlers):
            node = nodes[i]
            if type(node) is Join and value is not _NO_VERTICES:
                if i != last:  # its first step
                    parts = filter(collect_vertex_names, node.children)
                    folded = next(parts)
                node = folded = Subst(_PAT_K2[mode], (("a", folded), ("b", next(parts))))
                sub = Expression(mode, node)
            else:
                sub = subtree(i)
                if value is _NO_VERTICES:
                    value = handlers.base_empty()
            verify(locate(i), node, value, evaluate(sub))
            last = i
            yield i, value
    except Verdict as verdict:
        i = verdict._fold_index
        verify(locate(i), nodes[i], verdict.value, evaluate(subtree(i)))
        raise
    if last is None:
        verify("root", e.root, handlers.base_empty(), evaluate(e))


def _add_piece(runs, start, stop):
    """Record the finished piece ``order[start:stop]`` in ``runs``: it
    takes in every run that reaches ``start``, inside the piece or next to
    it."""
    while runs and runs[-1][1] >= start:
        start = min(start, runs.pop()[0])
    runs.append((start, stop))


def assert_stats(stats: FoldStats, n: int, p: Params) -> list:
    """Check the fold accounting against the theoretical bounds.  Returns a
    list of violation messages (empty = ok).

    A union or join folds as substitutions into two-vertex patterns, so the
    pattern-order cap is max(h, 2).
    """
    violations = []
    if stats.sum_pattern_order > 2 * n:
        violations.append(
            f"sum of pattern orders {stats.sum_pattern_order} exceeds 2n = {2 * n}"
        )
    if stats.max_inc_nesting > p.k:
        violations.append(
            f"inc nesting {stats.max_inc_nesting} exceeds declared k = {p.k}"
        )
    if stats.max_subst_order > max(p.h, 2):
        violations.append(
            f"pattern order {stats.max_subst_order} exceeds declared h = {p.h}"
        )
    if stats.max_subtd_depth > p.l:
        violations.append(
            f"pattern tree-depth {stats.max_subtd_depth} exceeds declared l = {p.l}"
        )
    return violations
