"""Generic bottom-up fold over expression trees, as parsed.

A problem is solved on an expression by supplying one handler per operation;
the fold threads per-subtree summary values upward as the expression is
structured, a union in one call, a join as a chain of binary substitutions.
The fold is one loop over the expression's post-order (``expr.fold_order``
on ``Expression._order``, which the parser records), and every walk the
handlers make is a loop over a slice of it.  Handlers see only summaries
and the node payload.  An inc handler gets the order of its child
subexpression, the slice of the expression's order just before the inc,
and reads from it what it needs of the child graph: triangle counting
counts the closed edges from it, the shortest-path handlers evaluate it.
A substitution handler gets its pattern: an explicit pattern as a graph,
built once per fold however many nodes share it, a tree-depth pattern as
its expression.  The fold evaluates nothing unless ``verify`` is given.

The fold also collects accounting statistics (pattern-order sums, inc
nesting) that the theory bounds; ``assert_stats`` re-checks those bounds on
every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import InputError, VerificationError
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
    evaluate,
    expression_of,
    fold_order,
    inc_nesting,
    post_order,
)

_NO_VERTICES = object()  # the value of a subtree without vertices


@dataclass
class HandlerSet:
    """Per-operation handlers producing summaries of type F.

    on_inc receives the child's summary and the child subexpression's
    order, ``order[i - size : i]`` for the inc at index i of the folded
    order, where size is the child's subtree size (``expr.post_order``).
    on_subst receives the pattern graph and the children as ``(pattern
    vertex name, summary)`` pairs in pattern vertex order, also per step of
    a join; on_subst_td receives the pattern's tree-depth expression and
    the children in binding order; on_union the summaries of a union's two
    or more parts with vertices, in order.  The leaf, inc and union
    handlers also fold tree-depth patterns (``fold_td_expression``).
    """

    base_empty: Callable
    base_vertex: Callable
    on_inc: Callable      # (child F, name, in_names, out_names, child order) -> F
    on_subst: Callable    # (pattern Graph, [(name, F), ...]) -> F
    on_subst_td: Callable  # (pattern_expr, [(name, F), ...]) -> F
    on_union: Callable    # ([F, F, ...]) -> F


@dataclass
class FoldStats:
    """Accounting collected during a fold."""

    counts: dict = field(default_factory=dict)
    sum_pattern_order: int = 0
    max_inc_nesting: int = 0
    leaf_count: int = 0
    max_subst_order: int = 0
    max_subtd_depth: int = 0

    def bump(self, kind, times=1):
        self.counts[kind] = self.counts.get(kind, 0) + times


def fold(e: Expression, handlers: HandlerSet, *, verify=None):
    """Fold a validated expression bottom-up, with the values and stats of
    folding ``normalize(e)``: a union or join drops its children without
    vertices, a union passes the rest to one ``on_union`` call counted as
    the substitutions it stands for, and a join chains them through
    ``on_subst``; a subtree without vertices is one empty leaf where an inc
    (which is then ``base_vertex``) or the root keeps it.  Returns
    ``(summary, FoldStats)``.

    ``verify``, when given, is called as ``verify(path, node, summary,
    subgraph)`` after every handler with the evaluated subgraph of that node
    or of a join's children folded so far (debug mode; cubic in the width
    of a join).  Without ``verify`` the fold evaluates nothing.
    """
    # local, so that no pattern outlives the fold, and keyed by identity,
    # which is stable while the expression lives and cheaper than a hash
    pattern_graphs = {}
    stats = FoldStats()
    order = e._order
    at = -1  # the index of the entry being combined

    def count_subst(order, times=1):
        stats.bump("subst", times)
        stats.sum_pattern_order += order * times
        stats.max_subst_order = max(stats.max_subst_order, order)

    def substitute(pattern, children):
        count_subst(len(pattern.names))
        pg = pattern_graphs.get(id(pattern))
        if pg is None:
            pg = pattern_graphs[id(pattern)] = pattern.to_graph()
        return handlers.on_subst(pg, children)

    def subgraph(j):
        # the evaluated subtree of the entry at j, for verify
        return evaluate(expression_of(e.mode, order[j + 1 - order[j][2] : j + 1]))

    def empty_leaf(j, path):
        stats.bump("empty")
        stats.leaf_count += 1
        if verify is not None:
            verify(path(), order[j][0], handlers.base_empty(), subgraph(j))

    def combine(node, vals, where):
        # vals holds (summary, inc_depth) pairs for the children
        nonlocal at
        at += 1
        depth = 0
        for _, d in vals:
            if d > depth:
                depth = d
        t = type(node)
        if t is Empty:
            return _NO_VERTICES, 0
        try:
            if t is Union or t is Join:
                kids = [(v, c) for (v, _), c in zip(vals, node.children) if v is not _NO_VERTICES]
                if len(kids) < 2:
                    return (kids[0][0] if kids else _NO_VERTICES), depth
                if t is Join:
                    value, folded = kids[0]
                    for v, child in kids[1:]:
                        value = substitute(_PAT_K2[e.mode], [("a", value), ("b", v)])
                        if verify is not None:
                            folded = Subst(_PAT_K2[e.mode], (("a", folded), ("b", child)))
                            verify(where(), folded, value, evaluate(Expression(e.mode, folded)))
                    return value, depth
                count_subst(2, len(kids) - 1)  # r - 1 steps into two isolated vertices
                value = handlers.on_union([v for v, _ in kids])
            elif t is Subst:
                by_name = {bn: v for (bn, _), (v, _) in zip(node.bindings, vals)}
                value = substitute(node.pattern, [(p, by_name[p]) for p in node.pattern.names])
            elif t is Inc:
                stats.bump("inc")
                depth += 1
                stats.max_inc_nesting = max(stats.max_inc_nesting, depth)
                f = vals[0][0]
                if f is not _NO_VERTICES:
                    child = order[at - order[at - 1][2] : at]
                    value = handlers.on_inc(f, node.name, node.in_names, node.out_names, child)
                else:  # x is the whole graph
                    empty_leaf(at - 1, lambda: where() + "/child")
                    value = handlers.base_vertex(node.name)
            elif t is Vertex:
                stats.bump("vertex")
                stats.leaf_count += 1
                value = handlers.base_vertex(node.name)
            elif t is SubstTd:
                stats.bump("subst_td")
                # validation binds each pattern vertex exactly once
                stats.sum_pattern_order += len(node.bindings)
                stats.max_subtd_depth = max(stats.max_subtd_depth, inc_nesting(node.pattern_expr))
                children = [(bn, v) for (bn, _), (v, _) in zip(node.bindings, vals)]
                value = handlers.on_subst_td(node.pattern_expr, children)
            else:
                raise InputError(f"unknown node type {t.__name__}")
            if verify is not None:
                verify(where(), node, value, subgraph(at))
            return value, depth
        except VerificationError:
            raise
        except Exception as exc:
            if not getattr(exc, "_fold_path", None):
                path = exc._fold_path = where()
                message = exc.args[0] if exc.args else repr(exc)
                exc.args = (f"{message} [at {path}]",) + exc.args[1:]
            raise

    value, _ = fold_order(order, combine)
    if value is _NO_VERTICES:
        empty_leaf(len(order) - 1, lambda: "root")
        value = handlers.base_empty()
    return value, stats


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


# ---------------------------------------------------------------------------
# Folds over tree-depth pattern expressions.
#
# Subst-td handlers replay their pattern with the problem's own handlers.


def fold_td_expression(pattern_expr, handlers: HandlerSet):
    """Post-order fold over a pure tree-depth expression with vertices, with
    the leaf, inc and union handlers of ``handlers`` under the rules of
    ``fold``: a union drops its parts without vertices, and an inc over a
    part without vertices is ``base_vertex``.  The inc handler gets the
    order of the child sub-pattern expression."""
    order = post_order(pattern_expr)
    at = -1  # the index of the entry being combined

    def combine(node, vals, _where):
        nonlocal at
        at += 1
        t = type(node)
        if t is Inc:
            if vals[0] is _NO_VERTICES:
                return handlers.base_vertex(node.name)
            child = order[at - order[at - 1][2] : at]
            return handlers.on_inc(vals[0], node.name, node.in_names, node.out_names, child)
        if t is Vertex:
            return handlers.base_vertex(node.name)
        if t is Union:
            parts = [v for v in vals if v is not _NO_VERTICES]
            if len(parts) < 2:
                return parts[0] if parts else _NO_VERTICES
            return handlers.on_union(parts)
        if t is Empty:
            return _NO_VERTICES
        raise InputError(f"{t.__name__} node inside a tree-depth pattern expression")

    return fold_order(order, combine)
