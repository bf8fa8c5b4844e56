"""Generic bottom-up fold over normalized expression trees.

A problem is solved on an expression by supplying one handler per operation;
the fold threads per-subtree summary values upward exactly as the expression
is structured.  Handlers see only summaries and the node payload.  An inc
handler gets the child subexpression and reads from it what it needs of the
child graph: triangle counting counts the closed edges from the expression,
the shortest-path handlers evaluate the child.  A substitution handler gets
its pattern: an explicit pattern as a graph, built once per fold however
many nodes share it, a tree-depth pattern as its expression.  The fold
itself evaluates nothing unless ``verify`` is given.

The fold also collects accounting statistics (pattern-order sums, inc
nesting) that the theory bounds; ``assert_stats`` re-checks those bounds on
every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    evaluate,
    fold_expression,
    inc_nesting,
)


@dataclass
class HandlerSet:
    """Per-operation handlers producing summaries of type F.

    on_inc receives the child's summary and the child subexpression.
    on_subst receives the pattern graph and the children as ``(pattern
    vertex name, summary)`` pairs in pattern vertex order; on_subst_td
    receives the pattern's tree-depth expression and the children in
    binding order.  The leaf and inc handlers also fold the tree-depth
    patterns themselves (``fold_td_expression``).
    """

    base_empty: Callable
    base_vertex: Callable
    on_inc: Callable      # (child F, name, in_names, out_names, child_expr) -> F
    on_subst: Callable    # (pattern Graph, [(name, F), ...]) -> F
    on_subst_td: Callable  # (pattern_expr, [(name, F), ...]) -> F


@dataclass
class FoldStats:
    """Accounting collected during a fold."""

    counts: dict = field(default_factory=dict)
    sum_pattern_order: int = 0
    max_inc_nesting: int = 0
    leaf_count: int = 0
    max_subst_order: int = 0
    max_subtd_depth: int = 0

    def bump(self, kind):
        self.counts[kind] = self.counts.get(kind, 0) + 1


def fold(e: Expression, handlers: HandlerSet, *, verify=None):
    """Fold a normalized, validated expression bottom-up.

    Returns ``(summary, FoldStats)``.  ``verify``, when given, is called as
    ``verify(path, node, summary, subgraph)`` after every handler with the
    evaluated subgraph of that node (debug mode).  That costs the sum of
    the node subgraph sizes, which is cubic in the length of a join chain.
    Without ``verify`` the fold evaluates nothing.
    """
    # normalization shares two pattern objects across whole chains; the
    # cache is local so that no pattern outlives the fold, and keyed by
    # identity, which is stable while the expression is alive and cheaper
    # than hashing the frozen pattern
    pattern_graphs = {}
    stats = FoldStats()

    def combine(node, vals, where):
        # vals holds (summary, inc_depth) pairs for the children
        depth = 0
        for _, d in vals:
            if d > depth:
                depth = d
        t = type(node)
        try:
            if t is Subst:
                stats.bump("subst")
                order = len(node.pattern.names)
                stats.sum_pattern_order += order
                stats.max_subst_order = max(stats.max_subst_order, order)
                by_name = {bn: v for (bn, _), (v, _) in zip(node.bindings, vals)}
                children = [(p, by_name[p]) for p in node.pattern.names]
                pg = pattern_graphs.get(id(node.pattern))
                if pg is None:
                    pg = pattern_graphs[id(node.pattern)] = node.pattern.to_graph()
                value = handlers.on_subst(pg, children)
            elif t is Inc:
                stats.bump("inc")
                depth += 1
                stats.max_inc_nesting = max(stats.max_inc_nesting, depth)
                value = handlers.on_inc(
                    vals[0][0], node.name, node.in_names, node.out_names, node.child
                )
            elif t is Empty:
                stats.bump("empty")
                stats.leaf_count += 1
                value = handlers.base_empty()
            elif t is Vertex:
                stats.bump("vertex")
                stats.leaf_count += 1
                value = handlers.base_vertex(node.name)
            elif t is SubstTd:
                stats.bump("subst_td")
                # validation binds each pattern vertex exactly once
                stats.sum_pattern_order += len(node.bindings)
                stats.max_subtd_depth = max(
                    stats.max_subtd_depth, inc_nesting(node.pattern_expr)
                )
                children = [(bn, v) for (bn, _), (v, _) in zip(node.bindings, vals)]
                value = handlers.on_subst_td(node.pattern_expr, children)
            elif t is Union or t is Join:
                raise InputError(
                    "fold requires a normalized expression (no union/join); "
                    "call normalize() first"
                )
            else:
                raise InputError(f"unknown node type {t.__name__}")
        except Exception as exc:
            if not getattr(exc, "_fold_path", None):
                path = exc._fold_path = where()
                message = exc.args[0] if exc.args else repr(exc)
                exc.args = (f"{message} [at {path}]",) + exc.args[1:]
            raise

        if verify is not None:
            verify(where(), node, value, evaluate(Expression(e.mode, node)))
        return value, depth

    value, _ = fold_expression(e.root, combine)
    return value, stats


def assert_stats(stats: FoldStats, n: int, p: Params) -> list:
    """Check the fold accounting against the theoretical bounds.  Returns a
    list of violation messages (empty = ok).

    Normalization may introduce two-vertex patterns, so the pattern-order cap
    is max(h, 2) whenever any substitution node exists.
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
# Union survives here; no supported problem connects its disjoint parts.


def fold_td_expression(pattern_expr, handlers: HandlerSet, union):
    """Post-order fold over a pure tree-depth expression with the leaf and
    inc handlers of ``handlers``; ``union`` merges the values of a union's
    parts.  The inc handler gets the child sub-pattern expression."""

    def combine(node, vals, _where):
        t = type(node)
        if t is Inc:
            return handlers.on_inc(vals[0], node.name, node.in_names, node.out_names, node.child)
        if t is Vertex:
            return handlers.base_vertex(node.name)
        if t is Union:
            return union(vals)
        if t is Empty:
            return handlers.base_empty()
        raise InputError(f"{t.__name__} node inside a tree-depth pattern expression")

    return fold_expression(pattern_expr, combine)
