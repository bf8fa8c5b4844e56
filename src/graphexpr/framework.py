"""Generic bottom-up fold over expression trees, as parsed.

A problem is solved on an expression by supplying one handler per operation;
the fold threads per-subtree summary values upward as the expression is
structured, a union or join as a chain of binary substitutions.  Handlers
see only summaries and the node payload.  An inc handler gets the child
subexpression and reads from it what it needs of the child graph: triangle
counting counts the closed edges from it, the shortest-path handlers
evaluate it.  A substitution handler gets its pattern: an explicit pattern
as a graph, built once per fold however many nodes share it, a tree-depth
pattern as its expression.  The fold evaluates nothing unless ``verify``
is given.

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
    _PAT_I2,
    _PAT_K2,
    evaluate,
    fold_expression,
    inc_nesting,
)

_NO_VERTICES = object()  # the value of a subtree without vertices


@dataclass
class HandlerSet:
    """Per-operation handlers producing summaries of type F.

    on_inc receives the child's summary and the child subexpression.
    on_subst receives the pattern graph and the children as ``(pattern
    vertex name, summary)`` pairs in pattern vertex order, also per step of
    a union or join; on_subst_td receives the pattern's tree-depth
    expression and the children in binding order.  The leaf and inc
    handlers also fold the tree-depth patterns themselves
    (``fold_td_expression``).
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
    """Fold a validated expression bottom-up, with the handler calls and
    stats of folding ``normalize(e)``: a union or join drops its children
    without vertices and chains the rest left-deep through ``on_subst``; a
    subtree without vertices is one empty leaf where an inc or the root
    keeps it.  Returns ``(summary, FoldStats)``.

    ``verify``, when given, is called as ``verify(path, node, summary,
    subgraph)`` after every handler with the evaluated subgraph of that node
    or of a union's children folded so far (debug mode; cubic in the width
    of a join).  Without ``verify`` the fold evaluates nothing.
    """
    # local, so that no pattern outlives the fold, and keyed by identity,
    # which is stable while the expression lives and cheaper than a hash
    pattern_graphs = {}
    stats = FoldStats()

    def substitute(pattern, children):
        stats.bump("subst")
        order = len(pattern.names)
        stats.sum_pattern_order += order
        stats.max_subst_order = max(stats.max_subst_order, order)
        pg = pattern_graphs.get(id(pattern))
        if pg is None:
            pg = pattern_graphs[id(pattern)] = pattern.to_graph()
        return handlers.on_subst(pg, children)

    def empty_leaf(node, path):
        stats.bump("empty")
        stats.leaf_count += 1
        value = handlers.base_empty()
        if verify is not None:
            verify(path(), node, value, evaluate(Expression(e.mode, node)))
        return value

    def combine(node, vals, where):
        # vals holds (summary, inc_depth) pairs for the children
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
                if not kids:
                    return _NO_VERTICES, depth
                pattern = (_PAT_K2 if t is Join else _PAT_I2)[e.mode]
                value, folded = kids[0]
                for v, child in kids[1:]:
                    value = substitute(pattern, [("a", value), ("b", v)])
                    if verify is not None:
                        folded = Subst(pattern, (("a", folded), ("b", child)))
                        verify(where(), folded, value, evaluate(Expression(e.mode, folded)))
                return value, depth
            if t is Subst:
                by_name = {bn: v for (bn, _), (v, _) in zip(node.bindings, vals)}
                value = substitute(node.pattern, [(p, by_name[p]) for p in node.pattern.names])
            elif t is Inc:
                stats.bump("inc")
                depth += 1
                stats.max_inc_nesting = max(stats.max_inc_nesting, depth)
                f = vals[0][0]
                if f is _NO_VERTICES:
                    f = empty_leaf(node.child, lambda: where() + "/child")
                value = handlers.on_inc(f, node.name, node.in_names, node.out_names, node.child)
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
                verify(where(), node, value, evaluate(Expression(e.mode, node)))
            return value, depth
        except VerificationError:
            raise
        except Exception as exc:
            if not getattr(exc, "_fold_path", None):
                path = exc._fold_path = where()
                message = exc.args[0] if exc.args else repr(exc)
                exc.args = (f"{message} [at {path}]",) + exc.args[1:]
            raise

    value, _ = fold_expression(e.root, combine)
    if value is _NO_VERTICES:
        value = empty_leaf(e.root, lambda: "root")
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
