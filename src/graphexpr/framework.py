"""Generic bottom-up fold over normalized expression trees.

A problem is solved on an expression by supplying one handler per operation;
the fold threads per-subtree summary values upward exactly as the expression
is structured.  Handlers see only summaries and the node payload, with two
exceptions.  Inc handlers receive a read-only view of the child subgraph,
because adding a vertex inherently needs to look at the edges it closes.
The view carries the child subexpression (``view.child``), which is all a
handler needs when it can count from the expression, as triangle counting
does; such a solve never builds a graph.  The view's vertex set and
adjacency are resolved once, on the first query of either: the adjacency
is induced from the whole evaluated graph, which equals the child
subexpression's value since vertex names are globally unique and later
operations never add edges inside an existing subtree.  The fold evaluates
the whole graph once, on the first such query or for ``verify``.
Substitution handlers receive the pattern as a graph: the fold builds each
explicit pattern's graph once per fold, however many nodes share it, and
evaluates each subst-td pattern once per node.

The fold also collects accounting statistics (pattern-order sums, inc
nesting) that the theory bounds; ``assert_stats`` re-checks those bounds on
every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .errors import InputError
from .expr import (
    Empty,
    Expression,
    Inc,
    Join,
    Params,
    Pattern,
    Subst,
    SubstTd,
    Union,
    Vertex,
    collect_vertex_names,
    evaluate,
    fold_expression,
    inc_nesting,
)
from .graphs import Graph


class SubgraphView:
    """Read-only view of an inc node's child subgraph.

    ``child`` is the child subexpression.  ``graph`` is a zero-argument
    callable returning a graph that contains the child's subgraph as an
    induced subgraph; it is called, and the child's vertex set collected,
    once per view, on the first query of ``vertices`` or a neighbor list.
    """

    __slots__ = ("child", "_graph", "_resolved")

    def __init__(self, child, graph: Callable[[], Graph]):
        self.child = child
        self._graph = graph
        self._resolved = None

    def _resolve(self):
        self._resolved = (self._graph(), frozenset(collect_vertex_names(self.child)))
        return self._resolved

    @property
    def vertices(self) -> frozenset:
        return (self._resolved or self._resolve())[1]

    def out_neighbors(self, v):
        graph, vertices = self._resolved or self._resolve()
        return [u for u in graph.out_neighbors(v) if u in vertices]

    def in_neighbors(self, v):
        graph, vertices = self._resolved or self._resolve()
        return [u for u in graph.in_neighbors(v) if u in vertices]


@dataclass
class HandlerSet:
    """Per-operation handlers producing summaries of type F.

    on_subst / on_subst_td receive the pattern graph and the children as
    ``(pattern vertex name, summary)`` pairs in pattern vertex order;
    on_subst_td also receives the pattern's tree-depth expression.
    """

    base_empty: Callable
    base_vertex: Callable
    on_inc: Callable      # (child F, name, in_names, out_names, view) -> F
    on_subst: Callable    # (pattern Graph, [(name, F), ...]) -> F
    on_subst_td: Callable  # (pattern_expr, pattern Graph, [(name, F), ...]) -> F


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
    materialized subgraph of that node (debug mode; quadratic).
    """
    graph = cache(lambda: evaluate(e))
    # normalization shares two pattern objects across whole chains; the
    # cache is local so that no pattern outlives the fold
    pattern_graph = cache(Pattern.to_graph)
    stats = FoldStats()

    def combine(node, vals, where):
        # vals holds (summary, inc_depth) pairs for the children
        depth = max((d for _, d in vals), default=0)
        try:
            if isinstance(node, Empty):
                stats.bump("empty")
                stats.leaf_count += 1
                value = handlers.base_empty()
            elif isinstance(node, Vertex):
                stats.bump("vertex")
                stats.leaf_count += 1
                value = handlers.base_vertex(node.name)
            elif isinstance(node, Inc):
                stats.bump("inc")
                depth += 1
                stats.max_inc_nesting = max(stats.max_inc_nesting, depth)
                view = SubgraphView(node.child, graph)
                value = handlers.on_inc(
                    vals[0][0], node.name, node.in_names, node.out_names, view
                )
            elif isinstance(node, Subst):
                stats.bump("subst")
                order = len(node.pattern.names)
                stats.sum_pattern_order += order
                stats.max_subst_order = max(stats.max_subst_order, order)
                children = _aligned(node, node.pattern.names, vals)
                value = handlers.on_subst(pattern_graph(node.pattern), children)
            elif isinstance(node, SubstTd):
                stats.bump("subst_td")
                pattern = evaluate(Expression(e.mode, node.pattern_expr))
                stats.sum_pattern_order += pattern.n
                stats.max_subtd_depth = max(
                    stats.max_subtd_depth, inc_nesting(node.pattern_expr)
                )
                children = _aligned(node, pattern.vertices, vals)
                value = handlers.on_subst_td(node.pattern_expr, pattern, children)
            elif isinstance(node, (Union, Join)):
                raise InputError(
                    "fold requires a normalized expression (no union/join); "
                    "call normalize() first"
                )
            else:
                raise InputError(f"unknown node type {type(node).__name__}")
        except Exception as exc:
            if not getattr(exc, "_fold_path", None):
                path = exc._fold_path = where()
                message = exc.args[0] if exc.args else repr(exc)
                exc.args = (f"{message} [at {path}]",) + exc.args[1:]
            raise

        if verify is not None:
            sub = graph().induced(collect_vertex_names(node))
            verify(where(), node, value, sub)
        return value, depth

    value, _ = fold_expression(e.root, combine)
    return value, stats


def _aligned(node, order, vals):
    by_name = {bn: v for (bn, _), (v, _) in zip(node.bindings, vals)}
    return [(pname, by_name[pname]) for pname in order]


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
# Subst-td handlers re-run the framework on the pattern itself (the pattern
# is a tree-depth expression over the pattern vertices).  Union survives
# here and is handled by a merge function, since disjoint parts interact
# with none of the supported problems.


def fold_td_expression(pattern_expr, pattern_graph: Graph, *, empty, vertex, union, inc):
    """Post-order fold over a pure tree-depth expression.

    ``inc`` is called as ``inc(child_value, name, in_names, out_names, view)``
    with a view of the child sub-pattern induced from ``pattern_graph``.
    """

    def combine(node, vals, _where):
        if isinstance(node, Empty):
            return empty()
        if isinstance(node, Vertex):
            return vertex(node.name)
        if isinstance(node, Union):
            return union(vals)
        if isinstance(node, Inc):
            view = SubgraphView(node.child, lambda: pattern_graph)
            return inc(vals[0], node.name, node.in_names, node.out_names, view)
        raise InputError(
            f"{type(node).__name__} node inside a tree-depth pattern expression"
        )

    return fold_expression(pattern_expr, combine)
