"""Triangle counting on undirected expressions.

The fold summary is the triple (n, m, t): vertex count, edge count, triangle
count.  Adding a vertex x creates one new triangle per child edge whose
endpoints are both neighbors of x.  That number is counted from the child
subexpression, not from edges, so a solve never builds the evaluated graph:
a second post-order pass over the child carries, per node, how many of its
vertices lie in S = N(x) and how many of its edges lie inside S.  This
costs O(size of the child) per inc node, O(k * size of the expression) per
solve.  Substitution combines summaries arithmetically: every pattern edge
{i, j} contributes n_i * n_j edges and m_i * n_j + n_i * m_j triangles, and
every pattern triangle {i, j, k} contributes n_i * n_j * n_k triangles.  A
tree-depth pattern is turned into its graph (``expr.td_pattern_edges``) and
combined the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import framework
from .errors import InputError
from .expr import evaluate, normalize  # noqa: F401  (no caller here; perfbench/tracing.py wraps the names)
from .expr import (
    Empty,
    Expression,
    Inc,
    Join,
    Subst,
    SubstTd,
    Vertex,
    fold_expression,
    td_pattern_edges,
    validate_or_raise,
)
from .framework import FoldStats, HandlerSet
from .framework import fold_td_expression  # noqa: F401  (no caller here; perfbench/tracing.py wraps the name)
from .graphs import UNDIRECTED, Graph


@dataclass(frozen=True)
class TriFold:
    n: int
    m: int
    t: int


def combine_inc(f: TriFold, neighbors, child) -> TriFold:
    """Summary after adding one vertex adjacent to ``neighbors`` to the graph
    of the subexpression ``child``.

    Every new triangle uses the new vertex plus exactly one child edge with
    both endpoints adjacent to it.
    """
    closed = edges_within(child, neighbors)
    return TriFold(f.n + 1, f.m + len(neighbors), f.t + closed)


def edges_within(child, s) -> int:
    """Number of edges of the graph of the subexpression ``child`` with both
    endpoints in the vertex-name set ``s``.

    Each node's value is (vertices in s, edges inside s).  An inc vertex in
    s adds its edges into s; a union adds up its children's values, a join
    adds c_i * c_j for each pair of children and a substitution for each
    pattern edge {i, j}, where c_i counts the vertices in s of child i; a
    tree-depth pattern's edges come from ``expr.td_pattern_edges``.
    """

    def combine(node, vals, _where):
        t = type(node)
        if t is Inc:
            c, e = vals[0]
            if node.name in s:
                return (c + 1, e + len(node.neighbor_names & s))
            return (c, e)
        if t is Vertex:
            return (1, 0) if node.name in s else (0, 0)
        if t is Empty:
            return (0, 0)
        c = sum([c for c, _ in vals])
        e = sum([e for _, e in vals])
        if t is Join:
            return (c, e + (c * c - sum([ci * ci for ci, _ in vals])) // 2)
        if t is Subst:
            pattern_edges = node.pattern.edges
        elif t is SubstTd:
            pattern_edges = td_pattern_edges(node.pattern_expr, UNDIRECTED)
        else:  # a union: no edge between its children
            return (c, e)
        if pattern_edges:
            inside = {bn: c for (bn, _), (c, _) in zip(node.bindings, vals)}
            for (u, v) in pattern_edges:
                e += inside[u] * inside[v]
        return (c, e)

    return fold_expression(child, combine)[1]


def combine_subst(h, children) -> TriFold:
    """Summary of substituting ``children`` into the pattern graph ``h``.
    A pattern without edges is a disjoint union: the children's counts add
    up."""
    if not h.edges:
        n = m = t = 0
        for _, f in children:
            n += f.n
            m += f.m
            t += f.t
        return TriFold(n, m, t)
    sizes = {name: f.n for name, f in children}
    index = {name: i for i, name in enumerate(h.vertices)}
    tri_total = 0
    for (u, v) in h.edges:
        if index[u] > index[v]:
            u, v = v, u
        for c in h.neighbors(u) & h.neighbors(v):
            if index[c] > index[v]:  # count each pattern triangle once
                tri_total += sizes[u] * sizes[v] * sizes[c]
    return _assemble(children, h.edges, tri_total)


def combine_subst_td(pattern_expr, children) -> TriFold:
    """combine_subst on the graph of the tree-depth pattern ``pattern_expr``,
    whose vertices are the binding names of ``children``."""
    names = [name for name, _ in children]
    h = Graph(UNDIRECTED, names, td_pattern_edges(pattern_expr, UNDIRECTED))
    return combine_subst(h, children)


def _assemble(children, pattern_edges, tri_total) -> TriFold:
    """Totals of a substitution: the children's own counts, n_i * n_j edges
    and m_i * n_j + n_i * m_j triangles per pattern edge {i, j}, plus the
    weighted pattern-triangle sum ``tri_total``."""
    by_name = dict(children)
    n = sum(f.n for f in by_name.values())
    m = sum(f.m for f in by_name.values())
    t = sum(f.t for f in by_name.values()) + tri_total
    for (u, v) in pattern_edges:
        fu, fv = by_name[u], by_name[v]
        m += fu.n * fv.n
        t += fu.m * fv.n + fu.n * fv.m
    return TriFold(n, m, t)


def handlers() -> HandlerSet:
    return HandlerSet(
        base_empty=lambda: TriFold(0, 0, 0),
        base_vertex=lambda name: TriFold(1, 0, 0),
        on_inc=lambda f, name, inn, out, child: combine_inc(f, inn | out, child),
        on_subst=combine_subst,
        on_subst_td=combine_subst_td,
    )


def triangle_summary(e: Expression, *, verify=None) -> tuple[TriFold, FoldStats]:
    """Run the triangle-counting fold; returns the summary and fold stats."""
    if e.mode != UNDIRECTED:
        raise InputError("triangle counting requires an undirected expression")
    validate_or_raise(e)
    checker = None
    if verify:
        from .oracle import oracle_triangles

        def checker(path, node, value, sub):
            if sub.n <= 200 and value.t != oracle_triangles(sub):
                from .errors import VerificationError

                raise VerificationError(
                    f"{path}: triangle summary {value.t} disagrees with "
                    f"brute force on the materialized subgraph"
                )

    value, stats = framework.fold(e, handlers(), verify=checker)
    return value, stats


def count_triangles(e: Expression) -> int:
    """Number of triangles in the evaluated graph."""
    return triangle_summary(e)[0].t
