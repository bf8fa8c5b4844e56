"""Triangle counting on undirected expressions.

The fold summary is the triple (n, m, t): vertex count, edge count, triangle
count.  Adding a vertex x creates one new triangle per child edge whose
endpoints are both neighbors of x.  That number is counted from the child
subexpression, not from edges, so a solve never builds the evaluated graph:
a loop over the child's edge-bearing parts, in post-order (the runs of
entries of the expression's post-order that the inc handler gets),
keeps, per node, how many of its vertices lie in S = N(x) and how many of
its edges lie inside S, on two integer stacks: a Python call per node
would cost more than the work.  This costs O(size of those parts) per inc node, at most
O(size of the child), and O(k * size of the expression) per solve.
Substitution combines summaries arithmetically: every pattern edge {i, j}
contributes n_i * n_j edges and m_i * n_j + n_i * m_j triangles, and every
pattern triangle {i, j, k} n_i * n_j * n_k triangles.  A tree-depth pattern
is turned into its graph by one loop over its recorded order
(``expr.td_pattern_edges``) and combined the same way.
"""

from __future__ import annotations

from typing import NamedTuple

from . import framework
from .errors import InputError, VerificationError
from .expr import evaluate, normalize, validate_or_raise  # noqa: F401  (no caller here; perfbench/tracing.py wraps the names)
from .expr import (
    Empty,
    Expression,
    Inc,
    Join,
    Subst,
    Union,
    Vertex,
    _valid_names,
    td_pattern_edges,
)
from .framework import FoldStats, HandlerSet
from .framework import fold_td_expression  # noqa: F401  (no caller here; perfbench/tracing.py wraps the name)
from .graphs import UNDIRECTED, Graph


class TriFold(NamedTuple):
    n: int
    m: int
    t: int


# the summaries of a vertex and of nothing, shared by every leaf
_VERTEX, _NOTHING = TriFold(1, 0, 0), TriFold(0, 0, 0)


def combine_inc(f: TriFold, neighbors, order, runs) -> TriFold:
    """Summary after adding one vertex adjacent to ``neighbors`` to the graph
    of the subexpression whose edge-bearing parts, in post-order, are the
    ``[start, stop)`` ``runs`` of ``order`` (see ``framework.HandlerSet``).

    Every new triangle uses the new vertex plus exactly one child edge with
    both endpoints adjacent to it, so a vertex with fewer than two
    neighbors closes none, and the child is not read.
    """
    closed = edges_within(order, neighbors, runs) if len(neighbors) > 1 else 0
    return TriFold(f.n + 1, f.m + len(neighbors), f.t + closed)


def edges_within(order, s, runs) -> int:
    """Number of edges with both endpoints in the vertex-name set ``s`` of
    the graph of the subexpression whose edge-bearing parts, in post-order,
    are the ``[start, stop)`` ``runs`` of ``order``, an ``expr.Order`` (see
    ``framework.HandlerSet``; the span of a whole tree is one such run).

    Each node's value is (vertices in s, edges inside s), on two stacks
    that start with a 0 sentinel, and the answer is the sum of the edge
    stack, one value per part.  An inc vertex in s adds its edges into s,
    to its child's value or, as a part alone, to the total; a union adds up
    its children's values, a join adds c_i * c_j for each pair of children
    and a substitution for each pattern edge {i, j}, where c_i counts the
    vertices in s of child i; a tree-depth pattern's edges come from
    ``expr.td_pattern_edges``.
    """
    cs, es = [0], [0]
    nodes, counts = order.nodes, order.counts
    for start, stop in runs:
        for node, c in zip(nodes[start:stop], counts[start:stop]):
            t = type(node)
            if t is Vertex or t is Empty:
                cs.append(1 if t is Vertex and node.name in s else 0)
                es.append(0)
            elif t is Inc:
                if node.name in s:
                    cs[-1] += 1
                    es[-1] += len(node.neighbor_names & s)
            else:
                top = len(cs) - c
                kids = cs[top:]
                n, e = sum(kids), sum(es[top:])
                del cs[top:], es[top:]
                if t is Join:
                    e += (n * n - sum([ci * ci for ci in kids])) // 2
                elif t is not Union:  # a substitution
                    if t is Subst:
                        edges = node.pattern.edges
                    else:
                        edges = td_pattern_edges(node.pattern_order, UNDIRECTED)
                    if edges:
                        inside = {bn: ci for (bn, _), ci in zip(node.bindings, kids)}
                        for (u, v) in edges:
                            e += inside[u] * inside[v]
                cs.append(n)
                es.append(e)
    return sum(es)


def combine_union(parts) -> TriFold:
    """Summary of the disjoint union of ``parts``: the counts add up."""
    n = m = t = 0
    for fn, fm, ft in parts:
        n += fn
        m += fm
        t += ft
    return TriFold(n, m, t)


def combine_subst(h, children) -> TriFold:
    """Summary of substituting ``children`` into the pattern graph ``h``:
    the children's own counts, plus n_i * n_j edges and m_i * n_j + n_i *
    m_j triangles per pattern edge {i, j}, plus n_i * n_j * n_k triangles
    per pattern triangle {i, j, k}, which only a pattern with three or more
    edges holds, and which is met once at each of its edges."""
    n = m = t = 0
    for _, (fn, fm, ft) in children:
        n += fn
        m += fm
        t += ft
    by_name = dict(children)
    closed = 0  # three times the pattern-triangle sum
    triangles = len(h.edges) > 2
    for (u, v) in h.edges:
        nu, mu, _ = by_name[u]
        nv, mv, _ = by_name[v]
        m += nu * nv
        t += mu * nv + nu * mv
        if triangles:
            for w in h.neighbors(u) & h.neighbors(v):
                closed += nu * nv * by_name[w].n
    return TriFold(n, m, t + closed // 3)


def combine_subst_td(pattern_order, children) -> TriFold:
    """combine_subst on the graph of the tree-depth pattern whose order
    (an ``expr.Order``) is ``pattern_order``, and whose vertices are the
    binding names of ``children``."""
    names = [name for name, _ in children]
    h = Graph(UNDIRECTED, names, td_pattern_edges(pattern_order, UNDIRECTED))
    return combine_subst(h, children)


def handlers() -> HandlerSet:
    return HandlerSet(
        base_empty=lambda: _NOTHING,
        base_vertex=lambda name: _VERTEX,
        on_inc=lambda f, name, inn, out, order, runs: combine_inc(f, inn | out, order, runs),
        on_subst=combine_subst,
        on_subst_td=combine_subst_td,
        on_union=combine_union,
    )


def triangle_summary(e: Expression, *, verify=None) -> tuple[TriFold, FoldStats]:
    """Run the triangle-counting fold; returns the summary and fold stats."""
    if e.mode != UNDIRECTED:
        raise InputError("triangle counting requires an undirected expression")
    _valid_names(e)
    checker = None
    if verify:
        from .oracle import oracle_triangles

        def checker(path, node, value, sub):
            if sub.n <= 200 and value.t != oracle_triangles(sub):
                raise VerificationError(
                    f"{path}: triangle summary {value.t} disagrees with "
                    f"brute force on the materialized subgraph"
                )

    value, stats = framework.fold(e, handlers(), verify=checker)
    return value, stats


def count_triangles(e: Expression) -> int:
    """Number of triangles in the evaluated graph."""
    return triangle_summary(e)[0].t
