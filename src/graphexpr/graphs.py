"""Simple graphs with string vertex ids and the shortest-path primitives
built on vertex weights.

Distance convention used throughout the package: the distance between two
vertices is the sum of the weights of *all* vertices on the path, both
endpoints included, and ``dist(u, u) = w(u)`` (a single vertex counts as a
path).  Vertex weights are moved onto edges via the edge shift
``cost((x, y)) = w(x)``, which makes the cost of a path ``P`` ending in ``v``
equal to ``w(P) - w(v)`` and the cost of a cycle equal to its vertex-weight
sum.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import product

from .errors import InputError

INF = math.inf

# Tolerance for feasibility and equality checks on weights; the solvers
# raise it to the rounding error of their weights (``paths.solve_tolerance``).
TOL = 1e-9

DIRECTED = "directed"
UNDIRECTED = "undirected"


class NegativeCycle:
    """Verdict value: the graph contains a cycle of negative vertex weight."""

    __slots__ = ()

    def __repr__(self):
        return "NegativeCycle"


#: Singleton returned by solvers instead of a summary / distance matrix.
NEGATIVE_CYCLE = NegativeCycle()


def is_negative_cycle(value) -> bool:
    return isinstance(value, NegativeCycle)


def canonical_edge(kind: str, u: str, v: str) -> tuple[str, str]:
    """Directed edges are (tail, head); undirected edges store sorted endpoints."""
    if kind == UNDIRECTED and v < u:
        return (v, u)
    return (u, v)


class Graph:
    """Immutable simple graph (no loops, no parallel edges).

    ``vertices`` keeps insertion order; ``edges`` is a frozenset of
    canonical pairs.  Adjacency is prebuilt, all queries are O(1)/O(deg).
    Instances are never mutated after construction, so they can be shared
    freely between threads.
    """

    __slots__ = ("kind", "vertices", "edges", "_out", "_in")

    def __init__(self, kind, vertices, edges):
        if kind not in (DIRECTED, UNDIRECTED):
            raise InputError(f"unknown graph kind {kind!r}")
        vertices = tuple(vertices)
        vset = frozenset(vertices)
        if len(vset) != len(vertices):
            raise InputError("duplicate vertex id in graph")
        out = {v: set() for v in vertices}
        inn = {v: set() for v in vertices} if kind == DIRECTED else out
        undirected = kind == UNDIRECTED
        canon = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at vertex {u!r} not allowed")
            if u not in vset or v not in vset:
                raise InputError(f"edge ({u!r}, {v!r}) references undeclared vertex")
            if undirected and v < u:  # canonical_edge, inlined
                u, v = v, u
            canon.add((u, v))
            out[u].add(v)
            inn[v].add(u)
        self.kind = kind
        self.vertices = vertices
        self.edges = frozenset(canon)
        self._out = out
        self._in = inn

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v):
        if self.kind == DIRECTED:
            return self._out[v] | self._in[v]
        return self._out[v]

    def __repr__(self):
        return f"Graph({self.kind}, n={self.n}, m={self.m})"


def check_total_weights(names, w: dict) -> None:
    """Every vertex name in ``names`` needs a finite weight in ``w``."""
    missing = [v for v in names if v not in w]
    if missing:
        raise InputError(
            "weight map is missing vertices: " + ", ".join(sorted(missing)[:5])
        )
    infinite = [v for v in names if not math.isfinite(w[v])]
    if infinite:
        raise InputError(
            "weight map has non-finite weights: "
            + ", ".join(f"{v}={w[v]}" for v in sorted(infinite)[:5])
        )


def edge_shift(g: Graph, w: dict) -> dict:
    """Edge costs that move each vertex weight onto its outgoing edges:
    ``cost((x, y)) = w(x)``."""
    if g.kind != DIRECTED:
        raise InputError("edge_shift requires a directed graph")
    check_total_weights(g.vertices, w)
    return {(u, v): w[u] for (u, v) in g.edges}


def check_potential(g: Graph, costs: dict, pi: dict, tol: float = TOL) -> bool:
    """True iff every reduced cost ``c(e) + pi(tail) - pi(head)`` is >= -tol."""
    if g.kind != DIRECTED:
        raise InputError("potentials are defined on directed graphs")
    for v in g.vertices:
        if v not in pi:
            raise InputError(f"potential is missing vertex {v!r}")
    for (u, v) in g.edges:
        if costs[(u, v)] + pi[u] - pi[v] < -tol:
            return False
    return True


class DistView(Mapping):
    """Read-only ``(u, v) -> distance`` view of dense distance rows:
    ``rows[i][j]`` is the distance from the i-th to the j-th of ``names``.
    The name index is built on the first lookup."""

    __slots__ = ("names", "rows", "_index")

    def __init__(self, names, rows):
        self.names = names
        self.rows = rows
        self._index = None

    def __getitem__(self, pair):
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise KeyError(pair)
        if self._index is None:
            self._index = dict(zip(self.names, range(len(self.rows))))
        return self.rows[self._index[pair[0]]][self._index[pair[1]]]

    def __iter__(self):
        return product(self.names, repeat=2)

    def __len__(self):
        return len(self.rows) ** 2


def floyd_vertex_weighted(g: Graph, w: dict, tol: float = TOL):
    """All-pairs distances under the vertex-weight convention, as a DistView
    over dense rows in ``g.vertices`` order, or the NEGATIVE_CYCLE verdict
    (a closed walk below ``-tol``).

    dist(u, u) = w(u); dist(u, v) sums the weights of all path vertices
    including both endpoints.  Relaxation through a middle vertex k therefore
    subtracts w(k) once to undo the double count.
    """
    if g.kind != DIRECTED:
        raise InputError("floyd_vertex_weighted requires a directed graph")
    vs = g.vertices
    wt = [w.get(v, math.nan) for v in vs]
    if not math.isfinite(sum(wt)):  # a weight is missing or not finite, or the sum overflows
        check_total_weights(vs, w)
    n = len(vs)
    d = [[INF] * n for _ in vs]
    for i, row in enumerate(d):
        row[i] = wt[i]
    index = dict(zip(vs, range(n)))
    for (u, v) in g.edges:
        d[index[u]][index[v]] = w[u] + w[v]
    for k, row_k in enumerate(d):
        wk = wt[k]
        for i, row_i in enumerate(d):
            dik = row_i[k]
            if dik == INF or i == k:
                continue
            base = dik - wk
            for j, b in enumerate(row_k):
                alt = base + b
                if alt < row_i[j]:
                    row_i[j] = alt
    # A closed walk i -> j -> i of negative total weight (each endpoint
    # counted once) witnesses a negative cycle; conversely any negative
    # cycle produces such a pair.
    for i, row_i in enumerate(d):
        for j, dij in enumerate(row_i):
            if i != j and dij < INF and d[j][i] < INF:
                if dij + d[j][i] - wt[i] - wt[j] < -tol:
                    return NEGATIVE_CYCLE
    return DistView(vs, d)


def parse_weights(text: str) -> dict:
    """Parse a TSV weight file: ``name<TAB>weight`` per line, ``#`` comments."""
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise InputError(f"weights line {lineno}: expected name<TAB>weight")
        name, value = parts[0].strip(), parts[1]
        if name in weights:
            raise InputError(f"weights line {lineno}: duplicate name {name!r}")
        try:
            weight = float(value)
        except ValueError:
            raise InputError(f"weights line {lineno}: bad number {value!r}") from None
        if not math.isfinite(weight):
            raise InputError(f"weights line {lineno}: weight {value!r} is not finite")
        weights[name] = weight
    return weights
