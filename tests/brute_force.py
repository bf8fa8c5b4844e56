"""Brute-force references that only the tests use.

Like the references in ``graphexpr.oracle`` they are independent of the
solvers they check: a potential by Bellman-Ford from a virtual source,
tree-depth by exhaustive vertex deletion.
"""

from graphexpr import DIRECTED, ContractViolation, Graph, InputError
from graphexpr.graphs import check_total_weights
from graphexpr.oracle import _super_source_labels


def shortest_path_potential(g: Graph, w: dict) -> dict:
    """Distances from a virtual source connected to every vertex by a
    zero-cost edge, under edge-shifted costs.  The result is a feasible
    potential; raises ContractViolation when the graph has a negative cycle
    (the caller was supposed to rule that out)."""
    if g.kind != DIRECTED:
        raise InputError("potentials are defined on directed graphs")
    check_total_weights(g.vertices, w)
    pi = _super_source_labels(g, w)
    if pi is None:
        raise ContractViolation("graph has a negative cycle; no potential exists")
    return pi


def oracle_treedepth(g: Graph, limit: int = 10) -> int:
    """Exact tree-depth by recursive vertex deletion over connected
    components.  Refuses graphs larger than ``limit``."""
    if g.n > limit:
        raise InputError(f"tree-depth oracle is limited to {limit} vertices")
    neighbors = {v: frozenset(g.neighbors(v)) for v in g.vertices}
    memo = {}

    def components(vs):
        seen = set()
        comps = []
        for start in vs:
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                v = queue.pop()
                for u in neighbors[v]:
                    if u in vs and u not in comp:
                        comp.add(u)
                        queue.append(u)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def td(vs):
        if not vs:
            return 0
        if vs in memo:
            return memo[vs]
        comps = components(vs)
        if len(comps) > 1:
            result = max(td(c) for c in comps)
        elif len(vs) == 1:
            result = 1
        else:
            result = 1 + min(td(vs - {v}) for v in vs)
        memo[vs] = result
        return result

    return td(frozenset(g.vertices))
