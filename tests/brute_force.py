"""Brute-force references that only the tests use.

Like the references in ``graphexpr.oracle`` they are independent of the
solvers they check: a potential by Bellman-Ford from a virtual source,
tree-depth by exhaustive vertex deletion, the front end's walk by merging
one name set per subtree.
"""

from graphexpr import DIRECTED, ContractViolation, Graph, InputError
from graphexpr.expr import (
    TD_NODE_TYPES,
    Empty,
    Inc,
    Join,
    Params,
    Subst,
    SubstTd,
    Union,
    Vertex,
    Violation,
    _check_bindings,
    _check_pattern,
    locator,
)
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


def scan_by_name_sets(order):
    """What ``graphexpr.expr._scan`` returns for the tree of ``order``,
    computed the plain way: ``(vertex names, violations, Params, fold
    stats)`` from one name set per subtree and inc nesting bottom-up, and
    h, l as running maxima; the fold stats are ``framework.FoldStats``'s
    fields, under the rules of ``framework.fold``.  One loop over an order
    keeps a stack of name sets and one of inc nestings; a tree-depth
    pattern is walked by the same loop over its ``pattern_order`` with
    ``td_only``, and its stats dropped.  A node merges its children's sets
    largest first, and reports the names a set shares with those merged
    before it, sorted."""
    violations = []
    h = l = 0

    def walk(order, label, td_only):
        nonlocal h, l
        locate = locator(order, label)
        sets, ks = [], []  # per finished subtree: its names, its inc nesting
        n_vertex = n_empty = n_inc = n_subst = n_subst_td = sum_pattern_order = steps = 0

        def bad(at, message):
            violations.append(Violation(locate(i), message, getattr(at, "pos", None)))

        for i, (node, c) in enumerate(zip(order.nodes, order.counts)):
            t = type(node)
            if td_only and t not in TD_NODE_TYPES:
                bad(node, "pattern is not a tree-depth expression (join/subst not allowed)")
            if t is Vertex or t is Empty:
                n_vertex += t is Vertex
                sets.append({node.name} if t is Vertex else set())
                ks.append(0)
                continue
            if t is Inc:
                names = sets[-1]
                n_inc, n_empty = n_inc + 1, n_empty + (not names)
                if not (node.in_names <= names and node.out_names <= names):
                    for target in sorted(node.neighbor_names):
                        if target not in names:
                            bad(node, f"unknown inc target {target!r}")
                if node.name in names:
                    bad(node, f"duplicate vertex name {node.name!r}")
                names.add(node.name)
                ks[-1] += 1
                continue
            top = len(sets) - c
            kids, k = sets[top:], max(ks[top:], default=0)
            del sets[top:], ks[top:]
            if t is Union or t is Join:
                if c < 2:
                    bad(node, "union/join needs at least two children")
                r = c if all(kids) else sum(map(bool, kids))  # the children with vertices
                steps += r - 1 if r > 1 else 0
            elif t is Subst:
                pattern = node.pattern
                for message in _check_pattern(pattern):
                    bad(pattern, message)
                for message in _check_bindings(node, pattern.names, kids):
                    bad(node, message)
                n_subst += 1
                sum_pattern_order += len(pattern.names)
                if not td_only and len(pattern.names) > h:
                    h = len(pattern.names)
            elif t is SubstTd:
                pattern_names, depth, _ = walk(
                    node.pattern_order, lambda i=i: locate(i) + "/pattern", True
                )
                pattern_names = sorted(pattern_names)
                if len(pattern_names) < 2:
                    bad(node, "subst-td pattern has fewer than two vertices")
                for message in _check_bindings(node, pattern_names, kids):
                    bad(node, message)
                n_subst_td += 1
                sum_pattern_order += len(node.bindings)  # one per pattern vertex, once valid
                if not td_only:
                    l = max(l, depth)
            else:  # a leaf, as post_order counts no children for it
                bad(node, f"unknown node type {t.__name__}")
            # merge into the largest set; a name in two children is a duplicate
            parts = sorted(kids, key=len, reverse=True)
            names = parts[0] if parts else set()
            for part in parts[1:]:
                if not names.isdisjoint(part):
                    for nm in sorted(part & names):
                        bad(node, f"duplicate vertex name {nm!r}")
                names |= part
            sets.append(names)
            ks.append(k)
        names, k, n_empty = sets[0], ks[0], n_empty + (not sets[0])
        counts = dict(
            vertex=n_vertex, empty=n_empty, inc=n_inc, subst=n_subst + steps, subst_td=n_subst_td
        )
        stats = (
            {kind: n for kind, n in counts.items() if n}, sum_pattern_order + 2 * steps, k,
            n_vertex + n_empty, max(h, 2) if steps else h, l,
        )
        return names, k, stats

    names, k, stats = walk(order, lambda: "root", False)
    return names, violations, Params(k, h, l), stats
