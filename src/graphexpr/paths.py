"""Vertex-weighted shortest paths on directed expressions: negative cycle
detection and all-pairs distances.

Every handler keeps two things alive while folding the expression:

* a *shortest-path feasible potential* -- the distances from a virtual
  source wired to every vertex with zero-cost edges, taken under the
  edge-shifted costs ``cost((x, y)) = w(x)``.  Feasibility (all reduced edge
  costs non-negative) is what lets the incremental steps run Dijkstra
  instead of Bellman-Ford (an inc over a child without vertices runs none).
  An inc evaluates the child's edge-bearing parts, the runs of the order
  that the fold hands it, into sparse adjacency lists, which hold only
  vertices with edges, and its two searches queue only such vertices, so
  their cost follows the child's edges and x's own, not the number of
  child vertices without edges;
* ``msp``, the minimum total weight over all paths including single
  vertices, which is exactly the vertex weight that a substituted module
  contributes to paths passing through it.

Substitution reduces to the pattern graph reweighted with the children's
msp values: that small graph has a negative cycle iff the substituted graph
does, and its distance matrix provides both the new msp and the pieces of
the distance composition.  A disjoint union (a union node, a substitution
or subst-td into a pattern without edges, or an inc without edges over
vertices, which the fold hands to the union handler) needs no Floyd: every
shift is zero, and the msp is the least of the parts' (``_ncd_union``,
``_apsp_union``); for the all-pairs problem it is one module over all its
parts, without pattern rows.  For the all-pairs problem, substitution
nodes keep distances at pattern granularity (ModuleSummary) and are
expanded to full pairwise distances (FullSummary) only when a
vertex-addition node or the root needs them; the expansion walks the
substitution spine top-down with the classic "cheapest detour that leaves
this module" values.  All distances are dense rows (a
DistView reads them by ``(u, v)``): pattern distances in pattern order,
full distances in the vertex order of ``min_out`` (children in pattern
order, an added vertex last), so each spine node's vertices form one
contiguous block.  The rows start as inf, and the expansion writes only
the row segments between two modules whose connector (the cheaper of the
pattern route and the detour) is finite; an inc recomputes only the rows of
vertices that reach the added one.  So beyond the n^2 prefill, the work
follows the pairs that can be finite.

Substitution summaries keep their per-vertex maps -- the potential, and
for APSP the exits and entries ``min_out``/``min_in`` -- as *shifted
unions*: plain tuples ``(child map, shift, child map, shift, ...)``, one
pair per pattern vertex, so a substitution or a union costs O(pattern
order) resp. O(parts) however large its children are, and a left-deep
chain of r substitutions costs O(r) instead of O(r^2).  An NCD vertex
leaf's potential is its bare name, which stands for ``{name: 0.0}``, so a
leaf costs no dict.  The one reader of these maps is ``potential_dict``,
an iterative walk that adds up the shifts on the way down; it runs only
where values are read: at an inc node (``_inc_core``), in the
``--verify`` checker, and at the root, where the outcomes return plain
dicts and the expansion (``to_full_summary``) reads the exits and entries
once for all its levels.
A negative cycle test reads no potential at the root (``_ncd_fold``).

A negative cycle answers the whole problem: ``_inc_core`` and the pattern
Floyd ``_pattern_rows`` raise ``framework.Verdict(NEGATIVE_CYCLE)``, which
ends the fold, so no handler is handed a negative cycle as a child.

The solvers reject weights for which ``_OVERFLOW_SLACK * n * max |w|`` is
not a finite float, so no path sum or potential difference overflows.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import cached_property

from . import framework
from .errors import ContractViolation, InputError, VerificationError
from .expr import Expression, _valid_names, evaluate_node
from .expr import evaluate, normalize, validate_or_raise  # noqa: F401  (no caller here; perfbench/tracing.py wraps the names)
from .framework import HandlerSet, Verdict, fold_td_expression
from .graphs import (
    DIRECTED,
    INF,
    NEGATIVE_CYCLE,
    TOL,
    DistView,
    Graph,
    check_potential,
    check_total_weights,
    edge_shift,
    floyd_vertex_weighted,
    is_negative_cycle,
)

# Rounding-error allowance per weight summed, in units of eps * max |w|.
_ROUNDING_SLACK = 4
# Headroom for the sums a solve computes, in units of n * max |w| (the
# most a path weight or a potential can be in magnitude): a Dijkstra label
# is a path weight minus a potential difference, a pattern cycle test adds
# two distances and takes off two msps, and the expansion adds shifts and
# detours of the same size.
_OVERFLOW_SLACK = 8

# ---------------------------------------------------------------------------
# Summary types


def potential_dict(pi) -> dict:
    """A per-vertex map (potential, exits or entries) as a plain dict: ``pi``
    itself when it is a dict, else a fresh dict filled from the vertex name
    ``pi``, read as ``{pi: 0.0}``, or from the shifted union ``pi``, a tuple
    ``(map, shift, map, shift, ...)`` whose maps are dicts, names or shifted
    unions.  The walk is iterative (chains are far deeper than the recursion
    limit), with one cursor per nesting level, so a dict or a name costs no
    push, and visits the parts in pattern order.  Every value is ``val +
    shift``, a shift of 0.0 included, so -0.0 reads as 0.0."""
    if isinstance(pi, dict):
        return pi
    if isinstance(pi, str):
        return {pi: 0.0}
    out = {}
    stack = [(iter(pi), 0.0)]  # per level, its cursor and its total shift
    while stack:
        parts, acc = stack[-1]
        for p in parts:
            shift = acc + next(parts)
            if isinstance(p, tuple):
                stack.append((iter(p), shift))
                break
            if isinstance(p, str):
                out[p] = 0.0 + shift
                continue
            for v, val in p.items():
                out[v] = val + shift
        else:
            stack.pop()
    return out


def _shifted_union(children, shift, field):
    """The children's ``field`` maps, each shifted by the ``shift`` entry of
    its pattern vertex, as a shifted union; the children are not copied."""
    parts = []
    for (_, s), d in zip(children, shift):
        parts += (getattr(s, field), d)
    return tuple(parts)


@dataclass(slots=True)
class NcdSummary:
    """Negative-cycle-detection summary: feasible potential + msp.

    ``potential`` is a dict, a vertex leaf's bare name, or a shifted union
    on substitution nodes: ``potential_dict`` reads each as a dict."""

    potential: dict | tuple | str
    msp: float


@dataclass
class FullSummary:
    """All pairwise distances are known (vertex-addition nodes, leaves):
    ``rows[i][j]`` is the distance from the i-th to the j-th vertex in the key
    order of ``min_out`` and ``min_in``, and ``dist`` maps ``(u, v)`` to it.
    ``potential`` is a dict, or the shifted union of an expanded
    ModuleSummary."""

    potential: dict | tuple
    msp: float
    min_out: dict
    min_in: dict
    rows: list

    @property
    def n(self):
        return len(self.rows)

    @cached_property
    def dist(self):
        return DistView(self.min_out, self.rows)


@dataclass
class ModuleSummary:
    """Distances known at pattern granularity (substitution nodes).

    ``children`` holds ``(pattern vertex, child summary)`` pairs, kept for
    the expansion to a FullSummary, and every per-pattern field follows
    their order: ``rows`` are the distances in the pattern reweighted with
    ``omega`` (the child msps), and ``out_shift``/``in_shift`` come from
    ``_shift``.  ``min_out``, ``min_in`` and ``potential`` are shifted
    unions over the children's: exits shift by the out-shift, entries and
    potential by the in-shift.  ``n`` counts the vertices.  A disjoint
    union (``_apsp_union``) has no ``rows`` or ``omega`` (None) and zero
    shifts.
    """

    potential: tuple
    msp: float
    min_out: tuple
    min_in: tuple
    rows: list
    omega: list
    out_shift: list
    in_shift: list
    children: tuple
    n: int


# ---------------------------------------------------------------------------
# Primitives


def _dijkstra_labels(adjacency, w, pi, sources, tol, forward=True):
    """Dijkstra under the feasible potential ``pi`` of the edge-shifted
    costs ``cost((a, b)) = w(a)``, from ``sources``, a map of vertices to
    (possibly negative) initial labels.  Forward, it follows the out-lists
    ``adjacency[v]`` under the reduced costs ``w(v) + pi(v) - pi(u)``;
    backward, the in-lists under ``w(u) + pi(u) - pi(v)`` of the edges
    ``(u, v)``.  The reduced costs must be non-negative up to ``tol``.

    A vertex without an adjacency list is labelled but never queued, so the
    search touches only vertices with edges and the ones they reach.
    Returns a label for each source and each vertex it reaches; unreached
    vertices have none (read them with ``dist.get(v, INF)``)."""
    dist = dict(sources)
    heap = [(lab, v) for v, lab in dist.items() if v in adjacency]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v] + tol:
            continue
        pi_v = pi[v]
        for u in adjacency[v]:
            rc = w[v] + pi_v - pi[u] if forward else w[u] + pi[u] - pi_v
            if rc < -tol:
                tail, head = (v, u) if forward else (u, v)
                raise ContractViolation(
                    f"negative reduced cost on edge ({tail!r}, {head!r}): potential not feasible"
                )
            nd = d + (rc if rc > 0.0 else 0.0)
            if nd < dist.get(u, INF):
                dist[u] = nd
                if u in adjacency:
                    heapq.heappush(heap, (nd, u))
    return dist


def _inc_core(f, x, in_names, out_names, order, runs, w, tol):
    """Shared machinery for adding vertex ``x`` to the graph of the child
    subexpression, given as its edge-bearing parts, the ``[start, stop)``
    ``runs`` of ``order`` (``framework.HandlerSet``; in the main tree and
    in tree-depth pattern replays alike), whose summary ``f`` holds a
    shortest-path feasible potential.
    The parts are evaluated here into sparse out- and in-adjacency lists;
    the folds never call it on a child without vertices.  One search
    (``_dijkstra_labels``) runs forward from x's out-names and one backward
    from its in-names; each queues only vertices with edges, so in the
    searches a child vertex without edges costs a label at most, and only
    where x has an edge to it.

    Returns ``(new_potential, msp, pi, fwd, bwd)``: the child's potential
    as a dict, and the Dijkstra labels of the vertices reached from x resp.
    reaching x, under reduced costs.  The new potential is a copy of ``pi``
    in which only the vertices reached from x are lowered.  A negative
    cycle through x raises ``Verdict(NEGATIVE_CYCLE)``, which ends the fold.
    """
    wx = w[x]
    pi = potential_dict(f.potential)
    _, adj_out, adj_in = evaluate_node(order, DIRECTED, runs)

    # labels from x under reduced edge-shifted costs; the only potentially
    # negative costs are the first hops, folded into the initial labels
    fwd = _dijkstra_labels(adj_out, w, pi, {u: wx - pi[u] for u in out_names}, tol)

    # a new negative cycle must run x -> ... -> u -> x for an in-neighbor u
    for u in in_names:
        if u in fwd and fwd[u] + pi[u] + w[u] < -tol:
            raise Verdict(NEGATIVE_CYCLE)

    bwd = _dijkstra_labels(adj_in, w, pi, {u: w[u] + pi[u] for u in in_names}, tol, forward=False)

    # cheapest arrival value at x for the virtual super-source: either enter
    # at x directly (0) or enter the child graph and walk to an in-neighbor
    entry = min([0.0] + [pi[u] + w[u] for u in in_names])

    new_pi = dict(pi)
    for v, d in fwd.items():
        if entry + d < 0.0:
            new_pi[v] = pi[v] + (entry + d)
    new_pi[x] = entry

    # minimum path through x = best arrival + best departure, x counted once
    best_from = min(min((d + pi[v] + w[v] for v, d in fwd.items()), default=INF), wx)
    best_to = min(min((d - pi[v] + wx for v, d in bwd.items()), default=INF), wx)
    msp_x = best_to + best_from - wx
    return new_pi, min(f.msp, msp_x), pi, fwd, bwd


# ---------------------------------------------------------------------------
# Negative cycle detection handlers


def ncd_inc(f, x, in_names, out_names, order, runs, w, tol):
    return NcdSummary(*_inc_core(f, x, in_names, out_names, order, runs, w, tol)[:2])


def _shift(lines, omega):
    """Per pattern vertex p, the minimum of p's line of pattern distances
    minus ``omega[p]``: what the cheapest pattern path starting (over the
    rows: the out-shift) resp. ending at p (over the columns ``zip(*rows)``:
    the in-shift) adds to p's own msp, 0 for p alone.  The in-shift is the
    pattern's shortest-path potential."""
    return [m - om for m, om in zip(map(min, lines), omega)]


def _pattern_rows(pattern_graph, children, tol):
    """The distance rows of the pattern weighted by the child msps; a
    negative cycle in it is one in the substituted graph, and a Verdict."""
    D = floyd_vertex_weighted(pattern_graph, {name: s.msp for name, s in children}, tol)
    if is_negative_cycle(D):
        raise Verdict(NEGATIVE_CYCLE)
    return D.rows


def _ncd_union(vals):
    """Disjoint union of NCD summaries: zero shifts, the least msp."""
    potential = []
    for s in vals:
        potential += (s.potential, 0.0)
    return NcdSummary(tuple(potential), min([s.msp for s in vals]))


def ncd_subst(pattern_graph, children, tol):
    """Floyd on the pattern weighted by the child msps; the pattern
    potential shifts each child's potential, in O(pattern order)."""
    rows = _pattern_rows(pattern_graph, children, tol)
    pi_h = _shift(zip(*rows), [s.msp for _, s in children])
    return NcdSummary(_shifted_union(children, pi_h, "potential"), min(map(min, rows)))


def ncd_subst_td(pattern_order, children, tol):
    """Same contract as ncd_subst, but the pattern summary is computed by
    replaying the pattern's tree-depth expression with the NCD handlers
    over the pattern reweighted with the child msps."""
    inner = fold_td_expression(pattern_order, ncd_handlers({p: s.msp for p, s in children}, tol))
    pi_h = potential_dict(inner.potential)
    shift = [pi_h[p] for p, _ in children]
    return NcdSummary(_shifted_union(children, shift, "potential"), inner.msp)


# ---------------------------------------------------------------------------
# All-pairs handlers


def _full_singleton(name, weight):
    return FullSummary({name: 0.0}, weight, {name: weight}, {name: weight}, [[weight]])


def to_full_summary(s: ModuleSummary) -> FullSummary:
    """Expand pattern-level distances to all pairwise distances in O(n^2).

    Walks the substitution spine top-down.  ``c`` is the cheapest weight of a
    walk that leaves the current node's vertex set and comes back (excluding
    the endpoints' modules), infinite at the root.  A pair in different
    modules p and q of a spine node either stays inside that node (child
    exit + pattern distance + child entry) or uses the detour ``c``; the
    cheaper of the two, without the child exit and entry, is the connector
    ``k_pq``.  A node writes only the row segments of its block whose
    connector is finite; the rest stay at the prefilled inf, so a module
    that reaches no other costs O(1).  The parts of a disjoint union meet
    by the detour alone: under a finite ``c`` each row of a part gets two
    segments, the union's columns before the part's block and after it,
    and under an infinite one the parts are only pushed.  A pair inside a
    non-substitution spine leaf is finished from its full matrix, which is
    copied as it is when ``c`` is inf.  The root's exits and entries are
    read once; a child's own are the root's less the out- resp. in-shifts
    above the child, carried next to ``c``.
    """
    min_out, min_in = potential_dict(s.min_out), potential_dict(s.min_in)
    exits, entries = list(min_out.values()), list(min_in.values())
    n = s.n
    rows = [[INF] * n for _ in range(n)]
    stack = [(s, INF, 0, 0.0, 0.0)]
    while stack:
        node, c, start, up_out, up_in = stack.pop()
        if not isinstance(node, ModuleSummary):
            if c == INF:
                for r, row in enumerate(node.rows, start):
                    rows[r][start : start + len(row)] = row
                continue
            stop = start + node.n
            ins = list(node.min_in.values())
            for r, row, out in zip(range(start, stop), node.rows, node.min_out.values()):
                t = out + c
                rows[r][start:stop] = [a if a < t + b else t + b for a, b in zip(row, ins)]
            continue
        if node.rows is None:  # a disjoint union: its parts meet by the detour only
            k, stop = c - (up_out + up_in), start + node.n
            ks = [k + b for b in entries[start:stop]] if k < INF else None
            first = start
            for _, child in node.children:
                last = first + child.n
                if ks:  # the columns before the part and after it
                    before, after = ks[: first - start], ks[last - start :]
                    for r, du in enumerate(exits[first:last], first):
                        row = rows[r]
                        row[start:first] = [du + b for b in before]
                        row[last:stop] = [du + b for b in after]
                stack.append((child, c, first, up_out, up_in))
                first = last
            continue
        D, om = node.rows, node.omega
        out_shift, in_shift = node.out_shift, node.in_shift
        children = [child for _, child in node.children]
        firsts = []  # first row of each child's block, in pattern order
        stop = start
        for child in children:
            firsts.append(stop)
            stop += child.n
        for p, child in enumerate(children):
            first, up_p = firsts[p], up_out + out_shift[p]
            # u in module p reaches v in module q inside this node (child
            # exit, pattern path, child entry) or by the detour c; both
            # routes add the child exit of u and the child entry of v
            segments, cyc = [], INF  # (first column, connector + entries)
            for q, other in enumerate(children):
                if q != p:
                    k = D[p][q] - om[p] - om[q]
                    cyc = min(cyc, k + D[q][p])
                    detour = out_shift[p] + c + in_shift[q]
                    k = k if k < detour else detour
                    if k < INF:
                        col = firsts[q]
                        k -= up_p + up_in + in_shift[q]
                        segments.append((col, [k + b for b in entries[col : col + other.n]]))
            if segments:
                for r, du in enumerate(exits[first : first + child.n], first):
                    row = rows[r]
                    for col, ks in segments:
                        row[col : col + len(ks)] = [du + b for b in ks]
            # cheapest way out of module p and back: a pattern cycle through
            # p, or leaving the whole node (detour c), module p not counted
            escape = out_shift[p] + c + in_shift[p]
            stack.append((child, min(cyc - om[p], escape), first, up_p, up_in + in_shift[p]))
    return FullSummary(s.potential, s.msp, min_out, min_in, rows)


def apsp_inc(f, x, in_names, out_names, order, runs, w, tol):
    new_pi, msp, pi, fwd, bwd = _inc_core(f, x, in_names, out_names, order, runs, w, tol)
    # expand the child only once x is known to close no negative cycle
    if isinstance(f, ModuleSummary):
        f = to_full_summary(f)
    wx = w[x]
    names = list(f.min_out)
    # distances from and to x; inf where the search did not reach
    from_x = [fwd[v] + pi[v] + w[v] if v in fwd else INF for v in names]
    to_x = [bwd[v] - pi[v] + wx if v in bwd else INF for v in names]
    # a path either avoids x or passes through it; the -w(x) undoes the
    # double count of x shared by the two halves
    rows = []
    for row, dtx in zip(f.rows, to_x):
        if dtx == INF:  # v does not reach x: no path through x
            rows.append(row + [INF])
            continue
        t = dtx - wx
        new = [a if a < t + b else t + b for a, b in zip(row, from_x)]
        new.append(dtx)
        rows.append(new)
    from_x.append(wx)
    rows.append(from_x)
    names.append(x)
    min_out = dict(zip(names, map(min, rows)))
    min_in = dict(zip(names, map(min, zip(*rows))))
    return FullSummary(new_pi, msp, min_out, min_in, rows)


def _assemble_module(children, rows):
    """Module summary of a substitution from the pattern distance ``rows``
    under the child msps, both in the order of ``children``: a child's
    exits shift by its module's out-shift, its entries and potential by the
    in-shift.  Nothing is copied."""
    omega = [s.msp for _, s in children]
    out_shift, in_shift = _shift(rows, omega), _shift(zip(*rows), omega)
    return ModuleSummary(
        _shifted_union(children, in_shift, "potential"),
        min(map(min, rows)),
        _shifted_union(children, out_shift, "min_out"),
        _shifted_union(children, in_shift, "min_in"),
        rows,
        omega,
        out_shift,
        in_shift,
        tuple(children),
        sum(s.n for _, s in children),
    )


def _apsp_union(parts):
    """Disjoint union of APSP summaries: one module over all the parts, with
    zero shifts and no pattern rows (``rows`` is None), as no path joins two
    parts."""
    children = tuple((None, s) for s in parts)
    zeros = [0.0] * len(parts)
    return ModuleSummary(
        _shifted_union(children, zeros, "potential"),
        min([s.msp for s in parts]),
        _shifted_union(children, zeros, "min_out"),
        _shifted_union(children, zeros, "min_in"),
        None,
        None,
        zeros,
        zeros,
        children,
        sum(s.n for s in parts),
    )


def apsp_subst(pattern_graph, children, tol):
    """Floyd on the pattern weighted by the child msps, then the module
    summary."""
    return _assemble_module(children, _pattern_rows(pattern_graph, children, tol))


def apsp_subst_td(pattern_order, children, tol):
    """Same contract as apsp_subst; the pattern's all-pairs distances come
    from replaying its tree-depth expression with the all-pairs handlers
    over the pattern reweighted with the child msps."""
    inner = fold_td_expression(pattern_order, apsp_handlers({p: s.msp for p, s in children}, tol))
    if isinstance(inner, ModuleSummary):
        inner = to_full_summary(inner)
    by_name = dict(children)
    return _assemble_module([(p, by_name[p]) for p in inner.min_out], inner.rows)


# ---------------------------------------------------------------------------
# Solvers


def _gate(e: Expression, w: dict, problem: str, handlers, verify):
    """Validate ``e``, check ``w`` against its vertex names and fold ``e``
    with ``handlers(used, tol)`` (and ``make_paths_verifier`` if
    ``verify``), where ``used`` holds the weights of the names only and
    ``tol`` is ``solve_tolerance(used)``.  Every weight must be finite, and
    so must _OVERFLOW_SLACK * n * max |w|, so that no path sum or potential
    difference overflows; ``check_total_weights`` words a failure."""
    if e.mode != DIRECTED:
        raise InputError(f"{problem} requires a directed expression")
    used = {v: w.get(v, INF) for v in _valid_names(e)}
    if not math.isfinite(sum(used.values())):  # a weight missing or not finite, or a huge sum
        check_total_weights(used, w)
    scale = max(map(abs, used.values()), default=0.0)
    if not math.isfinite(_OVERFLOW_SLACK * len(used) * scale):
        raise InputError(
            f"weights too large: path sums over {len(used)} vertices of weight "
            f"up to {scale:g} in magnitude overflow a float"
        )
    tol = _tolerance(len(used), scale)
    checker = make_paths_verifier(used, tol) if verify else None
    return framework.fold(e, handlers(used, tol), verify=checker)


def solve_tolerance(w: dict) -> float:
    """Tolerance of the feasibility and cycle tests of a solve under ``w``:
    TOL, or the rounding error that sums of up to len(w) weights can carry,
    whichever is larger.  An absolute TOL falls under float resolution at
    large weights; a tolerance sized to rounding still finds a cycle that is
    negative by more than that, however large the other weights are.  The
    solvers pass only the weights of the expression's names, so a weight
    that no vertex uses cannot widen it."""
    return _tolerance(len(w), max(map(abs, w.values()), default=0.0))


def _tolerance(n, scale):
    """``solve_tolerance`` of n weights at most ``scale`` in magnitude."""
    return max(TOL, _ROUNDING_SLACK * n * sys.float_info.epsilon * scale)


def ncd_handlers(w: dict, tol: float) -> HandlerSet:
    return HandlerSet(
        base_empty=lambda: NcdSummary({}, INF),
        base_vertex=lambda name: NcdSummary(name, w[name]),
        on_inc=lambda *inc: ncd_inc(*inc, w, tol),
        on_subst=lambda pg, children: ncd_subst(pg, children, tol),
        on_subst_td=lambda po, children: ncd_subst_td(po, children, tol),
        on_union=_ncd_union,
    )


def apsp_handlers(w: dict, tol: float) -> HandlerSet:
    return HandlerSet(
        base_empty=lambda: FullSummary({}, INF, {}, {}, []),
        base_vertex=lambda name: _full_singleton(name, w[name]),
        on_inc=lambda *inc: apsp_inc(*inc, w, tol),
        on_subst=lambda pg, children: apsp_subst(pg, children, tol),
        on_subst_td=lambda po, children: apsp_subst_td(po, children, tol),
        on_union=_apsp_union,
    )


def _ncd_fold(e: Expression, w: dict, verify=False):
    """``ncd_outcome`` without reading the root's potential, which may stay
    a shifted union: for the callers that need only the verdict and msp."""
    return _gate(e, w, "negative cycle detection", ncd_handlers, verify)


def ncd_outcome(e: Expression, w: dict, *, verify=False):
    """Fold the expression with the NCD handlers.  Returns
    ``(NcdSummary | NEGATIVE_CYCLE, FoldStats)``; the summary's potential is
    a dict."""
    value, stats = _ncd_fold(e, w, verify)
    if not is_negative_cycle(value):
        value = NcdSummary(potential_dict(value.potential), value.msp)
    return value, stats


def detect_negative_cycle(e: Expression, w: dict, *, verify=False) -> bool:
    """True iff the evaluated graph contains a cycle of negative total
    vertex weight."""
    return is_negative_cycle(_ncd_fold(e, w, verify)[0])


def apsp_outcome(e: Expression, w: dict, *, verify=False):
    """Fold with the all-pairs handlers and expand the root to a
    FullSummary.  Returns ``(FullSummary | NEGATIVE_CYCLE, FoldStats)``; the
    summary's potential is a dict."""
    value, stats = _gate(e, w, "all-pairs shortest paths", apsp_handlers, verify)
    if isinstance(value, ModuleSummary):
        value = to_full_summary(value)
    if not is_negative_cycle(value):
        value.potential = potential_dict(value.potential)
    return value, stats


def all_pairs(e: Expression, w: dict, *, verify=False):
    """Full vertex-weighted distance matrix of the evaluated graph, as a
    read-only ``(u, v) -> distance`` mapping, or NEGATIVE_CYCLE."""
    value, _ = apsp_outcome(e, w, verify=verify)
    return value if is_negative_cycle(value) else value.dist


# ---------------------------------------------------------------------------
# Debug-mode verification

_VERIFY_FLOYD_LIMIT = 64
# least tolerance of a distance compared against a reference, by the
# verifier and by ``graphexpr check apsp``
_COMPARE_TOL = 1e-6


def make_paths_verifier(w: dict, solve_tol: float):
    """Checker for ``--verify`` runs: every emitted potential must be
    feasible on the node's materialized subgraph, and on small subgraphs the
    summary values are compared against an independent Floyd run.  A
    negative-cycle verdict is checked the same way, once, on the subgraph
    of the node whose handler reported it."""
    tol = max(_COMPARE_TOL, solve_tol)

    def close(a, b):  # an infinite distance is close to itself only
        return a == b or abs(a - b) <= tol

    def check(path, node, value, sub: Graph):
        wr = {v: w[v] for v in sub.vertices}
        if is_negative_cycle(value):
            if sub.n <= _VERIFY_FLOYD_LIMIT:
                if not is_negative_cycle(floyd_vertex_weighted(sub, wr, solve_tol)):
                    raise VerificationError(
                        f"{path}: handler reported a negative cycle, subgraph has none"
                    )
            return
        costs = edge_shift(sub, wr)
        if not check_potential(sub, costs, potential_dict(value.potential), solve_tol):
            raise VerificationError(
                f"{path}: emitted potential is not feasible on the node subgraph"
            )
        if sub.n > _VERIFY_FLOYD_LIMIT:
            return
        if isinstance(value, ModuleSummary):
            value = to_full_summary(value)
        ref = floyd_vertex_weighted(sub, wr, solve_tol)
        if is_negative_cycle(ref):
            raise VerificationError(
                f"{path}: subgraph has a negative cycle but the handler returned a summary"
            )
        msp_ref = min(ref.values(), default=INF)
        if not close(value.msp, msp_ref):
            raise VerificationError(
                f"{path}: msp {value.msp} differs from reference {msp_ref}"
            )
        if isinstance(value, FullSummary):
            for u in value.min_out:
                ref_out = min(ref[(u, v)] for v in sub.vertices)
                ref_in = min(ref[(v, u)] for v in sub.vertices)
                if not (close(value.min_out[u], ref_out) and close(value.min_in[u], ref_in)):
                    raise VerificationError(
                        f"{path}: per-vertex min distances disagree with reference at {u!r}"
                    )
            for pair, val in value.dist.items():
                if not close(val, ref[pair]):
                    raise VerificationError(
                        f"{path}: distance {pair} = {val} differs from reference {ref[pair]}"
                    )

    return check
