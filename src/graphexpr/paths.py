"""Vertex-weighted shortest paths on directed expressions: negative cycle
detection and all-pairs distances.

Every handler keeps two things alive while folding the expression:

* a *shortest-path feasible potential* -- the distances from a virtual
  source wired to every vertex with zero-cost edges, taken under the
  edge-shifted costs ``cost((x, y)) = w(x)``.  Feasibility (all reduced edge
  costs non-negative) is what lets the incremental steps run Dijkstra
  instead of Bellman-Ford (an inc over a child without vertices runs none);
* ``msp``, the minimum total weight over all paths including single
  vertices, which is exactly the vertex weight that a substituted module
  contributes to paths passing through it.

Substitution reduces to the pattern graph reweighted with the children's
msp values: that small graph has a negative cycle iff the substituted graph
does, and its distance matrix provides both the new msp and the pieces of
the distance composition.  A pattern without edges (each step of a union)
is a disjoint union: its distances are the diagonal of child msps, every
shift is zero and no Floyd runs.  For the all-pairs problem, substitution
nodes keep distances at pattern granularity (ModuleSummary) and are
expanded to full pairwise distances (FullSummary) only when a
vertex-addition node or the root needs them; the expansion walks the
substitution spine top-down with the classic "cheapest detour that leaves
this module" values.  All
distances are dense rows (a DistView reads them by ``(u, v)``): pattern
distances in pattern order, full distances in the vertex order of
``min_out`` (children in pattern order, an added vertex last), so each
spine node's vertices form one contiguous block.  The rows start as inf,
and the expansion writes only the row segments between two modules whose
connector (the cheaper of the pattern route and the detour) is finite; an
inc recomputes only the rows of vertices that reach the added one.  So
beyond the n^2 prefill, the work follows the pairs that can be finite.

Substitution summaries keep their potential as a *shifted union*: a plain
tuple ``(child potential, shift, child potential, shift, ...)``, one pair
per pattern vertex, so a substitution costs O(pattern order) however large
its children are, and a left-deep chain of r substitutions costs O(r)
instead of O(r^2).  Its one reader is ``potential_dict``, an iterative walk
that adds up the shifts on the way down; it runs only where the values are
read: at an inc node (``_inc_core``), in the ``--verify`` checker, and at
the root, where ``ncd_outcome`` and ``apsp_outcome`` return a plain dict.
The APSP exit and entry values ``min_out``/``min_in`` stay eager dicts,
since the expansion reads each child's unshifted values.

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
from .expr import Expression, evaluate_node, validate_or_raise
from .expr import evaluate, normalize  # noqa: F401  (no caller here; perfbench/tracing.py wraps the names)
from .framework import HandlerSet, fold_td_expression
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
    """A potential as a plain dict: ``pi`` itself when it is a dict, else a
    fresh dict filled from the shifted union ``pi``, a tuple ``(potential,
    shift, potential, shift, ...)`` whose potentials are dicts or shifted
    unions.  The walk is iterative (chains are far deeper than the recursion
    limit) and visits the parts in pattern order."""
    if isinstance(pi, dict):
        return pi
    out = {}
    stack = [(pi, 0.0)]
    while stack:
        p, acc = stack.pop()
        if isinstance(p, tuple):
            # pushed last to first, so that they are visited in order
            for i in range(len(p) - 2, -1, -2):
                stack.append((p[i], acc + p[i + 1]))
        else:
            for v, val in p.items():
                out[v] = val + acc
    return out


def _shifted_potential(children, shift):
    """The children's potentials, each shifted by the ``shift`` entry of its
    pattern vertex, as a shifted union; the children are not copied."""
    parts = []
    for (_, s), d in zip(children, shift):
        parts += (s.potential, d)
    return tuple(parts)


@dataclass
class NcdSummary:
    """Negative-cycle-detection summary: feasible potential + msp.

    ``potential`` is a dict, or a shifted union (read by ``potential_dict``)
    on substitution nodes."""

    potential: dict | tuple
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
    ``_shift``.  ``min_out`` and ``min_in`` are shifted copies of
    the children's; ``potential`` is a shifted union over theirs.
    """

    potential: tuple
    msp: float
    min_out: dict
    min_in: dict
    rows: list
    omega: list
    out_shift: list
    in_shift: list
    children: tuple


# ---------------------------------------------------------------------------
# Primitives


def _dijkstra_labels(adjacency, reduced_cost, sources, tol):
    """Dijkstra with (possibly negative) initial labels and reduced edge
    costs that are non-negative up to ``tol``.  Returns a label for each
    vertex it reaches; unreached vertices have none (read them with
    ``dist.get(v, INF)``)."""
    dist = {}
    heap = []
    for v, lab in sources.items():
        if lab < dist.get(v, INF):
            dist[v] = lab
            heapq.heappush(heap, (lab, v))
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v] + tol:
            continue
        for u in adjacency[v]:
            rc = reduced_cost(v, u)
            if rc < -tol:
                raise ContractViolation(
                    f"negative reduced cost on edge ({v!r}, {u!r}): potential not feasible"
                )
            nd = d + max(rc, 0.0)
            if nd < dist.get(u, INF):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def _inc_core(pi, msp_child, x, in_names, out_names, w, child, tol):
    """Shared machinery for adding vertex ``x`` to the graph of the child
    subexpression ``child``, whose shortest-path feasible potential ``pi``
    is known.  The child is evaluated here into out- and in-adjacency
    lists, for main-tree and tree-depth pattern incs alike; a child without
    vertices (infinite msp) is neither evaluated nor searched.

    Returns NEGATIVE_CYCLE or ``(new_potential, msp, pi, fwd, bwd)``: the
    child's potential as a dict, and the Dijkstra labels of the vertices
    reached from x resp. reaching x, under reduced costs.  The new
    potential is a copy of ``pi`` in which only the vertices reached from x
    are lowered.
    """
    wx = w[x]
    if msp_child == INF:  # x is the whole graph
        return {x: 0.0}, wx, {}, {}, {}
    pi = potential_dict(pi)
    _, adj_out, adj_in = evaluate_node(child, DIRECTED)

    # labels from x under reduced edge-shifted costs; the only potentially
    # negative costs are the first hops, folded into the initial labels
    fwd = _dijkstra_labels(
        adj_out,
        lambda a, b: w[a] + pi[a] - pi[b],
        {u: wx - pi[u] for u in out_names},
        tol,
    )

    # a new negative cycle must run x -> ... -> u -> x for an in-neighbor u
    for u in in_names:
        if u in fwd and fwd[u] + pi[u] + w[u] < -tol:
            return NEGATIVE_CYCLE

    bwd = _dijkstra_labels(
        adj_in,
        lambda a, b: w[b] + pi[b] - pi[a],
        {u: w[u] + pi[u] for u in in_names},
        tol,
    )

    # cheapest arrival value at x for the virtual super-source: either enter
    # at x directly (0) or enter the child graph and walk to an in-neighbor
    entry = min((pi[u] + w[u] for u in in_names), default=0.0)
    entry = min(0.0, entry)

    new_pi = dict(pi)
    for v, d in fwd.items():
        if entry + d < 0.0:
            new_pi[v] = pi[v] + (entry + d)
    new_pi[x] = entry

    # minimum path through x = best arrival + best departure, x counted once
    best_from = min(min((d + pi[v] + w[v] for v, d in fwd.items()), default=INF), wx)
    best_to = min(min((d - pi[v] + wx for v, d in bwd.items()), default=INF), wx)
    msp_x = best_to + best_from - wx
    return new_pi, min(msp_child, msp_x), pi, fwd, bwd


# ---------------------------------------------------------------------------
# Negative cycle detection handlers


def ncd_inc(f, x, in_names, out_names, w, child, tol):
    if is_negative_cycle(f):
        return f
    core = _inc_core(f.potential, f.msp, x, in_names, out_names, w, child, tol)
    if is_negative_cycle(core):
        return core
    return NcdSummary(core[0], core[1])


def _shift(lines, omega):
    """Per pattern vertex p, the minimum of p's line of pattern distances
    minus ``omega[p]``: what the cheapest pattern path starting (over the
    rows: the out-shift) resp. ending at p (over the columns ``zip(*rows)``:
    the in-shift) adds to p's own msp, 0 for p alone.  The in-shift is the
    pattern's shortest-path potential."""
    return [m - om for m, om in zip(map(min, lines), omega)]


def _shifted(children, shift, field):
    """The union of the children's ``field`` maps, each child's values
    shifted by the ``shift`` entry of its pattern vertex."""
    out = {}
    for (_, s), d in zip(children, shift):
        for v, val in getattr(s, field).items():
            out[v] = val + d
    return out


def _ncd_union(vals):
    """Disjoint union of NCD summaries: zero shifts, the least msp."""
    for s in vals:
        if is_negative_cycle(s):
            return s
    potential = []
    for s in vals:
        potential += (s.potential, 0.0)
    return NcdSummary(tuple(potential), min([s.msp for s in vals], default=INF))


def ncd_subst(pattern_graph, children, tol):
    """Floyd on the pattern weighted by the child msps; the pattern
    potential shifts each child's potential, in O(pattern order).  A
    pattern without edges is a disjoint union (``_ncd_union``), and no
    Floyd runs."""
    if not pattern_graph.edges:
        return _ncd_union([s for _, s in children])
    for _, s in children:
        if is_negative_cycle(s):
            return s
    D = floyd_vertex_weighted(pattern_graph, {name: s.msp for name, s in children}, tol)
    if is_negative_cycle(D):
        return D
    rows = D.rows
    pi_h = _shift(zip(*rows), [s.msp for _, s in children])
    return NcdSummary(_shifted_potential(children, pi_h), min(map(min, rows)))


def ncd_subst_td(pattern_expr, children, tol):
    """Same contract as ncd_subst, but the pattern summary is computed by
    replaying the pattern's tree-depth expression with the NCD handlers
    over the pattern reweighted with the child msps."""
    for _, s in children:
        if is_negative_cycle(s):
            return s
    omega = {name: s.msp for name, s in children}
    inner = fold_td_expression(pattern_expr, ncd_handlers(omega, tol), _ncd_union)
    if is_negative_cycle(inner):
        return inner
    pi_h = potential_dict(inner.potential)
    return NcdSummary(_shifted_potential(children, [pi_h[p] for p, _ in children]), inner.msp)


# ---------------------------------------------------------------------------
# All-pairs handlers


def _full_singleton(name, weight):
    return FullSummary({name: 0.0}, weight, {name: weight}, {name: weight}, [[weight]])


def _merge_full(vals):
    if any(map(is_negative_cycle, vals)):
        return NEGATIVE_CYCLE
    potential, min_out, min_in, rows = {}, {}, {}, []
    n = sum(len(v.rows) for v in vals)
    for v in vals:
        potential.update(v.potential)
        min_out.update(v.min_out)
        min_in.update(v.min_in)
        # no path joins two parts: their blocks are infinite
        before, after = [INF] * len(rows), [INF] * (n - len(rows) - len(v.rows))
        rows += [before + row + after for row in v.rows]
    msp = min((v.msp for v in vals), default=INF)
    return FullSummary(potential, msp, min_out, min_in, rows)


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
    that reaches no other (every module of a union whose detour is inf)
    costs O(1).  A pair inside a non-substitution spine leaf is finished
    from its full matrix, which is copied as it is when ``c`` is inf.
    """
    n = len(s.min_out)
    rows = [[INF] * n for _ in range(n)]
    stack = [(s, INF, 0)]
    while stack:
        node, c, start = stack.pop()
        if not isinstance(node, ModuleSummary):
            if c == INF:
                for r, row in enumerate(node.rows, start):
                    rows[r][start : start + len(row)] = row
                continue
            stop = start + len(node.rows)
            ins = list(node.min_in.values())
            for r, row, out in zip(range(start, stop), node.rows, node.min_out.values()):
                t = out + c
                rows[r][start:stop] = [a if a < t + b else t + b for a, b in zip(row, ins)]
            continue
        D, om = node.rows, node.omega
        out_shift, in_shift = node.out_shift, node.in_shift
        children = [child for _, child in node.children]
        firsts = []  # first row of each child's block, in pattern order
        stop = start
        for child in children:
            firsts.append(stop)
            stop += len(child.min_in)
        entries = {}  # q -> child q's entry values, built on first use
        for p, child in enumerate(children):
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
                        ins = entries.get(q)
                        if ins is None:
                            ins = entries[q] = list(other.min_in.values())
                        segments.append((firsts[q], [k + b for b in ins]))
            first = firsts[p]
            if segments:
                for r, du in enumerate(child.min_out.values(), first):
                    row = rows[r]
                    for col, ks in segments:
                        row[col : col + len(ks)] = [du + b for b in ks]
            # cheapest way out of module p and back: a pattern cycle through
            # p, or leaving the whole node (detour c), module p not counted
            escape = out_shift[p] + c + in_shift[p]
            stack.append((child, min(cyc - om[p], escape), first))
    return FullSummary(s.potential, s.msp, s.min_out, s.min_in, rows)


def apsp_inc(f, x, in_names, out_names, w, child, tol):
    if is_negative_cycle(f):
        return f
    core = _inc_core(f.potential, f.msp, x, in_names, out_names, w, child, tol)
    if is_negative_cycle(core):
        return core
    # expand the child only once x is known to close no negative cycle
    if isinstance(f, ModuleSummary):
        f = to_full_summary(f)
    new_pi, msp, pi, fwd, bwd = core
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


def _assemble_module(children, rows, shifts=None):
    """Module summary of a substitution from the pattern distance ``rows``
    under the child msps, both in the order of ``children``: a child's
    exits shift by its module's out-shift, its entries and potential by the
    in-shift.  Only the exits and entries are copied.  ``shifts`` gives the
    out- and in-shifts when they are known without reading ``rows``."""
    omega = [s.msp for _, s in children]
    if shifts is None:
        shifts = _shift(rows, omega), _shift(zip(*rows), omega)
    out_shift, in_shift = shifts
    return ModuleSummary(
        _shifted_potential(children, in_shift),
        min(map(min, rows)),
        _shifted(children, out_shift, "min_out"),
        _shifted(children, in_shift, "min_in"),
        rows,
        omega,
        out_shift,
        in_shift,
        tuple(children),
    )


def apsp_subst(pattern_graph, children, tol):
    """Floyd on the pattern weighted by the child msps, then the module
    summary.  A pattern without edges is a disjoint union: its distances
    are the diagonal of child msps, all shifts are zero, and no Floyd
    runs."""
    for _, s in children:
        if is_negative_cycle(s):
            return s
    if not pattern_graph.edges:
        rows = [[INF] * len(children) for _ in children]
        for i, (_, s) in enumerate(children):
            rows[i][i] = s.msp
        zeros = [0.0] * len(children)
        return _assemble_module(children, rows, (zeros, zeros))
    D = floyd_vertex_weighted(pattern_graph, {name: s.msp for name, s in children}, tol)
    if is_negative_cycle(D):
        return D
    return _assemble_module(children, D.rows)


def apsp_subst_td(pattern_expr, children, tol):
    """Same contract as apsp_subst; the pattern's all-pairs distances come
    from replaying its tree-depth expression with the all-pairs handlers
    over the pattern reweighted with the child msps."""
    for _, s in children:
        if is_negative_cycle(s):
            return s
    omega = {name: s.msp for name, s in children}
    inner = fold_td_expression(pattern_expr, apsp_handlers(omega, tol), _merge_full)
    if is_negative_cycle(inner):
        return inner
    by_name = dict(children)
    return _assemble_module([(p, by_name[p]) for p in inner.min_out], inner.rows)


# ---------------------------------------------------------------------------
# Solvers


def _gate(e: Expression, w: dict, problem: str):
    """Validate ``e`` and check ``w`` against its vertex names: every weight
    must be finite, and so must _OVERFLOW_SLACK * n * max |w|, so that no
    path sum or potential difference overflows.  Returns the weights of the
    names only, from which the solve sizes its tolerance."""
    if e.mode != DIRECTED:
        raise InputError(f"{problem} requires a directed expression")
    names = validate_or_raise(e)
    check_total_weights(names, w)
    used = {v: w[v] for v in names}
    scale = max(map(abs, used.values()), default=0.0)
    if not math.isfinite(_OVERFLOW_SLACK * len(names) * scale):
        raise InputError(
            f"weights too large: path sums over {len(names)} vertices of weight "
            f"up to {scale:g} in magnitude overflow a float"
        )
    return used


def solve_tolerance(w: dict) -> float:
    """Tolerance of the feasibility and cycle tests of a solve under ``w``:
    TOL, or the rounding error that sums of up to len(w) weights can carry,
    whichever is larger.  An absolute TOL falls under float resolution at
    large weights; a tolerance sized to rounding still finds a cycle that is
    negative by more than that, however large the other weights are.  The
    solvers pass only the weights of the expression's names, so a weight
    that no vertex uses cannot widen it."""
    scale = max(map(abs, w.values()), default=0.0)
    return max(TOL, _ROUNDING_SLACK * len(w) * sys.float_info.epsilon * scale)


def ncd_handlers(w: dict, tol: float) -> HandlerSet:
    return HandlerSet(
        base_empty=lambda: NcdSummary({}, INF),
        base_vertex=lambda name: NcdSummary({name: 0.0}, w[name]),
        on_inc=lambda f, x, inn, out, child: ncd_inc(f, x, inn, out, w, child, tol),
        on_subst=lambda pg, children: ncd_subst(pg, children, tol),
        on_subst_td=lambda pe, children: ncd_subst_td(pe, children, tol),
    )


def apsp_handlers(w: dict, tol: float) -> HandlerSet:
    return HandlerSet(
        base_empty=lambda: FullSummary({}, INF, {}, {}, []),
        base_vertex=lambda name: _full_singleton(name, w[name]),
        on_inc=lambda f, x, inn, out, child: apsp_inc(f, x, inn, out, w, child, tol),
        on_subst=lambda pg, children: apsp_subst(pg, children, tol),
        on_subst_td=lambda pe, children: apsp_subst_td(pe, children, tol),
    )


def ncd_outcome(e: Expression, w: dict, *, verify=False):
    """Fold the expression with the NCD handlers.  Returns
    ``(NcdSummary | NEGATIVE_CYCLE, FoldStats)``; the summary's potential is
    a dict."""
    w = _gate(e, w, "negative cycle detection")
    tol = solve_tolerance(w)
    checker = make_paths_verifier(w, tol) if verify else None
    value, stats = framework.fold(e, ncd_handlers(w, tol), verify=checker)
    if not is_negative_cycle(value):
        value = NcdSummary(potential_dict(value.potential), value.msp)
    return value, stats


def detect_negative_cycle(e: Expression, w: dict, *, verify=False) -> bool:
    """True iff the evaluated graph contains a cycle of negative total
    vertex weight."""
    value, _ = ncd_outcome(e, w, verify=verify)
    return is_negative_cycle(value)


def apsp_outcome(e: Expression, w: dict, *, verify=False):
    """Fold with the all-pairs handlers and expand the root to a
    FullSummary.  Returns ``(FullSummary | NEGATIVE_CYCLE, FoldStats)``; the
    summary's potential is a dict."""
    w = _gate(e, w, "all-pairs shortest paths")
    tol = solve_tolerance(w)
    checker = make_paths_verifier(w, tol) if verify else None
    value, stats = framework.fold(e, apsp_handlers(w, tol), verify=checker)
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
# least tolerance of the verifier's distance comparisons
_VERIFY_TOL = 1e-6


def make_paths_verifier(w: dict, solve_tol: float):
    """Checker for ``--verify`` runs: every emitted potential must be
    feasible on the node's materialized subgraph, and on small subgraphs the
    summary values are compared against an independent Floyd run."""
    tol = max(_VERIFY_TOL, solve_tol)

    def close(a, b):
        if a == INF or b == INF:
            return a == b
        return abs(a - b) <= tol

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
