"""Brute-force reference algorithms and deterministic generators.

The references are deliberately independent of the solvers they check:
triangle counting by neighborhood intersection, negative cycles and
distances by Bellman-Ford from scratch (never by the package's Floyd or the
incremental Dijkstra machinery).  References that only tests use live with
the tests.

``gen_random`` produces expressions that hit a requested parameter triple
(k, h, l) exactly: one subtree per nonzero target is planted to achieve it,
the rest of the budget is filled with random structure capped at the
targets.  Pure tree-depth requests (k > 0, h = l = 0) use only
empty/union/inc, so the generated expression genuinely witnesses tree-depth
at most k.  Everything is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError
from .expr import (
    Empty,
    Expression,
    Inc,
    Join,
    Pattern,
    Subst,
    Union,
    Vertex,
    collect_vertex_names,
    params,
    post_order,
    subst_td_of,
    validate,
)
from .graphs import (
    DIRECTED,
    INF,
    NEGATIVE_CYCLE,
    TOL,
    UNDIRECTED,
    Graph,
    canonical_edge,
)

# ---------------------------------------------------------------------------
# Reference algorithms


def oracle_triangles(g: Graph) -> int:
    """Exact triangle count by edge-neighborhood intersection."""
    if g.kind != UNDIRECTED:
        raise InputError("triangle counting is defined on undirected graphs")
    total = 0
    for (u, v) in g.edges:
        total += len(g.neighbors(u) & g.neighbors(v))
    assert total % 3 == 0
    return total // 3


def _shifted_edges(g: Graph, w: dict):
    return [(u, v, w[u]) for (u, v) in g.edges]


def _super_source_labels(g: Graph, w: dict):
    """Bellman-Ford from a virtual super-source wired to every vertex by a
    zero-cost edge, on edge-shifted costs.  Returns the labels, or None when
    an edge still improves after n rounds (a negative cycle)."""
    edges = _shifted_edges(g, w)
    label = {v: 0.0 for v in g.vertices}
    for _ in range(g.n):
        changed = False
        for u, v, c in edges:
            alt = label[u] + c
            if alt < label[v] - TOL:
                label[v] = alt
                changed = True
        if not changed:
            return label
    if any(label[u] + c < label[v] - TOL for u, v, c in edges):
        return None
    return label


def oracle_ncd(g: Graph, w: dict) -> bool:
    """True iff Bellman-Ford from a virtual super-source finds a negative
    cycle under edge-shifted costs."""
    if g.kind != DIRECTED:
        raise InputError("negative cycles are detected on directed graphs")
    return _super_source_labels(g, w) is None


def oracle_apsp(g: Graph, w: dict):
    """All-pairs distances under the endpoint-inclusive vertex-weight
    convention, via one label-correcting Bellman-Ford per source (FIFO
    order of label changes, at most n passes).  Returns NEGATIVE_CYCLE or a
    total (u, v) -> distance map."""
    if oracle_ncd(g, w):
        return NEGATIVE_CYCLE
    out = {v: [] for v in g.vertices}
    for u, v, c in _shifted_edges(g, w):
        out[u].append((v, c))
    dist = {}
    for s in g.vertices:
        label, changed = {s: 0.0}, [s]
        for _ in range(g.n):
            if not changed:
                break
            again = {}  # insertion-ordered set of the vertices changed now
            for u in changed:
                for v, c in out[u]:
                    alt = label[u] + c
                    if alt < label.get(v, INF) - TOL:
                        label[v] = alt
                        again[v] = None
            changed = list(again)
        for v in g.vertices:
            dist[(s, v)] = label[v] + w[v] if v in label else INF
    return dist


# ---------------------------------------------------------------------------
# Random expression generation


@dataclass(frozen=True)
class GenSpec:
    """Target parameters for the random generator.  The generated expression
    has exactly ``budget`` vertices and params exactly (k, h, l)."""

    mode: str
    k: int = 0
    h: int = 0
    l: int = 0
    budget: int = 8
    seed: int = 0


class _Namer:
    def __init__(self, prefix="v"):
        self.prefix = prefix
        self.i = 0

    def fresh(self, prefix=None):
        name = f"{prefix or self.prefix}{self.i}"
        self.i += 1
        return name


def _split(rng, total, parts):
    """Random composition of ``total`` into ``parts`` positive summands."""
    sizes = [1] * parts
    for _ in range(total - parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def _min_budget(spec):
    return max(spec.k + spec.h + (max(2, spec.l) if spec.l else 0), 1)


def gen_random(spec: GenSpec) -> Expression:
    """Deterministic random expression achieving params == (k, h, l)."""
    if spec.mode not in (DIRECTED, UNDIRECTED):
        raise InputError(f"unknown mode {spec.mode!r}")
    if min(spec.k, spec.h, spec.l) < 0:
        raise InputError("parameters must be non-negative")
    if spec.h == 1:
        raise InputError("h = 1 is infeasible: substitution patterns have >= 2 vertices")
    if spec.budget < _min_budget(spec):
        raise InputError(
            f"budget {spec.budget} is too small for targets "
            f"(k={spec.k}, h={spec.h}, l={spec.l})"
        )
    rng = random.Random(spec.seed)
    target = (spec.k, spec.h, spec.l)
    for _ in range(100):
        e = _build(spec, rng)
        if tuple(params(e)) == target and not validate(e):
            return e
    raise InputError(f"generator failed to achieve params {target}")


def _build(spec, rng):
    namer = _Namer()
    mode = spec.mode

    if spec.k > 0 and spec.h == 0 and spec.l == 0:
        # pure tree-depth expression: empty/union/inc only
        return Expression(mode, _gen_td(rng, namer, mode, spec.k, spec.budget))

    needs = []
    if spec.k > 0:
        needs.append(("k", spec.k))
    if spec.h > 0:
        needs.append(("h", spec.h))
    if spec.l > 0:
        needs.append(("l", max(2, spec.l)))
    remaining = spec.budget
    min_rest = sum(n for _, n in needs)
    pieces = []
    for kind, need in needs:
        min_rest -= need
        size = need + _spare(rng, remaining - need - min_rest)
        remaining -= size
        if kind == "k":
            pieces.append(_gen_td(rng, namer, mode, spec.k, size))
        elif kind == "h":
            # a planted pattern has exactly h vertices
            pieces.append(_gen_subst(rng, namer, mode, spec, size, spec.h, spec.k, 0))
        else:
            # a planted pattern expression has inc nesting exactly l
            pieces.append(_gen_subst_td(rng, namer, mode, spec, size, spec.l, spec.k, 0))
    if remaining > 0:
        pieces.append(_gen_node(rng, namer, mode, spec, remaining, spec.k, 0))
    rng.shuffle(pieces)
    if len(pieces) == 1:
        return Expression(mode, pieces[0])
    join_p = 0.3 if mode == UNDIRECTED else 0.1
    op = Join if (rng.random() < join_p and spec.budget <= 64) else Union
    return Expression(mode, op(tuple(pieces)))


def _spare(rng, headroom):
    if headroom <= 0:
        return 0
    return rng.randint(0, max(0, headroom // 2))


def _gen_td(rng, namer, mode, depth_exact, size):
    """Strict tree-depth expression with inc nesting exactly ``depth_exact``
    and exactly ``size`` vertices (raised to the depth when smaller)."""
    size = max(size, depth_exact, 1)
    if depth_exact <= 1:
        leaves = [Inc(namer.fresh(), frozenset(), frozenset(), Empty()) for _ in range(size)]
        return leaves[0] if len(leaves) == 1 else Union(tuple(leaves))
    x = namer.fresh()
    inner = size - 1
    extra = inner - (depth_exact - 1)
    parts = 1 + (rng.randint(0, min(2, extra)) if extra > 0 else 0)
    sizes = [depth_exact - 1] + [0] * (parts - 1)
    for _ in range(extra):
        sizes[rng.randrange(parts)] += 1
    # the first part keeps the exact remaining depth, the others are free
    children = [_gen_td(rng, namer, mode, depth_exact - 1, sizes[0])]
    for s in sizes[1:]:
        if s > 0:
            d = rng.randint(1, min(depth_exact - 1, s))
            children.append(_gen_td(rng, namer, mode, d, s))
    child = children[0] if len(children) == 1 else Union(tuple(children))
    return Inc(x, *_random_inc_edges(rng, mode, collect_vertex_names(child)), child)


def _random_inc_edges(rng, mode, child_names):
    """Random (in, out) neighbor sets for a new vertex."""
    q = rng.uniform(0.2, 0.9)
    in_names, out_names = set(), set()
    for u in sorted(child_names):
        if rng.random() < q:
            forward, backward = _direction(rng, mode)
            if forward:
                out_names.add(u)
            if backward:
                in_names.add(u)
    return frozenset(in_names), frozenset(out_names)


def _direction(rng, mode):
    """Whether a new edge runs forward and whether it runs backward: an
    undirected edge forward only, a directed one mostly one way, with
    two-cycles kept rare."""
    if mode == UNDIRECTED:
        return True, False
    r = rng.random()
    return r < 0.48 or r >= 0.96, r >= 0.48


def _random_pattern(rng, mode, names, sizes):
    """Random simple pattern over ``names``; the probability of an edge
    between two large modules is damped so evaluated graphs stay sparse-ish."""
    edges = set()
    size_of = dict(zip(names, sizes))
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            p = 0.55
            prod = size_of[a] * size_of[b]
            if prod > 64:
                p *= 64.0 / prod
            if rng.random() < p:
                forward, backward = _direction(rng, mode)
                if forward:
                    edges.add(canonical_edge(mode, a, b))
                if backward:
                    edges.add((b, a))
    return Pattern(mode, tuple(names), frozenset(edges))


def _gen_subst(rng, namer, mode, spec, budget, t, kcap, depth):
    """Substitution node over ``budget`` vertices whose random pattern has
    ``t`` vertices; the bound sub-expressions start at ``depth``."""
    sizes = _split(rng, budget, t)
    names = [namer.fresh("p") for _ in range(t)]
    pattern = _random_pattern(rng, mode, names, sizes)
    bindings = tuple(
        (nm, _gen_node(rng, namer, mode, spec, sz, kcap, depth)) for nm, sz in zip(names, sizes)
    )
    return Subst(pattern, bindings)


def _gen_subst_td(rng, namer, mode, spec, budget, d, kcap, depth):
    """Subst-td node over ``budget`` vertices whose pattern expression has
    inc nesting exactly ``d``; the bound sub-expressions start at ``depth``."""
    t = rng.randint(max(2, d), min(budget, max(2, d) + 3))
    pattern_order = post_order(_gen_td(rng, namer, mode, d, t))
    names = _vertex_order(pattern_order)
    sizes = _split(rng, budget, len(names))
    bindings = tuple(
        (nm, _gen_node(rng, namer, mode, spec, sz, kcap, depth))
        for nm, sz in zip(names, sizes)
    )
    return subst_td_of(pattern_order, bindings)


def _vertex_order(pattern_order):
    """The vertex names of the pattern of ``pattern_order`` (``post_order``)
    in the order ``evaluate`` lists them."""
    return [n.name for n in pattern_order.nodes if type(n) is Vertex or type(n) is Inc]


def _gen_node(rng, namer, mode, spec, budget, kcap, depth):
    """Random expression with exactly ``budget`` vertices and params capped
    by (kcap, spec.h, spec.l)."""
    if budget <= 0:
        return Empty()
    if budget == 1:
        return Vertex(namer.fresh())
    if depth > 60:
        return Union(tuple(Vertex(namer.fresh()) for _ in range(budget)))

    join_weight = 2.0 if budget <= 64 else 0.3
    if mode == DIRECTED:
        join_weight *= 0.35  # directed joins are bidirected: cycle factories
    choices = [("union", 3.0), ("join", join_weight)]
    if kcap > 0:
        choices.append(("inc", 2.5))
    if spec.h >= 2 and budget >= 2:
        choices.append(("subst", 3.0))
    if spec.l >= 1 and budget >= 2:
        choices.append(("subst_td", 2.0))
    kind = _pick(rng, choices)

    if kind == "inc":
        child = _gen_node(rng, namer, mode, spec, budget - 1, kcap - 1, depth + 1)
        inn, out = _random_inc_edges(rng, mode, collect_vertex_names(child))
        return Inc(namer.fresh(), inn, out, child)
    if kind == "subst":
        t = rng.randint(2, min(spec.h, budget))
        return _gen_subst(rng, namer, mode, spec, budget, t, kcap, depth + 1)
    if kind == "subst_td":
        d = rng.randint(1, min(spec.l, budget))
        return _gen_subst_td(rng, namer, mode, spec, budget, d, kcap, depth + 1)
    # union / join
    parts = rng.randint(2, min(4, budget))
    sizes = _split(rng, budget, parts)
    children = tuple(
        _gen_node(rng, namer, mode, spec, sz, kcap, depth + 1) for sz in sizes
    )
    return (Join if kind == "join" else Union)(children)


def _pick(rng, weighted):
    total = sum(wt for _, wt in weighted)
    r = rng.uniform(0, total)
    acc = 0.0
    for kind, wt in weighted:
        acc += wt
        if r <= acc:
            return kind
    return weighted[-1][0]


def gen_weights(names, lo: float, hi: float, seed: int) -> dict:
    """Deterministic uniform vertex weights for a name collection."""
    rng = random.Random(seed)
    return {name: rng.uniform(lo, hi) for name in sorted(names)}


# ---------------------------------------------------------------------------
# Fixture constructions

FIXTURE_NAMES = ("lemma7.1", "substar", "lemma7.2", "cliquependant")


def gen_fixture(name: str, p: int, clique: int = 1) -> Expression:
    """Hand-constructed expressions for the separation families.

    * ``lemma7.1``: p pairwise-joined non-adjacent vertex pairs plus one apex
      adjacent to one vertex per pair; a cograph plus a single vertex
      addition, params (1, 0, 0).
    * ``substar``: star with p rays, every ray subdivided once; a pure
      tree-depth expression with inc nesting 3, params (3, 0, 0).
    * ``lemma7.2``: cliques of size clique+1 substituted into every vertex of
      the subdivided-star pattern given as a tree-depth expression, params
      (0, 0, 3).
    * ``cliquependant``: a p-clique with one pendant vertex per clique
      vertex, written as a single substitution pattern of order 2p, params
      (0, 2p, 0).
    """
    if p < 2:
        raise InputError("fixture parameter p must be at least 2")
    if name == "lemma7.1":
        pairs = tuple(
            Union((Vertex(f"v{i}.1"), Vertex(f"v{i}.2"))) for i in range(1, p + 1)
        )
        apex_targets = frozenset(f"v{i}.1" for i in range(1, p + 1))
        root = Inc("x", frozenset(), apex_targets, Join(pairs))
        return Expression(UNDIRECTED, root)
    if name == "substar":
        return Expression(UNDIRECTED, _substar_td(p, center="c", mid="m", leaf="l"))
    if name == "lemma7.2":
        if clique < 0:
            raise InputError("clique parameter must be non-negative")
        pattern_order = post_order(_substar_td(p, center="pc", mid="pm", leaf="pl"))
        namer = _Namer("u")
        bindings = []
        for pname in _vertex_order(pattern_order):
            members = [Vertex(namer.fresh()) for _ in range(clique + 1)]
            bindings.append((pname, members[0] if clique == 0 else Join(tuple(members))))
        return Expression(UNDIRECTED, subst_td_of(pattern_order, tuple(bindings)))
    if name == "cliquependant":
        core = [f"c{i}" for i in range(1, p + 1)]
        pend = [f"d{i}" for i in range(1, p + 1)]
        edges = set()
        for i, a in enumerate(core):
            for b in core[i + 1 :]:
                edges.add(canonical_edge(UNDIRECTED, a, b))
        for a, b in zip(core, pend):
            edges.add(canonical_edge(UNDIRECTED, a, b))
        pattern = Pattern(UNDIRECTED, tuple(core + pend), frozenset(edges))
        namer = _Namer("u")
        bindings = tuple((nm, Vertex(namer.fresh())) for nm in core + pend)
        return Expression(UNDIRECTED, Subst(pattern, bindings))
    raise InputError(f"unknown fixture {name!r}; choose one of {', '.join(FIXTURE_NAMES)}")


def _substar_td(p, center, mid, leaf):
    """Tree-depth expression for the subdivided star of degree p: the center
    is added on top of p disjoint subdivided rays, each ray an inc over an
    inc over the empty graph (nesting 3)."""
    rays = []
    for i in range(1, p + 1):
        tip = Inc(f"{leaf}{i}", frozenset(), frozenset(), Empty())
        rays.append(Inc(f"{mid}{i}", frozenset(), frozenset({f"{leaf}{i}"}), tip))
    middles = frozenset(f"{mid}{i}" for i in range(1, p + 1))
    return Inc(center, frozenset(), middles, Union(tuple(rays)))
