"""Algebraic graph expressions: AST, text format, parser, validator,
evaluator, parameter extraction and normalization.

An expression file looks like::

    (undirected (join (vertex a) (union (vertex b) (vertex c))))

Operations: ``(empty)``, ``(vertex NAME)``, ``(union e e+)``, ``(join e e+)``,
``(inc NAME (edges...) e)`` which adds one new vertex with edges into the
child graph, ``(subst (graph (names) (edges)) (bindings))`` which substitutes
one graph per pattern vertex, and ``(subst-td td-expr (bindings))`` whose
pattern is itself given as a tree-depth expression (empty/vertex/union/inc
only).

The extracted parameter triple (k, h, l) is: k = nesting depth of inc nodes
on root-to-leaf paths, h = largest explicit substitution pattern, l = largest
inc nesting depth among subst-td pattern expressions.  It comes from the walk
that validates, which each ``Expression`` runs once and caches.

The evaluator is one walk that builds adjacency lists from vertex addition
and substitution: union and join are substitutions into an edgeless resp.
complete pattern over their children.

The parser and all tree walks are iterative, so expressions may be nested
to any depth: deep input text as well as the binary substitution chains
produced by ``normalize``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, combinations, permutations, repeat
from typing import NamedTuple

from .errors import InputError
from .graphs import DIRECTED, UNDIRECTED, Graph, canonical_edge


class ParseError(InputError):
    pass


class ValidationError(InputError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Empty:
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Vertex:
    name: str
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Union:
    children: tuple
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Join:
    children: tuple
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Inc:
    """Add vertex ``name``; ``in_names``/``out_names`` are the child vertices
    with an edge into resp. out of the new vertex.  In undirected mode an
    edge lands in one of the two sets by the order it is written in (``(u
    x)`` in ``in_names``, ``(x v)`` in ``out_names``), so undirected readers
    use ``neighbor_names``, their union."""

    name: str
    in_names: frozenset
    out_names: frozenset
    child: object
    pos: tuple = field(default=None, compare=False, repr=False)

    @property
    def neighbor_names(self):
        return self.in_names | self.out_names


@dataclass(frozen=True)
class Pattern:
    """Explicit substitution pattern: a small graph plus a vertex order."""

    kind: str
    names: tuple
    edges: frozenset
    pos: tuple = field(default=None, compare=False, repr=False)

    def to_graph(self) -> Graph:
        return Graph(self.kind, self.names, self.edges)


@dataclass(frozen=True)
class Subst:
    pattern: Pattern
    bindings: tuple  # ((pattern vertex name, sub-expression), ...)
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SubstTd:
    pattern_expr: object  # tree-depth expression over the pattern vertices
    bindings: tuple
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Expression:
    mode: str
    root: object

    @cached_property
    def _front_end(self):
        """``_scan`` of the tree, run once; no field, so ==, hash and repr ignore it."""
        return _scan(self.root)


class Params(NamedTuple):
    k: int
    h: int
    l: int


TD_NODE_TYPES = (Empty, Vertex, Union, Inc)


def subexpressions(node):
    """Child expression nodes, in order; subst-td pattern expressions are
    payload, not children."""
    t = type(node)
    if t is Subst or t is SubstTd:
        return [sub for _, sub in node.bindings]
    if t is Inc:
        return (node.child,)
    if t is Union or t is Join:
        return node.children
    return ()


def fold_expression(root, combine, label=lambda: "root"):
    """Iterative post-order fold: ``combine(node, child_values, where)``
    returns the value of ``node``.

    One flat walk keeps the values of finished nodes whose parent is still
    open in ``done``, and each open node as ``(node, children, start)``; the
    node is combined from ``done[start:]``, which is then cut off.
    ``where()`` renders the location of the node being combined, such as
    ``root/1/bind[p]/child``: the child taken at each open node is the next
    open node's start (``len(done)`` at the innermost) minus its own.
    ``label()`` renders the location of ``root``.  Rendering costs O(depth),
    so combine functions call it only to report a violation, an error or a
    verify failure.
    """
    done, opened = [], []

    def where():
        ends = [start for _, _, start in opened[1:]] + [len(done)]
        return "/".join([label()] + [_step(n, e - s) for (n, _, s), e in zip(opened, ends)])

    node = root
    while True:
        while kids := subexpressions(node):
            opened.append((node, kids, len(done)))
            node = kids[0]
        value = combine(node, (), where)
        while opened:
            node, kids, start = opened[-1]
            done.append(value)
            i = len(done) - start
            if i < len(kids):
                node = kids[i]
                break
            opened.pop()
            vals = done[start:]
            del done[start:]
            value = combine(node, vals, where)
        else:
            return value


def _step(node, index):
    """Location step from ``node`` to its ``index``-th child."""
    t = type(node)
    if t is Subst or t is SubstTd:
        return f"bind[{node.bindings[index][0]}]"
    return "child" if t is Inc else str(index)


def collect_vertex_names(node) -> set:
    """Vertex names of the evaluated subtree (vertex leaves and inc names;
    pattern vertices never survive substitution)."""
    names = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if type(n) is Vertex or type(n) is Inc:
            names.add(n.name)
        stack.extend(subexpressions(n))
    return names


# ---------------------------------------------------------------------------
# Parser

_NAME_CHARS = r"A-Za-z0-9_.\-"
# a character that starts no token; one search per line finds the first
_BAD_CHAR_RE = re.compile(rf"[^\s(){_NAME_CHARS}]")
# one token with the whitespace before it: on a line without bad characters
# the matches tile the line, so running sums of their lengths are the
# tokens' end columns
_TOKEN_RE = re.compile(rf"\s*(?:[()]|[{_NAME_CHARS}]+)")
_PARENS = frozenset("()")


class _Tokens(NamedTuple):
    """Parallel lists: the token strings, their line numbers and the
    0-based exclusive column where each ends.  A token that is not a
    parenthesis is a name."""

    toks: list
    lines: list
    ends: list

    def error(self, i, message):
        col = self.ends[i] - len(self.toks[i]) + 1
        return ParseError(f"line {self.lines[i]} col {col}: {message}")

    def expected(self, i, what):
        return self.error(i, f"expected {what}, found {self.toks[i]!r}")


def _tokenize(text) -> _Tokens:
    tokens = _Tokens([], [], [])
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        bad = _BAD_CHAR_RE.search(line)
        if bad:
            raise ParseError(
                f"line {lineno} col {bad.start() + 1}: unexpected character {bad.group()!r}"
            )
        raw = _TOKEN_RE.findall(line)
        tokens.toks.extend(map(str.lstrip, raw))
        tokens.ends.extend(accumulate(map(len, raw)))
        tokens.lines.extend(repeat(lineno, len(raw)))
    return tokens


def parse(text: str) -> Expression:
    """Parse an expression file into an Expression, or raise ParseError with
    line/column information.

    One loop over the tokens keeps the open union, join, inc, subst and
    subst-td nodes on an explicit stack, so any nesting depth parses.  A
    node's ``pos`` is the position of its opening parenthesis, whose 1-based
    column is that token's end column."""
    tokens = _tokenize(text)
    toks, lines, ends = tokens
    if not toks:
        raise ParseError("empty input: expected (MODE expr); the empty graph is written (empty)")
    try:
        if toks[0] != "(":
            raise tokens.expected(0, "'('")
        if toks[1] == DIRECTED:
            mode = DIRECTED
        elif toks[1] == UNDIRECTED:
            mode = UNDIRECTED
        else:
            raise tokens.expected(1, "'directed' or 'undirected'")
        i = 2
        # open nodes: [Union or Join, start, children],
        # [Inc, start, name, in_names, out_names] and
        # [Subst or SubstTd, start, pattern, bindings, name of the open binding],
        # where start indexes the node's "(" and a subst-td pattern is None
        # until its expression is read
        stack = []
        while True:
            # an expression starts at token i
            if toks[i] != "(":
                raise tokens.expected(i, "'('")
            start = i
            op = toks[i + 1]
            i += 2
            if op == "vertex":
                name = toks[i]
                if name in _PARENS:
                    raise tokens.expected(i, "name")
                if toks[i + 1] != ")":
                    raise tokens.expected(i + 1, "')'")
                i += 2
                node = Vertex(name, pos=(lines[start], ends[start]))
            elif op == "inc":
                name = toks[i]
                if name in _PARENS:
                    raise tokens.expected(i, "vertex name")
                if toks[i + 1] != "(":
                    raise tokens.expected(i + 1, "'('")
                i += 2
                in_names, out_names = set(), set()
                while toks[i] != ")":
                    a, b = _edge_at(tokens, i)
                    if a == name:
                        if b == name:
                            raise tokens.error(i, f"loop edge on {name!r}")
                        out_names.add(b)
                    elif b == name:
                        in_names.add(a)
                    else:
                        raise tokens.error(i, f"inc edge must have {name!r} as one endpoint")
                    i += 4
                stack.append([Inc, start, name, frozenset(in_names), frozenset(out_names)])
                i += 1
                continue
            elif op == "union" or op == "join":
                stack.append([Union if op == "union" else Join, start, []])
                node = None
            elif op == "subst":
                pattern, i = _pattern_at(tokens, i, mode)
                if toks[i] != "(":
                    raise tokens.expected(i, "'('")
                stack.append([Subst, start, pattern, [], None])
                i += 1
                node = None
            elif op == "subst-td":
                stack.append([SubstTd, start, None, [], None])
                continue
            elif op == "empty":
                if toks[i] != ")":
                    raise tokens.expected(i, "')'")
                i += 1
                node = Empty(pos=(lines[start], ends[start]))
            else:
                raise tokens.error(start + 1, f"unknown operator {op!r}")

            # hand ``node`` (None when a node was just opened) to the open
            # nodes, closing each one it completes, until one needs an
            # expression at token i
            while stack:
                frame = stack[-1]
                kind = frame[0]
                if kind is Inc:
                    if toks[i] != ")":
                        raise tokens.expected(i, "')'")
                    i += 1
                    _, start, name, in_names, out_names = frame
                    node = Inc(name, in_names, out_names, node, pos=(lines[start], ends[start]))
                elif kind is Union or kind is Join:
                    _, start, children = frame
                    if node is not None:
                        children.append(node)
                    if toks[i] != ")":
                        break
                    i += 1
                    if len(children) < 2:
                        op = "union" if kind is Union else "join"
                        raise tokens.error(start + 1, f"{op} needs at least two arguments")
                    node = kind(tuple(children), pos=(lines[start], ends[start]))
                else:
                    bindings = frame[3]
                    if frame[2] is None:
                        frame[2] = node
                        if toks[i] != "(":
                            raise tokens.expected(i, "'('")
                        i += 1
                    elif node is not None:
                        bindings.append((frame[4], node))
                        if toks[i] != ")":
                            raise tokens.expected(i, "')'")
                        i += 1
                    if toks[i] != ")":
                        # the next binding: "(" pattern vertex, expression, ")"
                        if toks[i] != "(":
                            raise tokens.expected(i, "'('")
                        frame[4] = toks[i + 1]
                        if frame[4] in _PARENS:
                            raise tokens.expected(i + 1, "pattern vertex")
                        i += 2
                        break
                    if not bindings:
                        raise ParseError("substitution needs at least one binding")
                    if toks[i + 1] != ")":
                        raise tokens.expected(i + 1, "')'")
                    i += 2
                    start = frame[1]
                    node = kind(frame[2], tuple(bindings), pos=(lines[start], ends[start]))
                stack.pop()
            else:
                break

        if toks[i] != ")":
            raise tokens.expected(i, "')'")
    except IndexError:
        raise ParseError("unexpected end of input") from None
    if i + 1 < len(toks):
        raise tokens.error(i + 1, "trailing input after expression")
    return Expression(mode, node)


def _edge_at(tokens, i):
    """The endpoints of the edge ``(a b)`` at token ``i``."""
    toks = tokens.toks
    if toks[i] != "(":
        raise tokens.expected(i, "'('")
    a = toks[i + 1]
    if a in _PARENS:
        raise tokens.expected(i + 1, "name")
    b = toks[i + 2]
    if b in _PARENS:
        raise tokens.expected(i + 2, "name")
    if toks[i + 3] != ")":
        raise tokens.expected(i + 3, "')'")
    return a, b


def _pattern_at(tokens, i, mode):
    """The pattern ``(graph (names) (edges))`` at token ``i``, and the index
    of the token after it."""
    toks = tokens.toks
    if toks[i] != "(":
        raise tokens.expected(i, "'('")
    pos = (tokens.lines[i], tokens.ends[i])
    graph_at = i + 1
    if toks[graph_at] != "graph":
        raise tokens.error(graph_at, "expected pattern '(graph ...)'")
    if toks[i + 2] != "(":
        raise tokens.expected(i + 2, "'('")
    i += 3
    names = []
    while (tok := toks[i]) != ")":
        if tok in _PARENS:
            raise tokens.expected(i, "pattern vertex")
        names.append(tok)
        i += 1
    if len(names) < 2:
        raise tokens.error(graph_at, "pattern needs at least two vertices")
    nameset = set(names)
    if len(nameset) != len(names):
        raise tokens.error(graph_at, "duplicate pattern vertex name")
    if toks[i + 1] != "(":
        raise tokens.expected(i + 1, "'('")
    i += 2
    edges = set()
    while toks[i] != ")":
        a, b = _edge_at(tokens, i)
        if a == b:
            raise tokens.error(i, "loop edge in pattern")
        if a not in nameset or b not in nameset:
            raise tokens.error(i, "pattern edge uses undeclared vertex")
        edges.add(canonical_edge(mode, a, b))
        i += 4
    if toks[i + 1] != ")":
        raise tokens.expected(i + 1, "')'")
    return Pattern(mode, tuple(names), frozenset(edges), pos=pos), i + 2


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    path: str
    message: str
    pos: tuple = None

    def __str__(self):
        where = f" (line {self.pos[0]} col {self.pos[1]})" if self.pos else ""
        return f"{self.path}: {self.message}{where}"


def validate(e: Expression) -> list:
    """Structural checks on a parsed expression.  Returns a list of
    Violations (empty when the expression is well formed)."""
    return list(e._front_end[1])


def validate_or_raise(e: Expression) -> set:
    """Raise a ValidationError listing the violations, if any; else return
    the vertex names of the evaluated graph, which validation collects."""
    names, violations, _ = e._front_end
    if violations:
        raise ValidationError("\n".join(str(v) for v in violations))
    return set(names)


def _scan(root):
    """The front-end walk: ``(vertex names, violations, Params)`` of ``root``,
    from name sets and inc nesting bottom-up and h, l as running maxima; a
    tree-depth pattern is walked by the same combine with ``td_only``."""
    violations = []
    checked = {}  # id(pattern) -> its messages: a shared pattern is checked once
    h = l = 0

    def bad(where, at, message):
        violations.append(Violation(where(), message, getattr(at, "pos", None)))

    def combine(node, vals, where, td_only=False):
        # vals holds (names, inc nesting) pairs for the children
        nonlocal h, l
        t = type(node)
        if td_only and t not in TD_NODE_TYPES:
            bad(where, node, "pattern is not a tree-depth expression (join/subst not allowed)")
        if t is Vertex:
            return {node.name}, 0
        if t is Inc:
            names, k = vals[0]
            if not (node.in_names <= names and node.out_names <= names):
                for target in sorted(node.neighbor_names):
                    if target not in names:
                        bad(where, node, f"unknown inc target {target!r}")
            if node.name in names:
                bad(where, node, f"duplicate vertex name {node.name!r}")
            names.add(node.name)
            return names, k + 1
        if t is Empty:
            return set(), 0
        if t is Union or t is Join:
            if len(node.children) < 2:
                bad(where, node, "union/join needs at least two children")
        elif t is Subst:
            pattern = node.pattern
            messages = checked.get(id(pattern))
            if messages is None:
                messages = checked[id(pattern)] = []
                _check_pattern(pattern, messages.append)
            for message in messages:
                bad(where, pattern, message)
            _check_bindings(node, pattern.names, vals, where, bad)
            if not td_only and len(pattern.names) > h:
                h = len(pattern.names)
        elif t is SubstTd:
            pattern_names, depth = fold_expression(
                node.pattern_expr, combine_td, lambda: where() + "/pattern"
            )
            pattern_names = sorted(pattern_names)
            if len(pattern_names) < 2:
                bad(where, node, "subst-td pattern has fewer than two vertices")
            _check_bindings(node, pattern_names, vals, where, bad)
            if not td_only and depth > l:
                l = depth
        else:
            bad(where, node, f"unknown node type {t.__name__}")
            return set(), 0
        # merge into the largest set; a name in two children is a duplicate
        parts = sorted([names for names, _ in vals], key=len, reverse=True)
        names = parts[0] if parts else set()
        for part in parts[1:]:
            if not names.isdisjoint(part):
                for nm in part:
                    if nm in names:
                        bad(where, node, f"duplicate vertex name {nm!r}")
            names |= part
        return names, max([k for _, k in vals], default=0)

    combine_td = partial(combine, td_only=True)

    names, k = fold_expression(root, combine)
    return names, violations, Params(k, h, l)


def _check_pattern(pattern, bad):
    names = set(pattern.names)
    if len(pattern.names) < 2:
        bad("pattern needs at least two vertices")
    if len(names) != len(pattern.names):
        bad("duplicate pattern vertex name")
    for (a, b) in pattern.edges:
        if a == b:
            bad(f"loop edge on pattern vertex {a!r}")
        if a not in names or b not in names:
            bad(f"pattern edge ({a!r}, {b!r}) uses undeclared vertex")


def _check_bindings(node, pattern_names, vals, where, bad):
    seen = set()
    pattern_set = set(pattern_names)
    for (bname, _), (child_names, _) in zip(node.bindings, vals):
        if bname in seen:
            bad(where, node, f"pattern vertex {bname!r} bound twice")
        seen.add(bname)
        if bname not in pattern_set:
            bad(where, node, f"binding for unknown pattern vertex {bname!r}")
        if not child_names:
            bad(where, node, f"binding {bname!r} is the empty graph")
    for pname in pattern_names:
        if pname not in seen:
            bad(where, node, f"pattern vertex {pname!r} has no binding")


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(e: Expression) -> Graph:
    """Build the concrete graph denoted by a validated expression."""
    verts, out, _ = evaluate_node(e.root, e.mode)
    if e.mode == UNDIRECTED:  # each edge is listed at both ends
        edges = ((u, v) for u in verts for v in out[u] if u < v)
    else:
        edges = ((u, v) for u in verts for v in out[u])
    return Graph(e.mode, verts, edges)


def evaluate_node(root, mode):
    """Vertex list and adjacency lists ``(verts, out, inn)`` of the
    subexpression ``root``, all fresh: ``out[v]`` lists the heads of v's
    out-edges, ``inn[v]`` the tails of its in-edges; in undirected mode
    ``inn`` is ``out``.  One explicit-stack walk appends the vertices in
    leaf order, so each subexpression's vertices form one run of ``verts``
    (a substitution's children in binding order).  Only the nodes that add
    edges pay for more than a visit: an inc pushes a leave entry, and a
    join, a substitution into a pattern with edges or a subst-td pushes a
    leave entry plus a marker before each child that records where the
    child's run starts, so that each pattern edge between two runs extends
    the lists of their vertices directly.  A union or an edgeless
    substitution pushes its children as bare nodes.  A tree-depth pattern's
    edges are read from its inc nodes (``td_pattern_edges``); no pattern
    graph is built."""
    directed = mode == DIRECTED
    verts, out = [], {}
    inn = {} if directed else out
    # the stack holds nodes to enter, run-start markers (the bounds list of
    # the parent) and leave entries (node, bounds or None for an inc)
    stack = [root]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is Subst and not node.pattern.edges or t is Union:
            stack += reversed(subexpressions(node))
        elif t is Vertex:
            verts.append(node.name)
            out[node.name] = []
            if directed:
                inn[node.name] = []
        elif t is Inc:
            stack += ((node, None), node.child)
        elif t is list:
            node.append(len(verts))
        elif t is tuple:
            node, bounds = node
            if bounds is None:
                x = node.name
                verts.append(x)
                if directed:
                    inn[x] = list(node.in_names)
                    for u in node.in_names:
                        out[u].append(x)
                out[x] = list(node.out_names if directed else node.neighbor_names)
                for u in out[x]:
                    inn[u].append(x)
                continue
            bounds.append(len(verts))
            if type(node) is Join:
                pairs = (permutations if directed else combinations)(range(len(bounds) - 1), 2)
            else:
                if type(node) is Subst:
                    pattern_edges = node.pattern.edges
                else:
                    pattern_edges = td_pattern_edges(node.pattern_expr, mode)
                part = {bn: i for i, (bn, _) in enumerate(node.bindings)}
                pairs = [(part[p], part[q]) for p, q in pattern_edges]
            for p, q in pairs:
                # a run is copied only for an edge, so edgeless chains stay linear
                part_p = verts[bounds[p] : bounds[p + 1]]
                part_q = verts[bounds[q] : bounds[q + 1]]
                for a in part_p:
                    out[a].extend(part_q)
                for b in part_q:
                    inn[b].extend(part_p)
        elif t is Join or t is Subst or t is SubstTd:
            bounds = []
            stack.append((node, bounds))
            for child in reversed(subexpressions(node)):
                stack += (child, bounds)
        elif t is not Empty:
            raise InputError(f"cannot evaluate node of type {t.__name__}")
    return verts, out, inn


def td_pattern_edges(pattern_expr, mode):
    """Edges of the tree-depth pattern ``pattern_expr``, read from its inc
    nodes: for an inc vertex x, ``(u, x)`` per in-name u and ``(x, v)`` per
    out-name v; in undirected mode ``(x, u)`` once per neighbor u."""
    directed = mode == DIRECTED
    stack = [pattern_expr]
    while stack:
        node = stack.pop()
        if type(node) is Inc:
            x = node.name
            if directed:
                yield from ((u, x) for u in node.in_names)
                yield from ((x, v) for v in node.out_names)
            else:
                yield from ((x, u) for u in node.neighbor_names)
        stack.extend(subexpressions(node))


# ---------------------------------------------------------------------------
# Parameters


def inc_nesting(node) -> int:
    """Maximum number of inc nodes on a root-to-leaf path."""

    def combine(n, vals, _where):
        depth = max(vals, default=0)
        return depth + 1 if type(n) is Inc else depth

    return fold_expression(node, combine)


def params(e: Expression) -> Params:
    """Extract the parameter triple (k, h, l) of an expression."""
    return e._front_end[2]


# ---------------------------------------------------------------------------
# Normalization

_PAT_I2 = {
    DIRECTED: Pattern(DIRECTED, ("a", "b"), frozenset()),
    UNDIRECTED: Pattern(UNDIRECTED, ("a", "b"), frozenset()),
}
_PAT_K2 = {
    DIRECTED: Pattern(DIRECTED, ("a", "b"), frozenset({("a", "b"), ("b", "a")})),
    UNDIRECTED: Pattern(UNDIRECTED, ("a", "b"), frozenset({("a", "b")})),
}


def normalize(e: Expression) -> Expression:
    """Rewrite union/join nodes into chains of binary substitutions
    (pattern: two isolated resp. two adjacent vertices), dropping empty
    children on the way.  The evaluated graph is unchanged: same vertex
    names, same edges.  Subst-td pattern expressions are left alone.  An
    inc, subst or subst-td node none of whose children changed is returned
    itself, so subtrees without union or join are shared with ``e``."""

    def combine(node, vals, _where):
        t = type(node)
        if t is Subst or t is SubstTd:
            if all(v is sub for v, (_, sub) in zip(vals, node.bindings)):
                return node
            bindings = tuple((bn, v) for (bn, _), v in zip(node.bindings, vals))
            return t(node.pattern if t is Subst else node.pattern_expr, bindings)
        if t is Inc:
            if vals[0] is node.child:
                return node
            return Inc(node.name, node.in_names, node.out_names, vals[0])
        if t is not Union and t is not Join:
            return node
        survivors = [v for v in vals if type(v) is not Empty]
        if not survivors:
            return Empty()
        if len(survivors) == 1:
            return survivors[0]
        pat = (_PAT_K2 if t is Join else _PAT_I2)[e.mode]
        acc = survivors[0]
        for child in survivors[1:]:
            acc = Subst(pat, (("a", acc), ("b", child)))
        return acc

    return Expression(e.mode, fold_expression(e.root, combine))
