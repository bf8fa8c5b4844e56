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
that validates, which each ``Expression`` runs once and caches.  That walk
keeps one dict from each vertex name to the order index of its latest
occurrence: an inc target lies in the child iff its index is at least the
child's first, and a name met again is a duplicate of the lowest common
ancestor of its two occurrences, reported when that node closes, in name
order with that node's other duplicates.

AST nodes are frozen, slotted dataclasses built positionally, each with an
``__init__`` that writes its fields through the ``__set__`` of its class's
own slot descriptors, bound once at import; ``SubstTd`` and ``Expression``
keep an instance dict, as their recorded orders are written into it.  A
node holds its value only: where it was written is a fact about the parse,
which the order keeps, so equal subtrees are equal wherever they stand, and
the parser reads every ``(empty)`` as one shared ``Empty()``.

Each expression has one post-order of its tree (``post_order``), which
the parser records as it closes nodes (``Expression._order``); a subtree is
a slice of it.  Each subst-td pattern has its own (``SubstTd.pattern_order``),
which the parser records too.  An ``Order`` is parallel sequences, with no
object per entry: the nodes, and their child counts and subtree sizes in
``array('I')``s, which the garbage collector does not track, and in a parsed
order each node's position, the line and column of its ``(``, in two more.
A tree built in code, an ``Expression`` of a parsed subtree's root
included, has no positions, so its violations name none; a parsed
``SubstTd`` in it (or in ``normalize``'s result) keeps its own
``pattern_order``, positions included, so its pattern's violations do.
Every walk is a flat loop over an order, which zips slices of those
sequences: the front end (``_scan``), ``framework.fold``, whose loop also
replays patterns, ``triangles.edges_within``, the evaluator and
``normalize``, as a Python call per node costs more than most nodes' work.
The evaluator builds adjacency lists: union and join are substitutions
into an edgeless resp. complete pattern.

The parser and all tree walks are iterative, so expressions may be nested
to any depth: deep input text as well as the binary substitution chains
produced by ``normalize``.  The parser splits each line, after its ``#``
comment is cut, at whitespace and parentheses.  An ASCII line is screened
for characters that start no token by one ``bytes.translate`` that deletes
the allowed ones; a line that is not ASCII, or keeps a character, is
searched with ``_BAD_CHAR_RE``, which names the first.  The tokenizer
keeps one line number and one end column per ``(`` token, the latter from
the running lengths of the text between a line's ``(`` characters, and one
token count per line; the line and column of any other token are worked
out only when a parse error names it.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate, combinations, count, permutations, repeat
from operator import add
from typing import NamedTuple

from .errors import InputError
from .graphs import DIRECTED, UNDIRECTED, Graph, canonical_edge


class ParseError(InputError):
    pass


class ValidationError(InputError):
    pass


# ---------------------------------------------------------------------------
# AST


# Frozen, slotted nodes built positionally: each ``__init__`` writes its
# fields through the ``__set__`` of its class's own slot descriptors, bound
# once below, which costs less than ``object.__setattr__`` by field name
def _setters(cls):
    """The bound ``__set__`` of each field's slot descriptor, in field order."""
    return [cls.__dict__[f.name].__set__ for f in fields(cls)]


@dataclass(frozen=True, slots=True)
class Empty:
    pass


@dataclass(frozen=True, slots=True)
class Vertex:
    name: str

    def __init__(self, name):
        _vertex_name(self, name)


@dataclass(frozen=True, slots=True)
class Union:
    children: tuple

    def __init__(self, children):
        _union_children(self, children)


@dataclass(frozen=True, slots=True)
class Join:
    children: tuple

    def __init__(self, children):
        _join_children(self, children)


@dataclass(frozen=True, slots=True)
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

    def __init__(self, name, in_names, out_names, child):
        _inc_name(self, name)
        _inc_in_names(self, in_names)
        _inc_out_names(self, out_names)
        _inc_child(self, child)

    @property
    def neighbor_names(self):
        return self.in_names | self.out_names


@dataclass(frozen=True, slots=True)
class Pattern:
    """Explicit substitution pattern: a small graph plus a vertex order."""

    kind: str
    names: tuple
    edges: frozenset

    def __init__(self, kind, names, edges):
        _pattern_kind(self, kind)
        _pattern_names(self, names)
        _pattern_edges(self, edges)

    def to_graph(self) -> Graph:
        return Graph(self.kind, self.names, self.edges)


@dataclass(frozen=True, slots=True)
class Subst:
    pattern: Pattern
    bindings: tuple  # ((pattern vertex name, sub-expression), ...)

    def __init__(self, pattern, bindings):
        _subst_pattern(self, pattern)
        _subst_bindings(self, bindings)


(_vertex_name,) = _setters(Vertex)
(_union_children,) = _setters(Union)
(_join_children,) = _setters(Join)
_inc_name, _inc_in_names, _inc_out_names, _inc_child = _setters(Inc)
_pattern_kind, _pattern_names, _pattern_edges = _setters(Pattern)
_subst_pattern, _subst_bindings = _setters(Subst)


@dataclass(slots=True)
class Order:
    """A post-order (``post_order``) as parallel sequences: per entry, its
    node, its child count and its subtree size, so the subtree of the entry
    at i spans the entries ``i - sizes[i] + 1`` to i, and, in a parsed
    order, the line and the 1-based column of the node's ``(``.  A tree
    built in code has no positions: ``lines`` and ``cols`` are None.  The
    counts, sizes, lines and columns are C unsigned int arrays,
    ``array('I')``: an unsigned code converts an int directly where a
    signed one runs the argument parser, which costs about twice as much
    per item.  ``len`` is the number of entries."""

    nodes: list
    counts: array
    sizes: array
    lines: array = None
    cols: array = None

    def __len__(self):
        return len(self.nodes)

    def span(self, start, stop) -> Order:
        """The entries from ``start`` up to ``stop``, as an Order of their own."""
        lines, cols = self.lines, self.cols
        if lines is not None:
            lines, cols = lines[start:stop], cols[start:stop]
        nodes, counts, sizes = self.nodes, self.counts, self.sizes
        return Order(nodes[start:stop], counts[start:stop], sizes[start:stop], lines, cols)


@dataclass(frozen=True)
class SubstTd:  # not slotted: ``pattern_order`` is kept in its instance dict
    pattern_expr: object  # tree-depth expression over the pattern vertices
    bindings: tuple

    @cached_property
    def pattern_order(self):
        """``post_order`` of the pattern, set by ``parse``; no field, like ``_order``."""
        return post_order(self.pattern_expr)


@dataclass(frozen=True)
class Expression:
    mode: str
    root: object

    @cached_property
    def _order(self):
        """``post_order`` of the tree, set by ``parse``; no field, like ``_front_end``."""
        return post_order(self.root)

    @cached_property
    def _front_end(self):
        """``_scan`` of the tree, run once; no field, so ==, hash and repr ignore it."""
        return _scan(self._order)


def expression_of(mode, order) -> Expression:
    """The Expression of the tree of ``order``, which it keeps as ``_order``."""
    e = Expression(mode, order.nodes[-1])
    e.__dict__["_order"] = order
    return e


def subst_td_of(pattern_order, bindings) -> SubstTd:
    """The SubstTd of the pattern of ``pattern_order``, which it keeps."""
    node = SubstTd(pattern_order.nodes[-1], bindings)
    node.__dict__["pattern_order"] = pattern_order
    return node


class Params(NamedTuple):
    k: int
    h: int
    l: int


TD_NODE_TYPES = (Empty, Vertex, Union, Inc)


def subexpressions(node):
    """Child expression nodes, in order; subst-td pattern expressions are
    payload, not children.  No walk in this package calls it (each inlines
    it); ``perfbench/reference.py`` does."""
    t = type(node)
    if t is Subst or t is SubstTd:
        return [sub for _, sub in node.bindings]
    if t is Inc:
        return (node.child,)
    if t is Union or t is Join:
        return node.children
    return ()


def post_order(root) -> Order:
    """The order of the tree under ``root``: the ``Order`` whose entries
    are its nodes in post-order, each with its child count and subtree
    size, so the subtree of the entry at i is ``order.span(i - size + 1,
    i + 1)``.  Subst-td patterns are payload, not nodes.  A stack walk lists
    the nodes parent first and children last to first: the post-order read
    backwards."""
    nodes, counts = [], []
    stack = [root]
    while stack:  # ``subexpressions``, inlined
        node = stack.pop()
        nodes.append(node)
        t = type(node)
        if t is Inc:
            counts.append(1)
            stack.append(node.child)
        elif t is Union or t is Join:
            counts.append(len(node.children))
            stack += node.children
        elif t is Subst or t is SubstTd:
            counts.append(len(node.bindings))
            stack += [sub for _, sub in node.bindings]
        else:
            counts.append(0)
    nodes.reverse()
    counts = array("I", reversed(counts))
    sizes, open_sizes = array("I"), []  # sizes of the finished subtrees whose parent is open
    for c in counts:
        if not c:
            open_sizes.append(1)
            sizes.append(1)
            continue
        if c == 1:
            size = open_sizes[-1] + 1
        else:
            size = sum(open_sizes[-c:]) + 1
            del open_sizes[1 - c :]
        open_sizes[-1] = size
        sizes.append(size)
    return Order(nodes, counts, sizes)


def locator(order, label=lambda: "root"):
    """``locate(i)`` renders where the entry at i of ``order`` is, such as
    ``root/1/bind[p]/child`` below ``label()``: O(n) once, then O(depth)."""
    index = None

    def locate(i):
        nonlocal index
        if index is None:
            index = _parent_index(order)
        parent, ordinal = index
        steps, j = [], i
        while (p := parent[j]) >= 0:
            steps.append(_step(order.nodes[p], ordinal[j]))
            j = p
        steps.append(label())
        return "/".join(reversed(steps))

    return locate


def _parent_index(order):
    """Per entry, its parent's index (-1 at the root) and its ordinal among
    the parent's children, which end at j - 1 for the entry at j."""
    parent, ordinal, sizes = [-1] * len(order), [0] * len(order), order.sizes
    for j, c in enumerate(order.counts):
        q = j - 1
        for k in range(c - 1, -1, -1):
            parent[q], ordinal[q] = j, k
            q -= sizes[q]
    return parent, ordinal


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
    while stack:  # ``subexpressions``, inlined
        n = stack.pop()
        t = type(n)
        if t is Vertex:
            names.add(n.name)
        elif t is Inc:
            names.add(n.name)
            stack.append(n.child)
        elif t is Union or t is Join:
            stack += n.children
        elif t is Subst or t is SubstTd:
            stack += [sub for _, sub in n.bindings]
    return names


# ---------------------------------------------------------------------------
# Parser

_NAME_CHARS = r"A-Za-z0-9_.\-"
# a character that starts no token; one search per line finds the first
_BAD_CHAR_RE = re.compile(rf"[^\s(){_NAME_CHARS}]")
# the ASCII characters it allows, which one ``bytes.translate`` deletes from
# an ASCII line: the line is clean iff nothing is left
_OK_BYTES = bytes(c for c in range(128) if not _BAD_CHAR_RE.match(chr(c)))
# one token with the whitespace before it: on a line without bad characters
# the matches tile the line, so running sums of their lengths are the
# tokens' end columns; only error messages need those
_TOKEN_RE = re.compile(rf"\s*(?:[()]|[{_NAME_CHARS}]+)")
_PARENS = frozenset("()")
_NO_NAMES = frozenset()  # every inc's empty name sets
_EMPTY = Empty()  # every parsed (empty)


class _Tokens(NamedTuple):
    """The token strings, the line of each ``(`` token, ``open_ends``,
    ``line_ends`` and the source text.  ``open_ends[r]`` is the 0-based
    exclusive column where the r-th ``(`` token ends, which is the 1-based
    column where it starts; ``line_ends[k]`` is the number of tokens on the
    first k + 1 lines.  A token that is not a parenthesis is a name.
    ``error`` finds a token's line by bisecting ``line_ends`` and its column
    by scanning that line again."""

    toks: list
    lines: list
    open_ends: list
    line_ends: list
    text: str

    def error(self, i, message):
        line_ends = self.line_ends
        lineno = bisect_right(line_ends, i) + 1
        first = line_ends[lineno - 2] if lineno > 1 else 0
        line = self.text.splitlines()[lineno - 1].split("#", 1)[0]
        raw = _TOKEN_RE.findall(line)[: i - first + 1]
        col = sum(map(len, raw)) - len(self.toks[i]) + 1
        return ParseError(f"line {lineno} col {col}: {message}")

    def expected(self, i, what):
        return self.error(i, f"expected {what}, found {self.toks[i]!r}")


def _tokenize(text) -> _Tokens:
    """Split ``text`` into ``_Tokens``, or raise ParseError at the first
    character that starts no token.  An ASCII line without one is accepted
    by one C pass, ``bytes.translate`` deleting the ``_OK_BYTES``; any
    other line runs ``_BAD_CHAR_RE.search``, which gives the error its
    column and reads whitespace as ``\\s`` does, Unicode included."""
    tokens = _Tokens([], [], [], [], text)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        if not line.isascii() or line.encode().translate(None, _OK_BYTES):
            bad = _BAD_CHAR_RE.search(line)
            if bad:
                raise ParseError(
                    f"line {lineno} col {bad.start() + 1}: unexpected character {bad.group()!r}"
                )
        toks = line.replace("(", " ( ").replace(")", " ) ").split()
        tokens.toks.extend(toks)
        tokens.line_ends.append(len(tokens.toks))
        # the r-th "(" ends after the text before it and r + 1 "("s
        before = line.split("(")
        before.pop()
        tokens.lines.extend(repeat(lineno, len(before)))
        tokens.open_ends.extend(map(add, accumulate(map(len, before)), count(1)))
    return tokens


def parse(text: str) -> Expression:
    """Parse an expression file into an Expression, or raise ParseError with
    line/column information.

    Each line, after its ``#`` comment is cut, is checked for characters
    that start no token (one ``bytes.translate`` on an ASCII line, a regex
    search on any other) and split into tokens at whitespace and
    parentheses.  One loop over the tokens keeps the open
    union, join, inc, subst and subst-td nodes on an explicit stack, so any
    nesting depth parses.  The loop closes the nodes in post-order, so it
    records the expression's ``_order``, less each subst-td pattern, whose
    entries become that node's ``pattern_order``.  An entry's position is
    the line and the 1-based column of its node's opening parenthesis: the
    loop counts the ``(`` tokens it consumes, and the r-th is on line
    ``lines[r]`` of ``_Tokens`` and ends at column ``open_ends[r]``.  An
    error message finds its line and column from the token's index."""
    tokens = _tokenize(text)
    toks = tokens.toks
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
        opens = 1  # the "(" tokens before token i
        # open nodes: (Union or Join, r, children, start, at),
        # (Inc, r, name, in_names, out_names) and
        # [Subst or SubstTd, r, pattern, bindings, name of the open binding, at, start],
        # where r counts the "(" tokens before the node's, start indexes it,
        # at is the number of entries of the order at its opening and a
        # subst-td pattern is None until its expression is read, then that
        # expression's order
        stack = []
        # the order, as ``Order`` keeps it: every node opens with a "(", so
        # it has at most len(open_ends) entries, whose counts and sizes are
        # preset to a leaf's, 0 and 1, and set where a node has children
        open_lines, open_ends = tokens.lines, tokens.open_ends
        nodes, lines, cols = [], array("I"), array("I")
        add_node, add_line, add_col = nodes.append, lines.append, cols.append
        counts, sizes = _leaf_counts_and_sizes(len(open_ends))
        while True:
            # an expression starts at token i
            if toks[i] != "(":
                raise tokens.expected(i, "'('")
            start, r = i, opens
            opens += 1
            op = toks[i + 1]
            i += 2
            if op == "vertex":
                name = toks[i]
                if name in _PARENS:
                    raise tokens.expected(i, "name")
                if toks[i + 1] != ")":
                    raise tokens.expected(i + 1, "')'")
                i += 2
                node = Vertex(name)
                add_node(node)
                add_line(open_lines[r])
                add_col(open_ends[r])
            elif op == "inc":
                name = toks[i]
                if name in _PARENS:
                    raise tokens.expected(i, "vertex name")
                if toks[i + 1] != "(":
                    raise tokens.expected(i + 1, "'('")
                i += 2
                opens += 1
                if toks[i] == ")":
                    stack.append((Inc, r, name, _NO_NAMES, _NO_NAMES))
                    i += 1
                    continue
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
                    opens += 1
                in_names = frozenset(in_names) if in_names else _NO_NAMES
                out_names = frozenset(out_names) if out_names else _NO_NAMES
                stack.append((Inc, r, name, in_names, out_names))
                i += 1
                continue
            elif op == "empty":
                if toks[i] != ")":
                    raise tokens.expected(i, "')'")
                i += 1
                node = _EMPTY
                add_node(node)
                add_line(open_lines[r])
                add_col(open_ends[r])
            elif op == "union" or op == "join":
                stack.append((Union if op == "union" else Join, r, [], start, len(nodes)))
                if toks[i] == "(":
                    continue  # its first child
                node = None
            elif op == "subst":
                pattern, i, opens = _pattern_at(tokens, i, opens, mode)
                if toks[i] != "(":
                    raise tokens.expected(i, "'('")
                stack.append([Subst, r, pattern, [], None, len(nodes), start])
                i += 1
                opens += 1
                node = None
            elif op == "subst-td":
                stack.append([SubstTd, r, None, [], None, len(nodes), start])
                continue
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
                    _, r, name, in_names, out_names = frame
                    node = Inc(name, in_names, out_names, node)
                    k = len(nodes)
                    counts[k], sizes[k] = 1, sizes[k - 1] + 1  # its child's entry is the last
                    add_node(node)
                    add_line(open_lines[r])
                    add_col(open_ends[r])
                elif kind is Union or kind is Join:
                    _, r, children, start, at = frame
                    if node is not None:
                        children.append(node)
                    if toks[i] != ")":
                        break
                    i += 1
                    if len(children) < 2:
                        op = "union" if kind is Union else "join"
                        raise tokens.error(start + 1, f"{op} needs at least two arguments")
                    node = kind(tuple(children))
                    k = len(nodes)
                    counts[k], sizes[k] = len(children), k - at + 1
                    add_node(node)
                    add_line(open_lines[r])
                    add_col(open_ends[r])
                else:
                    bindings = frame[3]
                    if frame[2] is None:  # a pattern is payload
                        at, k = frame[5], len(nodes)
                        frame[2] = Order(
                            nodes[at:], counts[at:k], sizes[at:k], lines[at:], cols[at:]
                        )
                        del nodes[at:], lines[at:], cols[at:]
                        counts[at:k], sizes[at:k] = _leaf_counts_and_sizes(k - at)
                        if toks[i] != "(":
                            raise tokens.expected(i, "'('")
                        i += 1
                        opens += 1
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
                        opens += 1
                        break
                    if not bindings:
                        raise tokens.error(frame[6] + 1, "substitution needs at least one binding")
                    if toks[i + 1] != ")":
                        raise tokens.expected(i + 1, "')'")
                    i += 2
                    make = Subst if kind is Subst else subst_td_of
                    node = make(frame[2], tuple(bindings))
                    k = len(nodes)
                    counts[k], sizes[k] = len(bindings), k - frame[5] + 1
                    add_node(node)
                    add_line(open_lines[frame[1]])
                    add_col(open_ends[frame[1]])
                stack.pop()
            else:
                break

        if toks[i] != ")":
            raise tokens.expected(i, "')'")
    except IndexError:
        raise ParseError("unexpected end of input") from None
    if i + 1 < len(toks):
        raise tokens.error(i + 1, "trailing input after expression")
    del counts[len(nodes) :], sizes[len(nodes) :]
    return expression_of(mode, Order(nodes, counts, sizes, lines, cols))


_LEAF_COUNT, _LEAF_SIZE = array("I", [0]), array("I", [1])


def _leaf_counts_and_sizes(n):
    """The counts and sizes of n leaves, 0 and 1 each, as ``array('I')``s
    (repeated from one-entry arrays, which costs less than building them)."""
    return _LEAF_COUNT * n, _LEAF_SIZE * n


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


def _pattern_at(tokens, i, opens, mode):
    """The pattern ``(graph (names) (edges))`` at token ``i``, with ``opens``
    ``(`` tokens before it; the index of the token after it, and the number
    of ``(`` tokens before that."""
    toks = tokens.toks
    if toks[i] != "(":
        raise tokens.expected(i, "'('")
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
    opens += 3
    edges = set()
    while toks[i] != ")":
        a, b = _edge_at(tokens, i)
        if a == b:
            raise tokens.error(i, "loop edge in pattern")
        if a not in nameset or b not in nameset:
            raise tokens.error(i, "pattern edge uses undeclared vertex")
        edges.add(canonical_edge(mode, a, b))
        i += 4
        opens += 1
    if toks[i + 1] != ")":
        raise tokens.expected(i + 1, "')'")
    return Pattern(mode, tuple(names), frozenset(edges)), i + 2, opens


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
    return set(_valid_names(e))


def _valid_names(e: Expression) -> dict:
    """``validate_or_raise`` without the copy: the front end's own index of
    the vertex names (a dict), which the caller only reads."""
    names, violations, _, _ = e._front_end
    if violations:
        raise ValidationError("\n".join(str(v) for v in violations))
    return names


def _scan(order):
    """The front-end walk: ``(vertex names, violations, Params, fold stats)``
    of the tree of ``order``, from one name index and inc nesting bottom-up
    and h, l as running maxima; the fold stats are ``framework.FoldStats``'s
    fields, under the rules of ``framework.fold``.  One loop over an order
    keeps a dict from each vertex name to the order index of its latest
    occurrence, which it returns as the names, a stack of whether each
    finished subtree has vertices, and one of the finished incs that no
    finished inc holds, with their inc nestings.  An inc target lies in the
    child iff its latest occurrence is at or after the child's first index.
    A name met again is a duplicate at the lowest common ancestor of its two
    occurrences, the first node to close whose subtree holds the earlier
    one: the pair waits on a heap until then, and each node reports its
    pairs in name order.  A tree-depth pattern is walked by the same loop
    over its ``pattern_order`` with ``td_only``, and its stats dropped."""
    violations = []
    h = l = 0

    def walk(order, label, td_only):
        nonlocal h, l
        locate = locator(order, label)
        last = {}  # vertex name -> order index of its latest occurrence
        setdefault, get = last.setdefault, last.get
        has = []  # per finished subtree whose parent is open: whether it has vertices
        inc_at = []  # the indices of the finished incs that no finished inc holds
        nesting = {}  # inc index -> its inc nesting, where above 1
        pending = []  # heap of (-i, j, name) per name at i met again at j
        n_vertex = n_empty = n_dup = n_subst = n_subst_td = sum_pattern_order = steps = 0

        lines, cols = order.lines, order.cols

        def bad(message):
            pos = None if lines is None else (lines[i], cols[i])
            violations.append(Violation(locate(i), message, pos))

        for i, node, c, size in zip(count(), order.nodes, order.counts, order.sizes):
            t = type(node)
            if td_only and t not in TD_NODE_TYPES:
                bad("pattern is not a tree-depth expression (join/subst not allowed)")
            if t is Vertex:
                n_vertex += 1
                if setdefault(node.name, i) != i:
                    heappush(pending, (-last[node.name], i, node.name))
                    last[node.name] = i
                    n_dup += 1
                has.append(True)
                continue
            if t is Empty:
                has.append(False)
                continue
            if t is Inc:
                before = i - size  # the child's entries follow this index
                if not has[-1]:
                    n_empty += 1
                    has[-1] = True
                ins, outs = node.in_names, node.out_names
                if (
                    ins and min(map(get, ins, repeat(-1))) <= before
                    or outs and min(map(get, outs, repeat(-1))) <= before
                ):
                    for target in sorted(node.neighbor_names):
                        if get(target, -1) <= before:
                            bad(f"unknown inc target {target!r}")
                x = node.name
                if (prev := setdefault(x, i)) != i:
                    last[x] = i
                    n_dup += 1
                    if prev > before:
                        bad(f"duplicate vertex name {x!r}")
                    else:
                        heappush(pending, (-prev, i, x))
                if inc_at and inc_at[-1] > before:  # the child holds incs
                    k = 1
                    while inc_at and inc_at[-1] > before:
                        if (d := nesting.get(inc_at.pop(), 1)) > k:
                            k = d
                    nesting[i] = k + 1
                inc_at.append(i)
                continue
            top = len(has) - c
            kids = has[top:]
            del has[top:]
            if t is Union or t is Join:
                if c < 2:
                    bad("union/join needs at least two children")
                r = sum(kids)  # the children with vertices
                steps += r - 1 if r > 1 else 0
            elif t is Subst:
                pattern = node.pattern
                for message in _check_pattern(pattern):
                    bad(message)
                for message in _check_bindings(node, pattern.names, kids):
                    bad(message)
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
                    bad("subst-td pattern has fewer than two vertices")
                for message in _check_bindings(node, pattern_names, kids):
                    bad(message)
                n_subst_td += 1
                sum_pattern_order += len(node.bindings)  # one per pattern vertex, once valid
                if not td_only:
                    l = max(l, depth)
            else:  # a leaf, as post_order counts no children for it
                bad(f"unknown node type {t.__name__}")
            if pending and -pending[0][0] > i - size:  # a duplicate's earlier occurrence is here
                duplicates = []
                while pending and -pending[0][0] > i - size:
                    duplicates.append(heappop(pending)[2])
                for nm in sorted(duplicates):
                    bad(f"duplicate vertex name {nm!r}")
            has.append(any(kids))
        k = max(nesting.values(), default=1) if inc_at else 0
        # each vertex or inc adds a name or repeats one
        n_inc, n_empty = len(last) + n_dup - n_vertex, n_empty + (not has[0])
        counts = dict(
            vertex=n_vertex, empty=n_empty, inc=n_inc, subst=n_subst + steps, subst_td=n_subst_td
        )
        stats = (
            {kind: n for kind, n in counts.items() if n}, sum_pattern_order + 2 * steps, k,
            n_vertex + n_empty, max(h, 2) if steps else h, l,
        )
        return last, k, stats

    names, k, stats = walk(order, lambda: "root", False)
    return names, violations, Params(k, h, l), stats


def _check_pattern(pattern):
    """The messages about an explicit ``pattern``."""
    names = set(pattern.names)
    if len(pattern.names) < 2:
        yield "pattern needs at least two vertices"
    if len(names) != len(pattern.names):
        yield "duplicate pattern vertex name"
    for (a, b) in sorted(pattern.edges):
        if a == b:
            yield f"loop edge on pattern vertex {a!r}"
        if a not in names or b not in names:
            yield f"pattern edge ({a!r}, {b!r}) uses undeclared vertex"


def _check_bindings(node, pattern_names, child_names):
    """The messages about ``node``'s bindings, whose children have the
    vertex names ``child_names``, each a set or a bool that says whether
    there are any: only its truth is read."""
    seen = set()
    pattern_set = set(pattern_names)
    for (bname, _), names in zip(node.bindings, child_names):
        if bname in seen:
            yield f"pattern vertex {bname!r} bound twice"
        seen.add(bname)
        if bname not in pattern_set:
            yield f"binding for unknown pattern vertex {bname!r}"
        if not names:
            yield f"binding {bname!r} is the empty graph"
    for pname in pattern_names:
        if pname not in seen:
            yield f"pattern vertex {pname!r} has no binding"


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(e: Expression) -> Graph:
    """Build the concrete graph denoted by a validated expression."""
    verts, out, _ = evaluate_node(e._order, e.mode)
    if e.mode == UNDIRECTED:  # each edge is listed at both ends
        edges = ((u, v) for u in verts for v in out.get(u, ()) if u < v)
    else:
        edges = ((u, v) for u in verts for v in out.get(u, ()))
    return Graph(e.mode, verts, edges)


def evaluate_node(order, mode, runs=None):
    """Vertex list and adjacency lists ``(verts, out, inn)`` of the tree of
    ``order`` (an ``Order``), all fresh.  ``runs``, ``[start, stop)``
    pairs, may instead name a subtree's edge-bearing parts, in post-order,
    as an inc handler gets them (``framework.HandlerSet``): the adjacency
    lists are then the same, and ``verts`` means nothing.  ``out[v]`` lists
    the heads of v's out-edges, ``inn[v]`` the tails of its in-edges; in
    undirected mode ``inn`` is ``out``.  The adjacency is sparse: ``out``
    and ``inn`` are ``defaultdict(list)``s that hold a list only for a
    vertex with an edge in that direction, so a vertex without edges costs
    one entry of ``verts`` (read the lists with ``out.get(v, ())``).  One
    loop over the entries appends the vertices in leaf order, so each
    subtree's vertices form one run of ``verts``, and stacks the run starts
    of subtrees whose parent is still to come.  A join, a substitution into
    a pattern with edges or a subst-td reads its children's runs off that
    stack, so each pattern edge between two runs with vertices extends the
    lists of their vertices directly.  A tree-depth pattern's edges are
    read from its inc nodes (``td_pattern_edges``)."""
    directed = mode == DIRECTED
    verts, out = [], defaultdict(list)
    inn = defaultdict(list) if directed else out
    starts = []
    nodes, counts = order.nodes, order.counts
    for start, stop in ((0, len(nodes)),) if runs is None else runs:
        for node, c in zip(nodes[start:stop], counts[start:stop]):
            t = type(node)
            if not c:  # a subtree's run starts at its first entry, a leaf
                starts.append(len(verts))
            if t is Vertex:
                verts.append(node.name)
            elif t is Inc:  # its run starts where its child's does
                x = node.name
                verts.append(x)
                if directed and node.in_names:
                    inn[x] = list(node.in_names)
                    for u in node.in_names:
                        out[u].append(x)
                heads = node.out_names if directed else node.neighbor_names
                if heads:
                    out[x] = list(heads)
                    for u in heads:
                        inn[u].append(x)
            elif t is Union or t is Subst and not node.pattern.edges:
                del starts[len(starts) + 1 - c :]
            elif t is Join or t is Subst or t is SubstTd:
                bounds = starts[len(starts) - c :]
                bounds.append(len(verts))
                del starts[len(starts) + 1 - c :]
                if t is Join:
                    pairs = (permutations if directed else combinations)(range(c), 2)
                else:
                    if t is Subst:
                        pattern_edges = node.pattern.edges
                    else:
                        pattern_edges = td_pattern_edges(node.pattern_order, mode)
                    part = {bn: i for i, (bn, _) in enumerate(node.bindings)}
                    pairs = [(part[p], part[q]) for p, q in pattern_edges]
                for p, q in pairs:
                    # a run is copied only for an edge, so edgeless chains stay linear
                    part_p = verts[bounds[p] : bounds[p + 1]]
                    part_q = verts[bounds[q] : bounds[q + 1]]
                    if not (part_p and part_q):
                        continue  # a child without vertices adds no edge
                    for a in part_p:
                        out[a].extend(part_q)
                    for b in part_q:
                        inn[b].extend(part_p)
            elif t is not Empty:
                raise InputError(f"cannot evaluate node of type {t.__name__}")
    return verts, out, inn


def td_pattern_edges(pattern_order, mode):
    """Edges of the tree-depth pattern whose order (``post_order``) is
    ``pattern_order``, read from its inc nodes, the last first: for an inc
    vertex x, ``(u, x)`` per in-name u and ``(x, v)`` per out-name v; in
    undirected mode ``(x, u)`` once per neighbor u."""
    directed = mode == DIRECTED
    for node in reversed(pattern_order.nodes):
        if type(node) is Inc:
            x = node.name
            if directed:
                yield from ((u, x) for u in node.in_names)
                yield from ((x, v) for v in node.out_names)
            else:
                yield from ((x, u) for u in node.neighbor_names)


# ---------------------------------------------------------------------------
# Parameters


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
    names, same edges.  Subst-td patterns are left alone, and a rebuilt
    subst-td node keeps its pattern's order.  An inc, subst or subst-td
    node none of whose children changed is returned itself, so subtrees
    without union or join are shared with ``e``.  One loop over the order
    keeps a stack of the rewritten subtrees."""
    vals, order = [], e._order
    for node, c in zip(order.nodes, order.counts):
        t = type(node)
        top = len(vals) - c
        kids = vals[top:]
        del vals[top:]
        if t is Inc:
            if kids[0] is not node.child:
                node = Inc(node.name, node.in_names, node.out_names, kids[0])
        elif t is Subst or t is SubstTd:
            if any(v is not sub for v, (_, sub) in zip(kids, node.bindings)):
                bindings = tuple((bn, v) for (bn, _), v in zip(node.bindings, kids))
                if t is Subst:
                    node = Subst(node.pattern, bindings)
                else:
                    node = subst_td_of(node.pattern_order, bindings)
        elif t is Union or t is Join:
            survivors = [v for v in kids if type(v) is not Empty]
            if not survivors:
                node = _EMPTY
            else:
                pat = (_PAT_K2 if t is Join else _PAT_I2)[e.mode]
                node = survivors[0]
                for child in survivors[1:]:
                    node = Subst(pat, (("a", node), ("b", child)))
        vals.append(node)
    return Expression(e.mode, vals[0])
