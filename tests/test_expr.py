"""Expression AST: parsing, validation, evaluation, parameters,
normalization, printing round trips."""

import copy
import dataclasses
import pickle
import re
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphexpr import (
    DIRECTED,
    UNDIRECTED,
    Expression,
    Join,
    Subst,
    Vertex,
    all_pairs,
    count_triangles,
    evaluate,
    gen_fixture,
    gen_random,
    is_negative_cycle,
    ncd_outcome,
    normalize,
    params,
    parse,
    validate,
)
from graphexpr.cli import format_expression
from graphexpr.expr import (
    _BAD_CHAR_RE,
    Empty,
    Inc,
    ParseError,
    Pattern,
    SubstTd,
    Union,
    evaluate_node,
    subexpressions,
    td_pattern_edges,
)
from graphexpr.graphs import canonical_edge
from graphexpr.oracle import GenSpec

from brute_force import oracle_treedepth
from conftest import corpus_instance


# ---------------------------------------------------------------------------
# parse


def test_parse_smallest_program():
    e = parse("(directed (vertex a))")
    assert e.mode == DIRECTED
    assert e.root == Vertex("a")


def test_parse_join_of_two_vertices():
    e = parse("(undirected (join (vertex a) (vertex b)))")
    assert e.root == Join((Vertex("a"), Vertex("b")))


def test_parse_inc_with_out_edge():
    e = parse("(undirected (inc x ((x a)) (vertex a)))")
    assert isinstance(e.root, Inc)
    assert e.root.out_names == frozenset({"a"})
    assert e.root.in_names == frozenset()
    assert e.root.child == Vertex("a")


def test_parse_comments_and_whitespace():
    text = """
    # a K2, spread over lines
    (undirected
      (join (vertex a)   # left
            (vertex b))) # right
    """
    assert evaluate(parse(text)).m == 1


def test_parse_reports_position_on_syntax_error():
    with pytest.raises(ParseError, match=r"line 2"):
        parse("(directed\n  (vertx a))")


def test_parse_unknown_operator_and_arity():
    with pytest.raises(ParseError, match="unknown operator"):
        parse("(directed (frobnicate a))")
    with pytest.raises(ParseError, match="at least two"):
        parse("(directed (union (vertex a)))")


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError, match="empty"):
        parse("   # nothing here\n")


_EVERY_KIND = (
    "(directed\r\n"
    "  # every kind (with its position)\r\n"
    "  (union\t(vertex a)\t(empty)\r\n"
    "    (inc x ((x b)\r\n"
    "            (c x)) (join (vertex b) (vertex c)))\r\n"
    "    (subst (graph (p q) ((p q))) ((p (vertex d))\r\n"
    "                                  (q (vertex e))))\r\n"
    "\t(subst-td (inc r ((r s)) (vertex s)) ((r (vertex f)) (s (vertex g))))))\r\n"
)


def _positions(node):
    # (kind, pos) of the node, its pattern and everything below, in preorder
    out = [(type(node).__name__, node.pos)]
    if type(node) is Subst:
        out.append(("Pattern", node.pattern.pos))
    if type(node) is SubstTd:
        out += _positions(node.pattern_expr)
    for kid in subexpressions(node):
        out += _positions(kid)
    return out


def test_parse_node_positions():
    # pos is (line, column of the node's "("), 1-based: a tab is one
    # column, CRLF ends a line, and a comment's parentheses count for nothing
    assert _positions(parse(_EVERY_KIND).root) == [
        ("Union", (3, 3)),
        ("Vertex", (3, 10)),
        ("Empty", (3, 21)),
        ("Inc", (4, 5)),
        ("Join", (5, 20)),
        ("Vertex", (5, 26)),
        ("Vertex", (5, 37)),
        ("Subst", (6, 5)),
        ("Pattern", (6, 12)),
        ("Vertex", (6, 38)),
        ("Vertex", (7, 38)),
        ("SubstTd", (8, 2)),
        ("Inc", (8, 12)),
        ("Vertex", (8, 27)),
        ("Vertex", (8, 43)),
        ("Vertex", (8, 58)),
    ]


def test_parse_inc_edge_must_touch_new_vertex():
    with pytest.raises(ParseError, match="endpoint"):
        parse("(directed (inc x ((a b)) (union (vertex a) (vertex b))))")


_BIND_XY = "((a (vertex x)) (b (vertex y)))"


@pytest.mark.parametrize(
    "text, message",
    [
        ("(directed (vertex a!))", "line 1 col 20: unexpected character '!'"),
        (
            "(directed\n  (union (vertex a)\n    (vertex b$)))",
            "line 3 col 14: unexpected character '$'",
        ),
        # a bad character is reported even after an earlier syntax error
        ("(directed (vertex a b))\n@", "line 2 col 1: unexpected character '@'"),
        ("(directed (vertex a)) # ok: $ is in a comment", None),
        ("(directed (union (vertex a) (vertex b)", "unexpected end of input"),
        ("(directed (vertex a)", "unexpected end of input"),
        ("(directed", "unexpected end of input"),
        ("(directed (inc x ((x a", "unexpected end of input"),
        ("(directed (subst (graph (a b) ()) ((a (vertex x))", "unexpected end of input"),
        ("", "empty input: expected (MODE expr); the empty graph is written (empty)"),
        (
            "  # only a comment\n\n",
            "empty input: expected (MODE expr); the empty graph is written (empty)",
        ),
        ("directed (vertex a)", "line 1 col 1: expected '(', found 'directed'"),
        ("(directed (vertex a b))", "line 1 col 21: expected ')', found 'b'"),
        ("(directed (union a (vertex b)))", "line 1 col 18: expected '(', found 'a'"),
        ("(directed (inc x ((x a) b) (vertex a)))", "line 1 col 25: expected '(', found 'b'"),
        ("(directed (inc x ((x a b)) (vertex a)))", "line 1 col 24: expected ')', found 'b'"),
        ("(directed (inc x (x a) (vertex a)))", "line 1 col 19: expected '(', found 'x'"),
        (
            "(directed (subst (graph (a b) ()) ((a (vertex x) (b (vertex y)))))",
            "line 1 col 50: expected ')', found '('",
        ),
        (
            "(undirected # a comment (with parens\n (vertex a) # more\n x)",
            "line 3 col 2: expected ')', found 'x'",
        ),
        (
            "(undirected (vertex a) # tail\n # (vertex b)\n (vertex c))",
            "line 3 col 2: expected ')', found '('",
        ),
        ("(directed (vertex ()))", "line 1 col 19: expected name, found '('"),
        ("(directed (inc x ((x ()) (vertex a)))", "line 1 col 22: expected name, found '('"),
        ("(directed (inc ( ((x a)) (vertex a)))", "line 1 col 16: expected vertex name, found '('"),
        (
            "(directed (subst (graph (a ( ) ()) ((a (vertex x)))))",
            "line 1 col 28: expected pattern vertex, found '('",
        ),
        (
            "(directed (subst (graph (a b) ()) ((( (vertex x)))))",
            "line 1 col 37: expected pattern vertex, found '('",
        ),
        ("(mixed (vertex a))", "line 1 col 2: expected 'directed' or 'undirected', found 'mixed'"),
        ("( ( (vertex a))", "line 1 col 3: expected 'directed' or 'undirected', found '('"),
        ("(directed (vertex a)) (vertex b)", "line 1 col 23: trailing input after expression"),
        ("(directed (vertex a))\n\n  )", "line 3 col 3: trailing input after expression"),
        ("(directed (union (vertex a)))", "line 1 col 12: union needs at least two arguments"),
        ("(undirected\n (join\n   (vertex a)\n ))", "line 2 col 3: join needs at least two arguments"),
        ("(directed (inc x ((x x)) (vertex a)))", "line 1 col 19: loop edge on 'x'"),
        (
            "(directed\n  (inc x ((x a)\n          (a b)) (union (vertex a) (vertex b))))",
            "line 3 col 11: inc edge must have 'x' as one endpoint",
        ),
        ("(directed\r\n  (vertex a b))", "line 2 col 13: expected ')', found 'b'"),
        ("(directed\t(union\t(vertex a)\t(vertex b c)))", "line 1 col 39: expected ')', found 'c'"),
        (
            "(directed # a (comment) with (parens\n (inc x ((x a) (a)) (vertex a)))",
            "line 2 col 18: expected name, found ')'",
        ),
        ("(directed (frobnicate a))", "line 1 col 12: unknown operator 'frobnicate'"),
        ("(directed (( a))", "line 1 col 12: unknown operator '('"),
        ("(directed ())", "line 1 col 12: unknown operator ')'"),
        (
            f"(directed (subst (grph (a b) ()) {_BIND_XY}))",
            "line 1 col 19: expected pattern '(graph ...)'",
        ),
        (
            "(directed (subst (graph (a) ()) ((a (vertex x)))))",
            "line 1 col 19: pattern needs at least two vertices",
        ),
        (
            "(directed (subst (graph (a a) ()) ((a (vertex x)))))",
            "line 1 col 19: duplicate pattern vertex name",
        ),
        (
            f"(directed (subst (graph (a b) ((a a))) {_BIND_XY}))",
            "line 1 col 32: loop edge in pattern",
        ),
        (
            f"(directed (subst\n  (graph (a b)\n    ((a b) (a c))) {_BIND_XY}))",
            "line 3 col 12: pattern edge uses undeclared vertex",
        ),
        (
            "(directed (subst (graph (a b) ()) ()))",
            "line 1 col 12: substitution needs at least one binding",
        ),
        (
            "(directed (subst-td (union (vertex p) (vertex q)) ()))",
            "line 1 col 12: substitution needs at least one binding",
        ),
        ("(directed (union))", "line 1 col 12: union needs at least two arguments"),
        ("(directed (join x))", "line 1 col 17: expected '(', found 'x'"),
    ],
)
def test_parse_error_messages(text, message):
    # the exact text, position included, of every error the parser raises
    if message is None:
        parse(text)
        return
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


def _parse_error(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return str(info.value)


@pytest.mark.parametrize(
    "ch",
    [chr(c) for c in range(128)] + ["é", "\xa0", "\u2028", "\u3000", "\ufeff"],
    ids=lambda ch: f"U+{ord(ch):04X}",
)
def test_parse_accepts_exactly_the_characters_the_alphabet_allows(ch):
    # each character inside a vertex name, between two tokens and in a
    # comment: ASCII lines take a faster screen than other lines, and both
    # must read every character as the regex does
    in_name = f"(directed (vertex a{ch}b))"
    between = f"(directed (union (vertex a){ch}(vertex b)))"
    assert parse(f"(directed (vertex a)) #{ch}") == parse("(directed (vertex a))")
    allowed = _BAD_CHAR_RE.match(ch) is None
    if re.fullmatch(r"\s", ch):
        assert allowed
        assert parse(between) == parse(between.replace(ch, " "))
        assert _parse_error(in_name).endswith("expected ')', found 'b'")
    elif re.fullmatch(r"[A-Za-z0-9_.\-]", ch):
        assert allowed
        assert parse(in_name).root == Vertex(f"a{ch}b")
        assert _parse_error(between) == f"line 1 col 28: expected '(', found '{ch}'"
    elif ch in "()":
        assert allowed
        assert "unexpected character" not in _parse_error(in_name)
        assert "unexpected character" not in _parse_error(between)
    elif ch == "#":  # starts a comment, which cuts the rest of the line
        assert _parse_error(in_name) == _parse_error(between) == "unexpected end of input"
    else:
        assert not allowed
        assert _parse_error(in_name) == f"line 1 col 20: unexpected character {ch!r}"
        assert _parse_error(between) == f"line 1 col 28: unexpected character {ch!r}"


_TEXT_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
# what an "insert" edit puts in: parentheses, a name, operator keywords, a
# comment (it runs to the next line break) and a line break
_INSERTS = ["(", ")", "x", "vertex", "inc", "union", "join", "subst", "subst-td", "graph",
            "empty", "# c (x))", "\n"]


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    mode=st.sampled_from(["directed", "undirected"]),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["drop", "duplicate", "swap", "truncate", "insert"]),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=4,
    ),
    seps=st.lists(st.sampled_from([" ", "\n", "\t", "\r\n"]), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_parse_token_mutations(seed, mode, edits, seps):
    # a corpus text with tokens dropped, duplicated, swapped, inserted or
    # cut off, joined by spaces, tabs and line breaks, either fails with
    # ParseError or parses to an expression whose printed text is a fixed
    # point of print . parse; any other exception fails
    toks = _TEXT_TOKEN_RE.findall(format_expression(corpus_instance(seed, mode, 12)))
    for op, i, j in edits:
        i, j = i % len(toks), j % len(toks)
        if op == "drop":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        elif op == "swap":
            toks[i], toks[j] = toks[j], toks[i]
        elif op == "insert":
            toks.insert(i, _INSERTS[j % len(_INSERTS)])
        else:
            del toks[i:]
        if not toks:
            break
    try:
        e = parse("".join(tok + seps[k % len(seps)] for k, tok in enumerate(toks)))
    except ParseError:
        return
    text = format_expression(e)
    assert format_expression(parse(text)) == text


# ---------------------------------------------------------------------------
# validate


def test_validate_unknown_inc_target():
    e = parse("(undirected (inc x ((x z)) (vertex a)))")
    assert any("unknown inc target" in v.message for v in validate(e))


def test_validate_subst_td_pattern_must_be_tree_depth():
    e = parse(
        "(undirected (subst-td (join (vertex p) (vertex q))"
        " ((p (vertex a)) (q (vertex b)))))"
    )
    assert any("not a tree-depth expression" in v.message for v in validate(e))


def test_validate_duplicate_vertex_names():
    e = parse("(undirected (union (vertex a) (vertex a)))")
    assert any("duplicate vertex name" in v.message for v in validate(e))


def test_validate_binding_totality_and_emptiness():
    e = parse(
        "(undirected (subst (graph (p q) ((p q))) ((p (vertex a)))))"
    )
    assert any("no binding" in v.message for v in validate(e))
    e2 = parse(
        "(undirected (subst (graph (p q) ((p q))) ((p (vertex a)) (q (empty)))))"
    )
    assert any("empty graph" in v.message for v in validate(e2))


def test_validate_accepts_wellformed():
    e = parse(
        "(directed (subst (graph (p q) ((p q)))"
        " ((p (union (vertex a) (vertex b))) (q (vertex c)))))"
    )
    assert validate(e) == []


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "(directed (union (vertex a) (subst (graph (p q) ((p q)))"
            " ((p (inc x ((x zz)) (vertex b))) (q (vertex c))))))",
            "root/1/bind[p]: unknown inc target 'zz'",
        ),
        (
            "(directed (subst-td (inc r () (union (vertex q) (inc q () (vertex p))))"
            " ((p (vertex a)) (q (vertex b)) (r (vertex c)))))",
            "root/pattern/child: duplicate vertex name 'q'",
        ),
    ],
)
def test_validate_reports_node_location(text, expected):
    found = [f"{v.path}: {v.message}" for v in validate(parse(text))]
    assert expected in found


BAD_TEXT = (
    "(directed (union (inc x ((x zz)) (vertex a)) (subst (graph (p q) ((p q)))"
    " ((p (vertex a)) (q (vertex b))))))"
)


def test_validate_results_are_copies_of_the_cached_walk():
    # validate, validate_or_raise and params read one cached walk; what a
    # caller does to a returned list or set changes nothing later
    from graphexpr import validate_or_raise
    from graphexpr.expr import ValidationError

    bad = parse(BAD_TEXT)
    first = validate(bad)
    assert [v.message for v in first] == [
        "unknown inc target 'zz'",
        "duplicate vertex name 'a'",
    ]
    first.clear()
    validate(bad).append("junk")
    assert [str(v) for v in validate(bad)] == [str(v) for v in validate(parse(BAD_TEXT))]
    with pytest.raises(ValidationError, match="unknown inc target 'zz'"):
        validate_or_raise(bad)

    good = parse("(directed (inc x ((x a)) (union (vertex a) (vertex b))))")
    names = validate_or_raise(good)
    assert names == {"a", "b", "x"}
    names.add("junk")
    names.discard("a")
    assert validate_or_raise(good) == {"a", "b", "x"}
    assert validate(good) == []
    assert params(good) == (1, 0, 0)


def test_cached_walk_leaves_expression_equality_alone():
    a = parse(BAD_TEXT)
    b = parse(BAD_TEXT)
    validate(a)
    params(a)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert a != parse("(directed (vertex a))")
    # the cache is no field: a copy built from the fields walks afresh
    assert Expression(a.mode, a.root) == a


def test_hand_built_expression_matches_the_parsed_one(tc_corpus):
    # an Expression built from nodes gives the walk's results as parsed
    # text does, valid or not
    texts = [BAD_TEXT, "(directed (join (vertex a) (inc x ((a x)) (vertex b))))"]
    for text in texts:
        e = parse(text)
        built = Expression(e.mode, _copy(e.root))
        # hand-built nodes carry no text position
        assert [(v.path, v.message) for v in validate(built)] == [
            (v.path, v.message) for v in validate(e)
        ]
        assert params(built) == params(e)
    for e, _, p in tc_corpus[:100]:
        built = Expression(e.mode, _copy(e.root))
        assert built.root is not e.root
        assert params(built) == p
        assert validate(built) == validate(e) == []


def _assert_parse_records_the_post_order(text):
    e = parse(text)
    _assert_is_the_post_order(e.__dict__["_order"], e.root)  # set by parse, not by a walk


def _assert_is_the_post_order(recorded, root):
    # and so is each subst-td pattern's, however the patterns nest
    from graphexpr.expr import post_order

    walked = post_order(root)
    assert len(recorded) == len(walked)
    # no object per entry: the counts and sizes are C int arrays
    for got, want in ((recorded.counts, walked.counts), (recorded.sizes, walked.sizes)):
        assert type(got) is array and got.typecode == "I" and got == want
    for node, want in zip(recorded.nodes, walked.nodes):
        assert node is want
        if isinstance(node, SubstTd):
            _assert_is_the_post_order(node.__dict__["pattern_order"], node.pattern_expr)
    assert recorded.nodes[-1] is root and recorded.sizes[-1] == len(recorded)


def test_parse_records_the_post_order(tc_corpus, paths_corpus):
    # parse's order is the walk's: the same nodes by identity, child counts
    # and subtree sizes, with subst-td patterns left out however they nest
    for e, *_ in tc_corpus[:300] + paths_corpus[:300]:
        _assert_parse_records_the_post_order(format_expression(e))
    _assert_parse_records_the_post_order(_EVERY_KIND)
    # patterns with incs and unions, one of them holding a subst-td of its own
    _assert_parse_records_the_post_order(
        "(directed (join (vertex z) (subst-td"
        " (inc p ((p q)) (union (vertex q) (inc r ((r q)) (empty))))"
        " ((p (vertex a)) (q (union (vertex b) (empty))) (r (inc c () (vertex d)))))))"
    )
    _assert_parse_records_the_post_order(
        "(undirected (union (vertex z) (subst-td"
        " (union (vertex p) (subst-td (inc s ((s t)) (vertex t)) ((s (vertex q)) (t (vertex r)))))"
        " ((p (vertex a)) (q (join (vertex b) (vertex c)))))))"
    )
    d = 10**5
    deep = "(undirected " + "(union " * (d - 1) + "(vertex v0)"
    deep += "".join(f" (vertex v{i}))" for i in range(1, d)) + ")"
    _assert_parse_records_the_post_order(deep)


def test_parse_memory_per_order_entry_of_a_wide_union_of_edgeless_incs():
    # every inc without edges shares one empty name set, and the order
    # keeps no object per entry: 192 bytes per order entry stay allocated
    # on CPython 3.11 (x86-64), against 248 with a (node, count, size)
    # tuple per entry and 504 when each inc kept two empty frozensets
    r = 10**5
    text = "(directed (union " + " ".join(f"(inc v{i} () (empty))" for i in range(r)) + "))"
    tracemalloc.start()
    try:
        e = parse(text)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(e._order)
    assert n == 2 * r + 1
    assert kept <= 220 * n, f"{kept / n:.0f} bytes per order entry"


def _copy(node):
    """A fresh copy of the tree under ``node``, built node by node."""
    if isinstance(node, Inc):
        return Inc(node.name, node.in_names, node.out_names, _copy(node.child))
    if isinstance(node, (Union, Join)):
        return type(node)(tuple(_copy(c) for c in node.children))
    if isinstance(node, (Subst, SubstTd)):
        payload = node.pattern if isinstance(node, Subst) else node.pattern_expr
        return type(node)(payload, tuple((bn, _copy(sub)) for bn, sub in node.bindings))
    return type(node)(*([node.name] if isinstance(node, Vertex) else []))


# ---------------------------------------------------------------------------
# value semantics of the nodes


def _every_node(e):
    # the nodes of ``e``, its patterns and its subst-td patterns' nodes
    nodes = []
    for node in e._order.nodes:
        nodes.append(node)
        if type(node) is Subst:
            nodes.append(node.pattern)
        if type(node) is SubstTd:
            nodes += node.pattern_order.nodes
    return nodes


def test_nodes_are_frozen():
    nodes = _every_node(parse(_EVERY_KIND))
    assert {type(n) for n in nodes} == {Empty, Vertex, Union, Join, Inc, Pattern, Subst, SubstTd}
    for node in nodes:
        for f in dataclasses.fields(node):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, f.name, getattr(node, f.name))


def test_node_equality_hash_and_repr_ignore_the_position():
    for node in _every_node(parse(_EVERY_KIND)):
        assert node.pos is not None
        moved = dataclasses.replace(node, pos=(99, 99))
        assert moved == node and hash(moved) == hash(node)
        assert repr(moved) == repr(node) and "pos=" not in repr(node)


_TD_TEXT = (
    "(undirected (join (vertex z) (subst-td"
    " (inc p ((p q) (p r)) (union (vertex q) (inc r ((r s)) (vertex s))))"
    " ((p (vertex a)) (q (join (vertex b) (vertex e))) (r (inc c ((c d)) (vertex d)))"
    " (s (vertex f))))))"
)


@pytest.mark.parametrize(
    "duplicate",
    [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["deepcopy", "pickle"],
)
def test_copied_expressions_are_equal_and_solve_alike(duplicate):
    for node in _every_node(parse(_EVERY_KIND)):
        assert dataclasses.replace(node) == node
        assert duplicate(node) == node and duplicate(node).pos == node.pos
    e = parse(_TD_TEXT)
    want = count_triangles(e)  # the front end's results are cached in e
    copied = duplicate(e)
    assert copied == e and hash(copied) == hash(e) and copied.root is not e.root
    assert _positions(copied.root) == _positions(e.root)
    td = copied.root.children[1]
    # the recorded pattern order came along, and holds the copy's nodes
    assert td.__dict__["pattern_order"] == e.root.children[1].pattern_order
    assert td.pattern_order.nodes[-1] is td.pattern_expr
    assert copied._order.nodes[-1] is copied.root
    assert count_triangles(copied) == want == count_triangles(parse(_TD_TEXT))
    assert params(copied) == params(e) == (1, 0, 2)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_join_is_k2():
    g = evaluate(parse("(undirected (join (vertex a) (vertex b)))"))
    assert set(g.vertices) == {"a", "b"}
    assert g.edges == frozenset({("a", "b")})


def test_evaluate_subst_gives_module_the_pattern_neighborhood():
    e = parse(
        "(undirected (subst (graph (p q) ((p q)))"
        " ((p (union (vertex a) (vertex b))) (q (vertex c)))))"
    )
    g = evaluate(e)
    assert set(g.vertices) == {"a", "b", "c"}
    assert g.edges == frozenset({("a", "c"), ("b", "c")})


def test_evaluate_inc_directed_out_edges():
    e = parse("(directed (inc x ((x a) (x b)) (union (vertex a) (vertex b))))")
    g = evaluate(e)
    assert g.edges == frozenset({("x", "a"), ("x", "b")})


def test_evaluate_directed_join_is_bidirected():
    g = evaluate(parse("(directed (join (vertex a) (vertex b)))"))
    assert g.edges == frozenset({("a", "b"), ("b", "a")})


def test_evaluate_reads_a_node_without_children_as_no_vertices():
    # validation rejects a hand-built union or join without children, but
    # evaluating it still adds no vertices and leaves its siblings' runs alone
    empty_union, empty_join = Union(()), Join(())
    for root, vertices, edges in (
        (Join((Vertex("a"), empty_union)), ("a",), set()),
        (Join((empty_join, Vertex("a"), Vertex("b"))), ("a", "b"), {("a", "b"), ("b", "a")}),
        (Union((Vertex("a"), empty_join, Vertex("b"))), ("a", "b"), set()),
    ):
        e = Expression(DIRECTED, root)
        assert validate(e)
        g = evaluate(e)
        assert (g.vertices, set(g.edges)) == (vertices, edges)
        # no adjacency list for a vertex whose join partner has no vertices
        _, out, inn = evaluate_node(e._order, DIRECTED)
        assert set(out) == {u for u, _ in edges} and set(inn) == {v for _, v in edges}


def test_long_normalized_union_chain_is_linear():
    # normalize turns an r-way union into a substitution chain r deep; a
    # vertex list copied at every level made this quadratic (about 12 s)
    from graphexpr import count_triangles
    from graphexpr.expr import Union

    r = 50_000
    root = Union(tuple(Vertex(f"v{i}") for i in range(r)))
    start = time.perf_counter()
    g = evaluate(normalize(Expression(DIRECTED, root)))
    assert (g.n, g.m) == (r, 0)
    assert time.perf_counter() - start < 5.0
    start = time.perf_counter()
    assert count_triangles(Expression(UNDIRECTED, root)) == 0
    assert time.perf_counter() - start < 5.0


def _naive_graph(node, mode):
    """Vertex set and edge set of ``node`` by definition, recursively: a
    reference for the evaluator that shares none of its code."""

    def edge(a, b):
        return (a, b) if mode == DIRECTED or a < b else (b, a)

    def substitute(pattern_edges, bindings):
        parts = {bn: _naive_graph(sub, mode) for bn, sub in bindings}
        verts = set().union(*(vs for vs, _ in parts.values()))
        edges = set().union(*(es for _, es in parts.values()))
        for p, q in pattern_edges:
            edges |= {edge(a, b) for a in parts[p][0] for b in parts[q][0]}
        return verts, edges

    if isinstance(node, Empty):
        return set(), set()
    if isinstance(node, Vertex):
        return {node.name}, set()
    if isinstance(node, Inc):
        verts, edges = _naive_graph(node.child, mode)
        edges |= {edge(node.name, u) for u in node.out_names}
        edges |= {edge(u, node.name) for u in node.in_names}
        return verts | {node.name}, edges
    if isinstance(node, (Union, Join)):
        bindings = list(enumerate(node.children))
        pairs = []
        if isinstance(node, Join):
            pairs = [(i, j) for i, _ in bindings for j, _ in bindings if i != j]
        return substitute(pairs, bindings)
    if isinstance(node, Subst):
        return substitute(node.pattern.edges, node.bindings)
    _, pattern_edges = _naive_graph(node.pattern_expr, mode)
    return substitute(pattern_edges, node.bindings)


def _assert_evaluates_like_naive(e):
    verts, edges = _naive_graph(e.root, e.mode)
    g = evaluate(e)
    assert len(g.vertices) == len(verts) and set(g.vertices) == verts
    assert g.edges == edges
    # the adjacency lists themselves list every edge once, at both ends
    vertex_list, out, inn = evaluate_node(e._order, e.mode)
    assert vertex_list == list(g.vertices)
    assert all(out.values()) and all(inn.values())  # a list only where an edge is
    listed = sorted((u, v) for u in vertex_list for v in out[u])
    if e.mode == DIRECTED:
        assert listed == sorted(edges)
        assert sorted((u, v) for v in vertex_list for u in inn[v]) == listed
    else:
        assert inn is out
        assert listed == sorted(edges | {(b, a) for a, b in edges})


def _shuffle_bindings(node, rng):
    """``node`` with the bindings of every substitution in a random order,
    which leaves the evaluated graph unchanged."""
    if isinstance(node, Inc):
        return Inc(node.name, node.in_names, node.out_names, _shuffle_bindings(node.child, rng))
    if isinstance(node, (Union, Join)):
        return type(node)(tuple(_shuffle_bindings(c, rng) for c in node.children))
    if isinstance(node, (Subst, SubstTd)):
        bindings = [(bn, _shuffle_bindings(sub, rng)) for bn, sub in node.bindings]
        rng.shuffle(bindings)
        payload = node.pattern if isinstance(node, Subst) else node.pattern_expr
        return type(node)(payload, tuple(bindings))
    return node


def test_evaluate_matches_naive_evaluator_on_corpus(tc_corpus, paths_corpus):
    for e, *_ in tc_corpus + paths_corpus:
        _assert_evaluates_like_naive(e)
        _assert_evaluates_like_naive(normalize(e))


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    mode=st.sampled_from([DIRECTED, UNDIRECTED]),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_evaluate_matches_naive_evaluator_hypothesis(seed, mode, rng):
    e = corpus_instance(seed % 100000, mode, 30)
    _assert_evaluates_like_naive(e)
    _assert_evaluates_like_naive(Expression(mode, _shuffle_bindings(e.root, rng)))


def _reshape(node, rng):
    """``node`` with the children of every union and join permuted and
    randomly re-associated into nested nodes of the same kind, and the
    bindings of every substitution permuted, which leaves the evaluated
    graph unchanged."""
    if isinstance(node, Inc):
        return Inc(node.name, node.in_names, node.out_names, _reshape(node.child, rng))
    if isinstance(node, (Union, Join)):
        parts = [_reshape(c, rng) for c in node.children]
        rng.shuffle(parts)
        while len(parts) > 2 and rng.random() < 0.7:
            i = rng.randrange(len(parts) - 1)
            j = rng.randint(i + 2, len(parts))
            if j - i < len(parts):
                parts[i:j] = [type(node)(tuple(parts[i:j]))]
        return type(node)(tuple(parts))
    if isinstance(node, (Subst, SubstTd)):
        bindings = [(bn, _reshape(sub, rng)) for bn, sub in node.bindings]
        rng.shuffle(bindings)
        payload = node.pattern if isinstance(node, Subst) else node.pattern_expr
        return type(node)(payload, tuple(bindings))
    return node


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    mode=st.sampled_from([DIRECTED, UNDIRECTED]),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_answers_are_invariant_under_reshaped_unions_and_joins(seed, mode, rng):
    # permuted and re-associated union/join children and permuted bindings
    # denote the same graph; on integer weights every float sum is exact,
    # so msp and all distances must agree bit for bit
    e = corpus_instance(seed % 100000, mode, 30)
    r = Expression(mode, _reshape(e.root, rng))
    if mode == UNDIRECTED:
        assert count_triangles(r) == count_triangles(e)
        return
    names = sorted(evaluate(e).vertices)
    w = {v: float(rng.randint(-3, 5)) for v in names}
    base, _ = ncd_outcome(e, w)
    got, _ = ncd_outcome(r, w)
    assert is_negative_cycle(got) == is_negative_cycle(base)
    if is_negative_cycle(base):
        return
    assert got.msp == base.msp
    assert dict(all_pairs(r, w)) == dict(all_pairs(e, w))


def test_td_pattern_edges_are_the_evaluated_pattern_edges(tc_corpus, paths_corpus):
    seen = {DIRECTED: 0, UNDIRECTED: 0}
    for e, *_ in tc_corpus + paths_corpus:
        stack = [e.root]
        while stack:
            node = stack.pop()
            stack.extend(subexpressions(node))
            if not isinstance(node, SubstTd):
                continue
            listed = list(td_pattern_edges(node.pattern_order, e.mode))
            want = evaluate(Expression(e.mode, node.pattern_expr)).edges
            assert len(listed) == len(want)
            assert {canonical_edge(e.mode, a, b) for a, b in listed} == want
            seen[e.mode] += 1
    assert min(seen.values()) >= 1000


@pytest.mark.parametrize(
    "mode, want", [(DIRECTED, [("a", "x"), ("x", "a")]), (UNDIRECTED, [("x", "a")])]
)
def test_td_pattern_edges_of_a_neighbor_both_in_and_out(mode, want):
    # one edge each way when directed, one edge when undirected
    pattern = parse(f"({mode} (inc x ((x a) (a x)) (vertex a)))")._order
    assert sorted(td_pattern_edges(pattern, mode)) == want


# ---------------------------------------------------------------------------
# params


def k5_expression():
    return Expression(
        UNDIRECTED, Join(tuple(Vertex(c) for c in "abcde"))
    )


def test_params_clique_as_join_is_all_zero():
    assert params(k5_expression()) == (0, 0, 0)


def test_params_substar_fixture_has_inc_nesting_three():
    assert params(gen_fixture("substar", 5)).k == 3


def test_params_clique_substituted_star():
    assert tuple(params(gen_fixture("lemma7.2", 3))) == (0, 0, 3)


def test_member():
    # an expression lies in the class (k, h, l) iff params is at most
    # (k, h, l) in every component
    e = gen_fixture("substar", 4)
    assert all(p <= 99 for p in params(e))
    assert all(p <= 0 for p in params(k5_expression()))
    assert params(e).k > 2


# ---------------------------------------------------------------------------
# normalize


def test_normalize_union_left_fold():
    e = parse("(undirected (union (vertex a) (vertex b) (vertex c)))")
    root = normalize(e).root
    assert isinstance(root, Subst)
    assert root.pattern.edges == frozenset()
    inner = dict(root.bindings)["a"]
    assert isinstance(inner, Subst)
    assert dict(inner.bindings)["a"] == Vertex("a")
    assert dict(inner.bindings)["b"] == Vertex("b")
    assert dict(root.bindings)["b"] == Vertex("c")


def test_normalize_join_becomes_adjacent_pattern():
    e = parse("(undirected (join (vertex a) (vertex b)))")
    root = normalize(e).root
    assert isinstance(root, Subst)
    assert root.pattern.edges == frozenset({("a", "b")})


def test_normalize_without_union_join_is_fixpoint():
    e = parse("(directed (inc x ((x a)) (vertex a)))")
    assert normalize(e).root == e.root


def test_normalize_drops_empty_children():
    e = parse("(undirected (union (empty) (vertex a) (empty)))")
    assert normalize(e).root == Vertex("a")
    e2 = parse("(undirected (union (empty) (empty)))")
    assert evaluate(normalize(e2)).n == 0


def test_normalize_preserves_value_and_parameters(tc_corpus):
    # the full 1000-expression undirected corpus, plus a directed sample
    cases = [(e, g) for e, g, _ in tc_corpus]
    cases += [
        (e, evaluate(e))
        for e in (corpus_instance(seed, "directed", 25) for seed in range(150))
    ]
    for e, g in cases:
        ne = normalize(e)
        ng = evaluate(ne)
        assert set(g.vertices) == set(ng.vertices)
        assert g.edges == ng.edges
        p, np_ = params(e), params(ne)
        assert np_.k == p.k
        assert np_.l == p.l
        assert np_.h <= max(p.h, 2)


def _rebuilt_normal_form(node, mode):
    """Reference normalization that builds every node anew, by recursion."""
    if isinstance(node, Inc):
        child = _rebuilt_normal_form(node.child, mode)
        return Inc(node.name, node.in_names, node.out_names, child)
    if isinstance(node, (Subst, SubstTd)):
        bindings = tuple((bn, _rebuilt_normal_form(sub, mode)) for bn, sub in node.bindings)
        payload = node.pattern if isinstance(node, Subst) else node.pattern_expr
        return type(node)(payload, bindings)
    if isinstance(node, (Union, Join)):
        parts = [_rebuilt_normal_form(c, mode) for c in node.children]
        parts = [p for p in parts if not isinstance(p, Empty)]
        if not parts:
            return Empty()
        edges = {("a", "b")} if isinstance(node, Join) else set()
        if isinstance(node, Join) and mode == DIRECTED:
            edges.add(("b", "a"))
        pattern = Pattern(mode, ("a", "b"), frozenset(edges))
        acc = parts[0]
        for part in parts[1:]:
            acc = Subst(pattern, (("a", acc), ("b", part)))
        return acc
    return node


def _has_union_or_join(node):
    return isinstance(node, (Union, Join)) or any(map(_has_union_or_join, subexpressions(node)))


def _all_nodes(node):
    yield node
    for child in subexpressions(node):
        yield from _all_nodes(child)


def test_normalize_shares_unchanged_subtrees(tc_corpus, paths_corpus):
    shared_incs = 0
    for e, *_ in tc_corpus + paths_corpus:
        ne = normalize(e)
        assert ne == Expression(e.mode, _rebuilt_normal_form(e.root, e.mode))
        # a normalized expression comes back as the same tree
        assert normalize(ne).root is ne.root
        # inc subtrees without union or join below are not rebuilt
        kept = {id(n) for n in _all_nodes(ne.root)}
        for node in _all_nodes(e.root):
            if isinstance(node, Inc) and not _has_union_or_join(node):
                assert id(node) in kept
                shared_incs += 1
    assert shared_incs > 1000
    e = parse("(directed (union (inc x ((x a)) (vertex a)) (vertex b)))")
    assert normalize(e).root.bindings[0][1] is e.root.children[0]


def test_normalize_keeps_the_recorded_pattern_orders(monkeypatch, tc_corpus, paths_corpus):
    # a rebuilt subst-td node keeps the order that parse recorded for its
    # pattern, so solving a normalized tree builds its main order and no
    # pattern's
    from graphexpr import apsp_outcome, expr, triangle_summary

    tc_texts = [format_expression(e) for e, _, p in tc_corpus if p.l >= 1][:100]
    paths_cases = [(format_expression(e), w) for e, _, w, p in paths_corpus if p.l >= 1][:100]
    calls, roots, rebuilt = [], [], 0
    real = expr.post_order
    monkeypatch.setattr(expr, "post_order", lambda root: calls.append(id(root)) or real(root))

    def normalized(text):
        nonlocal rebuilt
        e = parse(text)
        ne = normalize(e)
        roots.append(id(ne.root))
        parsed = {id(node) for node in e._order.nodes}
        rebuilt += sum(type(n) is SubstTd and id(n) not in parsed for n in ne._order.nodes)
        return ne

    for text in tc_texts:
        triangle_summary(normalized(text))
    for text, w in paths_cases:
        ne = normalized(text)
        ncd_outcome(ne, w)
        apsp_outcome(ne, w)
    assert calls == roots and len(roots) == 200
    assert rebuilt > 50


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_print_parse_round_trip(mode):
    for seed in range(120):
        e = corpus_instance(seed, mode, 30)
        assert parse(format_expression(e)) == e


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    mode=st.sampled_from(["directed", "undirected"]),
)
@settings(max_examples=50, deadline=None)
def test_print_parse_round_trip_hypothesis(seed, mode):
    e = corpus_instance(seed % 100000, mode, 20)
    assert parse(format_expression(e)) == e


def test_print_parse_round_trip_deep():
    # 10^4 levels, every node kind on the spine; texts are compared because
    # the dataclass __eq__ of a tree this deep exceeds the recursion limit
    node = Vertex("v0")
    pattern = Pattern(DIRECTED, ("a", "b"), frozenset({("a", "b")}))
    for i in range(1, 10**4):
        leaf = Vertex(f"v{i}")
        kind = i % 5
        if kind == 0:
            node = Union((node, leaf))
        elif kind == 1:
            node = Join((leaf, node, Empty()))
        elif kind == 2:
            node = Inc(f"v{i}", frozenset({"v0"}), frozenset({"v0", "v1"}), node)
        elif kind == 3:
            node = Subst(pattern, (("a", leaf), ("b", node)))
        else:
            node = SubstTd(Union((Vertex("p"), Vertex("q"))), (("p", node), ("q", leaf)))
    text = format_expression(Expression(DIRECTED, node))
    assert text.count("(subst-td ") == 2000
    assert format_expression(parse(text)) == text


def test_round_trip_fixtures():
    for name, p in [("lemma7.1", 3), ("substar", 4), ("lemma7.2", 2), ("cliquependant", 2)]:
        e = gen_fixture(name, p)
        assert parse(format_expression(e)) == e


# ---------------------------------------------------------------------------
# tree-depth witness property


def test_td_only_expressions_bound_tree_depth():
    # a pure tree-depth expression with inc nesting k evaluates to a graph
    # of tree-depth <= k
    for seed in range(60):
        k = 1 + seed % 4
        e = gen_random(GenSpec(UNDIRECTED, k=k, budget=min(10, k + seed % 7), seed=seed))
        g = evaluate(e)
        if g.n <= 10:
            assert oracle_treedepth(g) <= k


def test_pattern_vertex_order_matches_evaluation():
    e = gen_fixture("substar", 3)
    order = evaluate(e).vertices
    assert order[-1] == "c"  # center is added last


def test_validate_programmatic_bad_pattern():
    from graphexpr.expr import Pattern

    pat = Pattern(UNDIRECTED, ("p",), frozenset())
    e = Expression(UNDIRECTED, Subst(pat, (("p", Vertex("a")),)))
    msgs = [v.message for v in validate(e)]
    assert any("at least two" in m for m in msgs)


def test_validate_subst_td_binding_mismatch():
    e = parse(
        "(undirected (subst-td (union (vertex p) (vertex q))"
        " ((p (vertex a)) (r (vertex b)))))"
    )
    msgs = [v.message for v in validate(e)]
    assert any("unknown pattern vertex 'r'" in m for m in msgs)
    assert any("'q' has no binding" in m for m in msgs)


def test_validate_inc_target_inside_td_pattern():
    e = parse(
        "(undirected (subst-td (inc p2 ((p2 zz)) (inc p1 () (empty)))"
        " ((p1 (vertex a)) (p2 (vertex b)))))"
    )
    msgs = [v.message for v in validate(e)]
    assert any("unknown inc target 'zz'" in m for m in msgs)
