"""Command-line interface.

Commands: ``eval``, ``params``, ``solve {tc|ncd|apsp}``, ``check``,
``gen {random|fixture}``, ``bench``.  Reports are line oriented
(``key=value`` per line, stable order); matrices and bench results are TSV.

Exit codes: 0 ok, 1 check mismatch, 2 input error, 3 internal invariant
breach (``--verify`` or fold accounting).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time

from . import oracle, paths, triangles
from .errors import ContractViolation, InputError, VerificationError
from .expr import (
    Empty,
    Expression,
    Inc,
    Join,
    Subst,
    SubstTd,
    Union,
    Vertex,
    evaluate,
    params,
    parse,
    validate_or_raise,
)
from .framework import FoldStats, assert_stats
from .graphs import DIRECTED, INF, UNDIRECTED, is_negative_cycle, parse_weights
from .oracle import GenSpec, gen_fixture, gen_random, gen_weights

# ---------------------------------------------------------------------------
# Canonical expression printer


def format_expression(e: Expression) -> str:
    return f"({e.mode} {format_node(e.root)})"


def format_node(node) -> str:
    """Canonical text of an expression node.  Iterative: an explicit stack
    holds the nodes still to print and the literal text between them, and
    every piece is appended to one list that is joined once."""
    out = []
    stack = [node]
    while stack:
        item = stack.pop()
        t = type(item)
        if t is str:
            out.append(item)
        elif t is Vertex:
            out.append(f"(vertex {item.name})")
        elif t is Inc:
            x = item.name
            # "(x u) (x w)" and "(u x) (w x)": one join per direction
            edges = []
            if item.out_names:
                edges.append(f"({x} " + f") ({x} ".join(sorted(item.out_names)) + ")")
            if item.in_names:
                edges.append("(" + f" {x}) (".join(sorted(item.in_names)) + f" {x})")
            out.append(f"(inc {x} ({' '.join(edges)}) ")
            stack += (")", item.child)
        elif t is Union or t is Join:
            out.append("(union" if t is Union else "(join")
            stack.append(")")
            for child in reversed(item.children):
                stack += (child, " ")
        elif t is Empty:
            out.append("(empty)")
        elif t is Subst:
            pat = item.pattern
            names = " ".join(pat.names)
            edges = " ".join(f"({a} {b})" for a, b in sorted(pat.edges))
            out.append(f"(subst (graph ({names}) ({edges}))")
            _push_bindings(stack, item.bindings)
        elif t is SubstTd:
            out.append("(subst-td ")
            _push_bindings(stack, item.bindings)
            stack.append(item.pattern_expr)
        else:
            raise InputError(f"cannot print node of type {t.__name__}")
    return "".join(out)


def _push_bindings(stack, bindings):
    """Push ``" ((name expr) ...))"``, the bindings and the closing
    parenthesis of a substitution, so that it pops in order."""
    if not bindings:
        stack.append(" ())")
        return
    stack.append(")))")
    for name, sub in reversed(bindings[1:]):
        stack += (sub, f") ({name} ")
    name, sub = bindings[0]
    stack += (sub, f" (({name} ")


# ---------------------------------------------------------------------------
# Helpers


def fmt(value) -> str:
    """Stable numeric formatting; infinity prints as the literal ``inf``."""
    if value == INF:
        return "inf"
    if value == -INF:
        return "-inf"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".10g")


def _read(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write_out(text, path):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_expression(path):
    """The validated expression in ``path`` and its vertex names."""
    e = parse(_read(path))
    return e, validate_or_raise(e)


def _params_lines(p):
    return [f"k={p.k}", f"h={p.h}", f"l={p.l}"]


def _stats(stats):
    """The fold statistics that ``solve`` prints as ``key=value`` lines and
    ``bench`` as columns, in order."""
    counts = stats.counts
    return {
        "sum-pattern-order": stats.sum_pattern_order,
        "max-inc-nesting": stats.max_inc_nesting,
        "leaf-count": stats.leaf_count,
        "nodes-inc": counts.get("inc", 0),
        "nodes-subst": counts.get("subst", 0),
        "nodes-subst-td": counts.get("subst_td", 0),
    }


def _solve(problem, e, w, verify=False):
    """``(value, FoldStats)`` of ``problem``'s fold on ``e`` under weights ``w``."""
    if problem == "tc":
        return triangles.triangle_summary(e, verify=verify)
    # ncd reports no potential, so it leaves the root's unread
    outcome = paths._ncd_fold if problem == "ncd" else paths.apsp_outcome
    return outcome(e, w, verify=verify)


def _emit(lines):
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# Commands


def cmd_eval(args):
    e, _ = _load_expression(args.file)
    g = evaluate(e)
    lines = [f"n={g.n}", f"m={g.m}"]
    lines += sorted(g.vertices)
    lines += [f"{a}\t{b}" for a, b in sorted(g.edges)]
    _write_out("\n".join(lines) + "\n", args.output)
    return 0


def cmd_params(args):
    e, _ = _load_expression(args.file)
    _emit(_params_lines(params(e)))
    return 0


def cmd_solve(args):
    e = parse(_read(args.file))
    p = params(e)
    w = None
    if args.problem != "tc":
        if not args.weights:
            raise InputError(f"solve {args.problem} requires a weights file")
        w = parse_weights(_read(args.weights))
    start = time.perf_counter()
    value, stats = _solve(args.problem, e, w, args.verify)
    wall = time.perf_counter() - start
    report = [f"command=solve {args.problem}", f"file={args.file}", f"mode={e.mode}"]
    report += _params_lines(p)
    matrix = None
    if args.problem == "tc":
        report.append(f"triangles={value.t} n={value.n} m={value.m}")
    elif is_negative_cycle(value):
        report.append("negative-cycle=true")
    else:
        # a large matrix holds far fewer distinct values than pairs
        rows = value.rows if args.problem == "apsp" else []
        text = {x: fmt(x) for x in {value.msp}.union(*rows)}
        report += ["negative-cycle=false", f"msp={text[value.msp]}"]
        if args.problem == "apsp":
            # row by row in name order, straight from the dense rows
            names = list(value.min_out)
            order = sorted(range(len(names)), key=names.__getitem__)
            matrix = "\n".join(
                f"{names[i]}\t{names[j]}\t{text[rows[i][j]]}" for i in order for j in order
            )

    if args.problem == "apsp" and args.output:
        # before the report, so a path that cannot be written prints none
        if matrix is not None:
            _write_out(matrix + "\n", args.output)
            matrix = None
        else:
            # a negative cycle leaves no older matrix behind; a device or a
            # link (-o /dev/null, /dev/stdout) is no matrix, and stays
            try:
                if stat.S_ISREG(os.lstat(args.output).st_mode):
                    os.remove(args.output)
            except FileNotFoundError:
                pass
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc}") from None

    # the solver validated; each vertex name is one leaf or inc of its fold
    n = stats.counts.get("vertex", 0) + stats.counts.get("inc", 0)
    violations = assert_stats(stats, n, p)
    report += [f"{key}={x}" for key, x in _stats(stats).items()]
    report.append(f"stats-ok={'true' if not violations else 'false'}")
    report.append(f"wall-time-s={wall:.6f}")
    _emit(report)
    if matrix is not None:
        sys.stdout.write(matrix + "\n")
    for v in violations:
        print(f"stats violation: {v}", file=sys.stderr)
    return 3 if violations else 0


def cmd_check(args):
    e, names = _load_expression(args.file)
    if len(names) > 500:
        raise InputError(f"check is limited to 500 vertices (got {len(names)})")
    g = evaluate(e)
    report = [f"command=check {args.problem}", f"file={args.file}"]
    if args.problem == "tc":
        got = triangles.count_triangles(e)
        want = oracle.oracle_triangles(g)
        dev = abs(got - want)
        ok = got == want
    else:
        if args.weights:
            w = parse_weights(_read(args.weights))
        else:
            w = gen_weights(names, -5.0, 5.0, args.seed)
            report.append(f"seed={args.seed}")
        if args.problem == "ncd":
            got = paths.detect_negative_cycle(e, w)
            want = oracle.oracle_ncd(g, w)
            dev = float(got != want)
            ok = got == want
        else:
            got = paths.all_pairs(e, w)
            want = oracle.oracle_apsp(g, w)
            if is_negative_cycle(got) or is_negative_cycle(want):
                ok = is_negative_cycle(got) and is_negative_cycle(want)
                dev = 0.0 if ok else INF
            else:
                # equal infinities deviate by 0, an infinity and a number by inf
                devs = (0.0 if got[pq] == d else abs(got[pq] - d) for pq, d in want.items())
                dev = max(devs, default=0.0)
                # sums of large weights round by more than an absolute bound
                ok = dev <= max(paths._COMPARE_TOL, paths.solve_tolerance({v: w[v] for v in names}))
    report.append(f"check={'pass' if ok else 'fail'} dev={fmt(dev)}")
    _emit(report)
    return 0 if ok else 1


def cmd_gen(args):
    if args.what == "random":
        mode = DIRECTED if args.mode == "D" else UNDIRECTED
        e = gen_random(GenSpec(mode, args.k, args.h, args.l, args.budget, args.seed))
        header = (
            f"# random expression: mode={mode} k={args.k} h={args.h} l={args.l} "
            f"budget={args.budget} seed={args.seed}\n"
        )
    else:
        e = gen_fixture(args.name, args.p, args.clique)
        header = _fixture_header(args)
    text = header + format_expression(e) + "\n"
    _write_out(text, args.output)
    if args.output:
        report = [f"command=gen {args.what}", f"path={args.output}"]
        if args.what == "random":
            report.append(f"seed={args.seed}")
        _emit(report + _params_lines(params(e)))
    return 0


_FIXTURE_NOTES = {
    "lemma7.1": (
        "p non-adjacent vertex pairs, fully joined across pairs, plus an apex\n"
        "# adjacent to the first vertex of every pair. The join part is a cograph\n"
        "# (union of pairs under a join), the apex is one vertex addition:\n"
        "# params (1, 0, 0)."
    ),
    "substar": (
        "star with p rays, each ray subdivided once, as a pure tree-depth\n"
        "# expression: leaf under middle under center gives inc nesting 3:\n"
        "# params (3, 0, 0). Its tree-depth is exactly 3 for p >= 2."
    ),
    "lemma7.2": (
        "cliques substituted into every vertex of a subdivided star given as a\n"
        "# tree-depth pattern expression of nesting 3: params (0, 0, 3)."
    ),
    "cliquependant": (
        "clique on p vertices with one pendant per clique vertex, written as a\n"
        "# single substitution pattern of order 2p: params (0, 2p, 0)."
    ),
}


def _fixture_header(args):
    note = _FIXTURE_NOTES[args.name]
    extra = f" clique={args.clique}" if args.name == "lemma7.2" else ""
    return f"# fixture {args.name} p={args.p}{extra}: {note}\n"


def cmd_bench(args):
    try:
        sizes = sorted(map(int, args.sizes.split(",")))
    except ValueError:
        raise InputError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    mode = UNDIRECTED if args.problem == "tc" else DIRECTED
    stat_keys = [key.replace("-", "_") for key in _stats(FoldStats())]
    header = ["n", "m", "k", "h", "l", "wall_time_s", *stat_keys, "rep"]
    rows = ["\t".join(header)]
    for idx, budget in enumerate(sizes):
        e = gen_random(GenSpec(mode, args.k, args.h, args.l, budget, args.seed + idx))
        w = None
        if args.problem != "tc":
            # the path solvers do not count edges: only the graph gives m
            g = evaluate(e)
            n, m = g.n, g.m
            # apsp draws no negative weight, so that its solves reach the expansion
            lo = 0.0 if args.problem == "apsp" else -5.0
            w = gen_weights(g.vertices, lo, 5.0, args.seed + idx)
        for rep in range(args.reps):
            start = time.perf_counter()
            value, stats = _solve(args.problem, e, w)
            wall = time.perf_counter() - start
            if args.problem == "tc":
                n, m = value.n, value.m
            row = (n, m, args.k, args.h, args.l, f"{wall:.6f}", *_stats(stats).values(), rep)
            rows.append("\t".join(map(str, row)))
    _write_out("\n".join(rows) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphexpr",
        description="Evaluate algebraic graph expressions and solve triangle "
        "counting, negative cycle detection and vertex-weighted all-pairs "
        "shortest paths on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to a vertex/edge list")
    p_eval.add_argument("file")
    p_eval.add_argument("-o", "--output", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_params = sub.add_parser("params", help="print the parameter triple (k, h, l)")
    p_params.add_argument("file")
    p_params.set_defaults(func=cmd_params)

    p_solve = sub.add_parser("solve", help="run a solver on an expression")
    p_solve.add_argument("problem", choices=("tc", "ncd", "apsp"))
    p_solve.add_argument("file")
    p_solve.add_argument("weights", nargs="?", default=None)
    p_solve.add_argument("-o", "--output", default=None, help="matrix output file (apsp)")
    p_solve.add_argument("--verify", action="store_true",
                         help="materialize subgraphs at every fold node and check invariants")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="compare a solver against the brute-force oracle")
    p_check.add_argument("problem", choices=("tc", "ncd", "apsp"))
    p_check.add_argument("file")
    p_check.add_argument("weights", nargs="?", default=None)
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for generated weights when no weights file is given")
    p_check.set_defaults(func=cmd_check)

    # the options of gen random and bench, where -h is a parameter, not help
    generated = argparse.ArgumentParser(add_help=False)
    generated.add_argument("--help", action="help")
    generated.add_argument("-k", type=int, default=0)
    generated.add_argument("-h", type=int, default=0)
    generated.add_argument("-l", type=int, default=0)
    generated.add_argument("--seed", type=int, default=0)
    generated.add_argument("-o", "--output", default=None)

    p_gen = sub.add_parser("gen", help="generate expressions")
    gen_sub = p_gen.add_subparsers(dest="what", required=True)
    p_rand = gen_sub.add_parser("random", add_help=False, parents=[generated],
                                help="seeded random expression with exact parameters")
    p_rand.add_argument("--mode", choices=("D", "U"), required=True)
    p_rand.add_argument("--budget", type=int, required=True)
    p_rand.set_defaults(func=cmd_gen)
    p_fix = gen_sub.add_parser("fixture", help="named separation-family fixture")
    p_fix.add_argument("name", choices=oracle.FIXTURE_NAMES)
    p_fix.add_argument("-p", type=int, required=True)
    p_fix.add_argument("--clique", type=int, default=1,
                       help="clique size minus one for lemma7.2 modules")
    p_fix.add_argument("-o", "--output", default=None)
    p_fix.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", add_help=False, parents=[generated],
                             help="timing table over a seeded corpus")
    p_bench.add_argument("problem", choices=("tc", "ncd", "apsp"),
                         help="tc runs on undirected, ncd and apsp on directed expressions")
    p_bench.add_argument("--sizes", required=True, help="comma-separated vertex budgets")
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, VerificationError) as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
