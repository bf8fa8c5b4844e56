"""Command-line surface: outputs, determinism, exit codes."""

import time

import pytest

from graphexpr import cli

K4 = "(undirected (join (vertex a) (vertex b) (vertex c) (vertex d)))\n"
NEG_CYCLE = "(directed (inc x ((a x) (x a)) (vertex a)))\n"
EDGE = "(directed (subst (graph (p q) ((p q))) ((p (vertex a)) (q (vertex b)))))\n"


@pytest.fixture
def k4_file(tmp_path):
    f = tmp_path / "k4.expr"
    f.write_text(K4)
    return str(f)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(out):
    pairs = {}
    for line in out.splitlines():
        for chunk in line.split(" "):
            if "=" in chunk:
                key, _, val = chunk.partition("=")
                pairs[key] = val
    return pairs


# ---------------------------------------------------------------------------
# eval / params


def test_eval_k2(capsys, tmp_path):
    f = tmp_path / "k2.expr"
    f.write_text("(undirected (join (vertex b) (vertex a)))\n")
    code, out, _ = run(capsys, "eval", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=2" and lines[1] == "m=1"
    assert lines[2:] == ["a", "b", "a\tb"]


def test_eval_empty_graph(capsys, tmp_path):
    f = tmp_path / "e.expr"
    f.write_text("(directed (empty))\n")
    code, out, _ = run(capsys, "eval", str(f))
    assert code == 0
    assert out.splitlines() == ["n=0", "m=0"]


@pytest.mark.parametrize(
    "mode, problems", [("directed", ("ncd", "apsp")), ("undirected", ("tc",))]
)
def test_eval_and_verify_on_a_union_of_edgeless_vertices(capsys, tmp_path, mode, problems):
    # no vertex has an adjacency list; every one is still listed and solved
    f = tmp_path / "e.expr"
    f.write_text(f"({mode} (union (vertex c) (inc a () (empty)) (union (vertex b) (empty))))\n")
    code, out, _ = run(capsys, "eval", str(f))
    assert code == 0
    assert out.splitlines() == ["n=3", "m=0", "a", "b", "c"]
    w = tmp_path / "w.tsv"
    w.write_text("a\t-1\nb\t2\nc\t0\n")
    for problem in problems:
        weights = (str(w),) if problem != "tc" else ()
        code, out, _ = run(capsys, "solve", problem, str(f), *weights, "--verify")
        assert code == 0 and kv(out)["stats-ok"] == "true"


def test_eval_fixture_matches_hand_count(capsys, tmp_path):
    from graphexpr import gen_fixture
    from graphexpr.cli import format_expression

    f = tmp_path / "l71.expr"
    f.write_text(format_expression(gen_fixture("lemma7.1", 2)) + "\n")
    code, out, _ = run(capsys, "eval", str(f))
    assert code == 0
    assert kv(out)["n"] == "5" and kv(out)["m"] == "6"


def test_eval_parse_failure_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.expr"
    f.write_text("(undirected (vertex a)")
    code, _, err = run(capsys, "eval", str(f))
    assert code == 2
    assert "error" in err


def test_eval_validation_failure_exit_2(capsys, tmp_path):
    f = tmp_path / "dup.expr"
    f.write_text("(undirected (union (vertex a) (vertex a)))")
    code, _, err = run(capsys, "eval", str(f))
    assert code == 2
    assert "duplicate" in err


def test_validation_message_names_the_node_position(capsys, tmp_path):
    # the column of the node's "(" counts a tab as one character, and a
    # comment with parentheses shifts nothing
    f = tmp_path / "unknown.expr"
    f.write_bytes(
        b"(undirected\r\n  # a (comment)\r\n"
        b"  (union (vertex a)\t(inc x ((x zz))\r\n    (vertex b))))\r\n"
    )
    code, _, err = run(capsys, "eval", str(f))
    assert code == 2
    assert err == "error: root/1: unknown inc target 'zz' (line 3 col 21)\n"


@pytest.mark.parametrize(
    "argv", [["params", "BAD"], ["solve", "ncd", "BAD", "W"], ["solve", "ncd", "E", "BAD"]]
)
def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path, argv):
    # a decode error is bad input (exit 2), not a check mismatch (exit 1)
    files = {"BAD": tmp_path / "bad", "E": tmp_path / "c.expr", "W": tmp_path / "w.tsv"}
    files["BAD"].write_bytes(b"(directed (vertex a))\na\t1\n\xff\n")
    files["E"].write_text(NEG_CYCLE)
    files["W"].write_text("a\t1\nx\t1\n")
    code, out, err = run(capsys, *(str(files.get(arg, arg)) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {files['BAD']}: 'utf-8' codec can't decode")


def test_a_byte_order_mark_is_not_read_as_text(capsys, tmp_path):
    # an expression file and a weights file saved with a UTF-8 BOM read as
    # the same text without it
    bom = b"\xef\xbb\xbf"
    f = tmp_path / "e.expr"
    f.write_bytes(bom + b"(directed (inc x ((a x) (x b)) (union (vertex a) (vertex b))))\n")
    code, out, err = run(capsys, "params", str(f))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["k=1", "h=0", "l=0"]
    w = tmp_path / "w.tsv"
    w.write_bytes(bom + b"a\t1\nb\t2\nx\t3\n")
    code, out, err = run(capsys, "solve", "ncd", str(f), str(w))
    assert (code, err) == (0, "")
    assert "negative-cycle=false" in out.splitlines()
    assert "msp=1" in out.splitlines()


def test_duplicate_names_are_listed_in_sorted_order(tmp_path):
    # each process hashes strings with its own seed; the violations of one
    # node are listed in name order, whatever the seed
    import os
    import subprocess
    import sys
    from pathlib import Path

    f = tmp_path / "dup.expr"
    four = "(union (vertex d) (vertex b) (vertex a) (vertex c))"
    f.write_text(f"(undirected (union {four} {four}))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    want = "error: " + "\n".join(
        f"root: duplicate vertex name {nm!r} (line 1 col 13)" for nm in "abcd"
    ) + "\n"
    for seed in "1234":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "graphexpr.cli", "params", str(f)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", want), seed


def test_params_output(capsys, tmp_path):
    from graphexpr import gen_fixture
    from graphexpr.cli import format_expression

    f = tmp_path / "s.expr"
    f.write_text(format_expression(gen_fixture("substar", 3)) + "\n")
    code, out, _ = run(capsys, "params", str(f))
    assert code == 0
    assert out.splitlines() == ["k=3", "h=0", "l=0"]


# ---------------------------------------------------------------------------
# solve


def test_solve_tc_k4(capsys, k4_file):
    code, out, _ = run(capsys, "solve", "tc", k4_file)
    assert code == 0
    assert "triangles=4 n=4 m=6" in out
    pairs = kv(out)
    assert pairs["stats-ok"] == "true"
    assert "wall-time-s" in pairs


def test_solve_tc_rejects_directed(capsys, tmp_path):
    f = tmp_path / "d.expr"
    f.write_text("(directed (vertex a))")
    code, _, err = run(capsys, "solve", "tc", str(f))
    assert code == 2
    assert "undirected" in err


def test_solve_ncd(capsys, tmp_path):
    f = tmp_path / "c.expr"
    f.write_text(NEG_CYCLE)
    w = tmp_path / "w.tsv"
    w.write_text("a\t-3\nx\t2\n")
    code, out, _ = run(capsys, "solve", "ncd", str(f), str(w))
    assert code == 0
    assert "negative-cycle=true" in out

    w.write_text("a\t3\nx\t2\n")
    code, out, _ = run(capsys, "solve", "ncd", str(f), str(w))
    assert code == 0
    assert "negative-cycle=false" in out
    assert kv(out)["msp"] == "2"


def test_solve_ncd_requires_weights(capsys, tmp_path):
    f = tmp_path / "c.expr"
    f.write_text(NEG_CYCLE)
    code, _, err = run(capsys, "solve", "ncd", str(f))
    assert code == 2
    assert "weights" in err


def test_solve_ncd_missing_weight_entry(capsys, tmp_path):
    f = tmp_path / "c.expr"
    f.write_text(NEG_CYCLE)
    w = tmp_path / "w.tsv"
    w.write_text("a\t1\n")
    code, _, err = run(capsys, "solve", "ncd", str(f), str(w))
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize(
    "problem, text, code_want",
    [
        ("tc", "(undirected (union (inc x ((a x)) (vertex a)) (join (vertex b) (vertex c))))", 0),
        ("ncd", "(directed (union (inc x ((a x) (x a)) (vertex a)) (vertex b)))", 0),
        ("apsp", "(directed (join (inc x ((a x) (x a)) (vertex a)) (union (vertex b) (empty))))", 0),
        ("tc", "(undirected (inc x ((x nope)) (vertex a)))", 2),
        ("ncd", "(directed (inc x ((x nope)) (vertex a)))", 2),
        ("apsp", "(directed (union (vertex a) (inc x ((x nope)) (vertex b))))", 2),
    ],
)
def test_solve_validates_once(capsys, tmp_path, monkeypatch, problem, text, code_want):
    # params, the solver's validation and its vertex names all read one
    # cached walk, n comes from the fold counts, and the solver folds the
    # parsed tree without normalizing it; an invalid expression still exits 2
    from graphexpr import expr, paths, triangles

    walks, normalized = [], []
    real = expr._scan

    def counting(root):
        walks.append(root)
        return real(root)

    monkeypatch.setattr(expr, "_scan", counting)
    for module in (expr, paths, triangles):
        monkeypatch.setattr(module, "normalize", lambda e: normalized.append(e))
    f = tmp_path / "e.expr"
    f.write_text(text + "\n")
    w = tmp_path / "w.tsv"
    w.write_text("a\t3\nb\t1\nx\t2\n")
    weights = [str(w)] if problem != "tc" else []
    code, out, err = run(capsys, "solve", problem, str(f), *weights)
    assert code == code_want, err
    assert len(walks) == 1
    assert normalized == []
    if code_want == 2:
        assert "unknown inc target 'nope'" in err
    else:
        assert kv(out)["stats-ok"] == "true"


def test_vertex_and_inc_counts_are_the_vertex_names():
    # every vertex name is one vertex leaf or inc node of the normalized
    # tree, subst-td children included, which is what solve takes n from
    from graphexpr import DIRECTED, UNDIRECTED, ncd_outcome, triangle_summary, validate_or_raise

    from conftest import corpus_instance

    for seed in range(70):
        for mode in (UNDIRECTED, DIRECTED):
            e = corpus_instance(seed, mode, 40)
            names = validate_or_raise(e)
            if mode == UNDIRECTED:
                _, stats = triangle_summary(e)
            else:
                _, stats = ncd_outcome(e, {v: 1.0 for v in names})
            assert stats.counts.get("vertex", 0) + stats.counts.get("inc", 0) == len(names)


@pytest.mark.parametrize("unused", ["", "zz\t1e300\n"])
def test_unused_weight_does_not_hide_a_negative_cycle(capsys, tmp_path, unused):
    # the cycle x -> a -> x weighs -0.5; a tolerance sized from every line of
    # the weight file, zz included, was about 1e285 and reported no cycle
    f = tmp_path / "c.expr"
    f.write_text("(directed (inc x ((x a) (a x)) (vertex a)))\n")
    w = tmp_path / "w.tsv"
    w.write_text("x\t-1\na\t0.5\n" + unused)
    for problem in ("ncd", "apsp"):
        for verify in ((), ("--verify",)):
            code, out, _ = run(capsys, "solve", problem, str(f), str(w), *verify)
            assert code == 0
            assert "negative-cycle=true" in out


@pytest.mark.parametrize("problem", ["ncd", "apsp"])
@pytest.mark.parametrize("weights", ["x\tnan\na\t-1\n", "x\tinf\na\t-inf\n"])
def test_solve_rejects_non_finite_weights(capsys, tmp_path, problem, weights):
    f = tmp_path / "c.expr"
    f.write_text("(directed (inc x ((x a) (a x)) (vertex a)))\n")
    w = tmp_path / "w.tsv"
    w.write_text(weights)
    code, out, err = run(capsys, "solve", problem, str(f), str(w))
    assert code == 2
    assert "not finite" in err
    assert out == ""


OVERFLOW = "(inc b ((a b)) (vertex a))"


@pytest.mark.parametrize(
    "problem, expr, weights",
    [
        # without the bound, a path sum of -inf surfaces as a bad weight of
        # the union's pattern vertex 'a', or without the union as msp=-inf,
        # and a sum of +inf makes dist(a, b) inf, as if a -> b were no edge
        ("ncd", f"(union {OVERFLOW} (vertex c))", "a\t-1e308\nb\t-1e308\nc\t0\n"),
        ("ncd", OVERFLOW, "a\t-1e308\nb\t-1e308\n"),
        ("apsp", f"(union {OVERFLOW} (vertex c))", "a\t1e308\nb\t1e308\nc\t0\n"),
    ],
    ids=["ncd-union-negative", "ncd-inc-negative", "apsp-union-positive"],
)
def test_solve_rejects_weights_whose_path_sums_overflow(capsys, tmp_path, problem, expr, weights):
    f = tmp_path / "o.expr"
    f.write_text(f"(directed {expr})\n")
    w = tmp_path / "w.tsv"
    w.write_text(weights)
    code, out, err = run(capsys, "solve", problem, str(f), str(w))
    assert code == 2
    assert "weights too large" in err
    assert "[at " not in err  # rejected at the input boundary, not in the fold
    assert out == ""


def test_solve_accepts_large_weights_whose_sums_fit(capsys, tmp_path):
    f = tmp_path / "o.expr"
    f.write_text(f"(directed (union {OVERFLOW} (vertex c)))\n")
    w = tmp_path / "w.tsv"
    w.write_text("a\t1e300\nb\t1e300\nc\t0\n")
    code, out, _ = run(capsys, "solve", "apsp", str(f), str(w))
    assert code == 0
    assert "a\tb\t2e+300" in out


@pytest.mark.parametrize("problem", ["ncd", "apsp"])
def test_solve_rejects_duplicate_weight_names(capsys, tmp_path, problem):
    f = tmp_path / "c.expr"
    f.write_text("(directed (inc x ((x a) (a x)) (vertex a)))\n")
    w = tmp_path / "w.tsv"
    w.write_text("x\t1\na\t-5\na\t5\n")
    code, out, err = run(capsys, "solve", problem, str(f), str(w))
    assert code == 2
    assert "line 3: duplicate name 'a'" in err
    assert out == ""


def test_solve_apsp_matrix_with_inf(capsys, tmp_path):
    f = tmp_path / "u.expr"
    f.write_text("(directed (union (vertex a) (vertex b)))\n")
    w = tmp_path / "w.tsv"
    w.write_text("a\t1\nb\t2\n")
    out_file = tmp_path / "m.tsv"
    code, out, _ = run(capsys, "solve", "apsp", str(f), str(w), "-o", str(out_file))
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert "a\tb\tinf" in rows
    assert "a\ta\t1" in rows


def test_solve_apsp_matrix_file_in_name_order(capsys, tmp_path):
    # vertices are declared c, a, b; the file lists pairs sorted by name
    f = tmp_path / "cab.expr"
    f.write_text("(directed (inc b ((a b)) (union (vertex c) (vertex a))))\n")
    w = tmp_path / "w.tsv"
    w.write_text("a\t1.5\nb\t2\nc\t3\n")
    out_file = tmp_path / "m.tsv"
    code, _, _ = run(capsys, "solve", "apsp", str(f), str(w), "-o", str(out_file))
    assert code == 0
    assert out_file.read_text() == (
        "a\ta\t1.5\na\tb\t3.5\na\tc\tinf\n"
        "b\ta\tinf\nb\tb\t2\nb\tc\tinf\n"
        "c\ta\tinf\nc\tb\tinf\nc\tc\t3\n"
    )


def test_solve_apsp_formats_each_distinct_distance_once(capsys, tmp_path, monkeypatch):
    # 400 pairs over weights in [0, 4]: the matrix repeats a few distances, and
    # each one (the msp too) goes through fmt once
    from collections import Counter

    f, w = _nested_chain(tmp_path, "directed", "join", 20)
    calls = Counter()
    real = cli.fmt
    monkeypatch.setattr(cli, "fmt", lambda x: calls.update([x]) or real(x))
    out_file = tmp_path / "m.tsv"
    code, out, _ = run(capsys, "solve", "apsp", f, w, "-o", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 400
    assert max(calls.values()) == 1
    assert set(calls) == {float(line.split("\t")[2]) for line in lines} | {
        float(kv(out)["msp"])
    }


def test_solve_apsp_stdout_matrix(capsys, tmp_path):
    f = tmp_path / "e.expr"
    f.write_text(EDGE)
    w = tmp_path / "w.tsv"
    w.write_text("a\t1\nb\t5\n")
    code, out, _ = run(capsys, "solve", "apsp", str(f), str(w))
    assert code == 0
    assert "a\tb\t6" in out.splitlines()


def test_solve_verify_flag_passes_on_good_build(capsys, tmp_path):
    f = tmp_path / "e.expr"
    f.write_text(EDGE)
    w = tmp_path / "w.tsv"
    w.write_text("a\t-1\nb\t5\n")
    code, out, _ = run(capsys, "solve", "apsp", str(f), str(w), "--verify")
    assert code == 0


def test_solve_verify_catches_corrupted_handler(capsys, tmp_path, monkeypatch):
    # mutate the inc handler: wrong triangle increment must trip --verify
    from graphexpr import triangles as tri
    from graphexpr.triangles import TriFold

    def corrupt(f, neighbors, order, runs):
        return TriFold(f.n + 1, f.m + len(neighbors), f.t + 5)

    monkeypatch.setattr(tri, "combine_inc", corrupt)
    f = tmp_path / "t.expr"
    f.write_text("(undirected (inc x ((x a) (x b)) (join (vertex a) (vertex b))))\n")
    code, _, err = run(capsys, "solve", "tc", str(f), "--verify")
    assert code == 3
    assert "invariant" in err


def _nested_chain(tmp_path, mode, op, depth):
    """A left-nested ``op`` chain over ``depth`` vertices, nested ``depth - 1``
    levels deep, and a weight file with weights in [0, 4] (no negative
    cycle, so the path solvers run the whole fold)."""
    f = tmp_path / f"{op}.expr"
    f.write_text(
        f"({mode} "
        + f"({op} " * (depth - 1)
        + "(vertex v0)"
        + "".join(f" (vertex v{i}))" for i in range(1, depth))
        + ")\n"
    )
    w = tmp_path / "w.tsv"
    w.write_text("".join(f"v{i}\t{i % 5}\n" for i in range(depth)))
    return str(f), str(w)


@pytest.mark.parametrize("op", ["union", "join"])
@pytest.mark.parametrize(
    "problem, depth, bound_s",
    # bounds are about 3x the times measured on a 2-core x86-64 VM
    # (tc 0.55 s, ncd 0.8-1.1 s, apsp 3.4-5.0 s)
    [("tc", 10**4, 2.0), ("ncd", 10**4, 3.5), ("apsp", 1500, 15.0)],
)
def test_solve_deeply_nested_input(capsys, tmp_path, problem, op, depth, bound_s):
    mode = "undirected" if problem == "tc" else "directed"
    f, w = _nested_chain(tmp_path, mode, op, depth)
    argv = ["solve", problem, f]
    if problem != "tc":
        argv += [w, "-o", str(tmp_path / "matrix.tsv")]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert code == 0, err
    pairs = kv(out)
    assert pairs["stats-ok"] == "true"
    if problem == "tc":
        n = depth
        assert pairs["triangles"] == str(0 if op == "union" else n * (n - 1) * (n - 2) // 6)
    else:
        assert pairs["negative-cycle"] == "false"
    assert elapsed < bound_s


# ---------------------------------------------------------------------------
# check


def test_check_tc_pass(capsys, k4_file):
    code, out, _ = run(capsys, "check", "tc", k4_file)
    assert code == 0
    assert "check=pass dev=0" in out


def test_check_ncd_with_generated_weights(capsys, tmp_path):
    f = tmp_path / "c.expr"
    f.write_text(NEG_CYCLE)
    code, out, _ = run(capsys, "check", "ncd", str(f), "--seed", "5")
    assert code == 0
    assert "check=pass" in out
    assert "seed=5" in out


def test_check_apsp_with_inf_entries(capsys, tmp_path):
    f = tmp_path / "u.expr"
    f.write_text("(directed (union (vertex a) (vertex b)))\n")
    w = tmp_path / "w.tsv"
    w.write_text("a\t1\nb\t2\n")
    code, out, _ = run(capsys, "check", "apsp", str(f), str(w))
    assert code == 0
    assert "check=pass dev=0" in out


def test_check_apsp_bounds_the_deviation_by_the_weights_in_use(capsys, tmp_path, monkeypatch):
    # at weights near 1e10 the solver and the oracle round their sums
    # differently, about 1 ulp (2e-6) apart, which an absolute bound of
    # 1e-6 took for a mismatch; a deviation of 1e-3 is still one
    import random

    from graphexpr import DIRECTED, GenSpec, evaluate, gen_random, paths
    from graphexpr.cli import format_expression

    e = gen_random(GenSpec(DIRECTED, k=2, h=3, l=2, budget=30, seed=4))
    rng = random.Random(4)
    f, w = tmp_path / "e.expr", tmp_path / "w.tsv"
    f.write_text(format_expression(e) + "\n")
    weights = [(v, rng.uniform(0, 5) * 1e9 + rng.random()) for v in evaluate(e).vertices]
    w.write_text("".join(f"{v}\t{x!r}\n" for v, x in weights))
    code, out, _ = run(capsys, "check", "apsp", str(f), str(w))
    assert code == 0
    assert float(kv(out)["dev"]) > 1e-6

    def off(real):
        def all_pairs(*args):
            got = dict(real(*args).items())
            pair = next(pq for pq, d in got.items() if d < float("inf"))
            got[pair] += 1e-3
            return got

        return all_pairs

    monkeypatch.setattr(paths, "all_pairs", off(paths.all_pairs))
    code, out, _ = run(capsys, "check", "apsp", str(f), str(w))
    assert code == 1
    assert "check=fail" in out


def test_check_refuses_a_large_graph_before_evaluating_it(capsys, tmp_path):
    # the 500-vertex limit is tested on the names: evaluating this join of
    # two 1000-vertex unions (10^6 edges) first peaked at 206 MB
    import tracemalloc

    f = tmp_path / "j.expr"
    sides = [" ".join(f"(vertex {s}{i})" for i in range(1000)) for s in "ab"]
    f.write_text(f"(undirected (join (union {sides[0]}) (union {sides[1]})))\n")
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "check", "tc", str(f))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "check is limited to 500 vertices (got 2000)" in err
    assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MB"


def test_check_detects_mutated_solver(capsys, k4_file, monkeypatch):
    from graphexpr import triangles as tri

    monkeypatch.setattr(tri, "count_triangles", lambda e: 999)
    code, out, _ = run(capsys, "check", "tc", k4_file)
    assert code == 1
    assert "check=fail" in out


# ---------------------------------------------------------------------------
# gen


def test_gen_random_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "r.expr"
    code, out, _ = run(
        capsys, "gen", "random", "--mode", "U", "-k", "1", "-h", "3",
        "--budget", "12", "--seed", "9", "-o", str(out_file),
    )
    assert code == 0
    assert kv(out)["k"] == "1" and kv(out)["h"] == "3"
    from graphexpr import params, parse, validate

    e = parse(out_file.read_text())
    assert validate(e) == []
    assert tuple(params(e)) == (1, 3, 0)


def test_gen_random_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.expr", tmp_path / "b.expr"
    args = ["gen", "random", "--mode", "D", "-k", "2", "--budget", "9", "--seed", "3"]
    run(capsys, *args, "-o", str(a))
    run(capsys, *args, "-o", str(b))
    assert a.read_text() == b.read_text()


def test_gen_fixture_file_has_derivation_comment(capsys, tmp_path):
    out_file = tmp_path / "f.expr"
    code, _, _ = run(capsys, "gen", "fixture", "lemma7.1", "-p", "4", "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# fixture lemma7.1")
    from graphexpr import params, parse

    assert tuple(params(parse(text))) == (1, 0, 0)


def test_gen_fixture_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "fixture", "substar", "-p", "2")
    assert code == 0
    assert "(inc c" in out


# ---------------------------------------------------------------------------
# bench


def test_bench_tc_monotone_rows(capsys, tmp_path):
    out_file = tmp_path / "bench.tsv"
    code, _, _ = run(
        capsys, "bench", "tc", "-k", "1", "-h", "3",
        "--sizes", "20,40,10", "--seed", "1", "-o", str(out_file),
    )
    assert code == 0
    rows = [r.split("\t") for r in out_file.read_text().splitlines()]
    assert rows[0][0] == "n"
    ns = [int(r[0]) for r in rows[1:]]
    assert ns == sorted(ns) == [10, 20, 40]
    # accounting bound on every row
    for r in rows[1:]:
        assert int(r[6]) <= 2 * int(r[0])


def test_bench_deterministic_nontime_columns(capsys, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = [
        "bench", "ncd", "-k", "1", "--sizes", "8,12",
        "--seed", "2", "--reps", "2",
    ]
    run(capsys, *args, "-o", str(a))
    run(capsys, *args, "-o", str(b))

    def strip_time(path):
        rows = [r.split("\t") for r in path.read_text().splitlines()]
        return [[c for i, c in enumerate(r) if i != 5] for r in rows]

    assert strip_time(a) == strip_time(b)


def test_bench_apsp_reaches_the_expansion_on_every_row(capsys, tmp_path, monkeypatch):
    # bench apsp draws non-negative weights, so no row stops at a negative
    # cycle: every solve ends with its module summaries expanded
    from graphexpr import is_negative_cycle, paths

    expansions, verdicts = [], []
    outcome, expand = paths.apsp_outcome, paths.to_full_summary

    def counted_outcome(*args, **kwargs):
        expansions.append(0)
        value, stats = outcome(*args, **kwargs)
        verdicts.append(is_negative_cycle(value))
        return value, stats

    def counted_expand(s):
        expansions[-1] += 1
        return expand(s)

    monkeypatch.setattr(paths, "apsp_outcome", counted_outcome)
    monkeypatch.setattr(paths, "to_full_summary", counted_expand)
    out_file = tmp_path / "bench.tsv"
    code, _, _ = run(
        capsys, "bench", "apsp", "-k", "2", "-h", "4", "-l", "2",
        "--sizes", "20,40,80", "--seed", "1", "--reps", "2", "-o", str(out_file),
    )
    assert code == 0
    rows = out_file.read_text().splitlines()[1:]
    assert len(expansions) == len(rows) == 6
    assert not any(verdicts)
    assert all(expansions), expansions


def test_bench_tc_never_evaluates_the_graph(capsys, tmp_path, monkeypatch):
    # the n and m columns come from the triangle fold, which counts them
    from graphexpr import UNDIRECTED, GenSpec, gen_random

    evaluate, calls = cli.evaluate, []
    monkeypatch.setattr(cli, "evaluate", lambda e: calls.append(e) or evaluate(e))
    out_file = tmp_path / "bench.tsv"
    code, _, _ = run(
        capsys, "bench", "tc", "-k", "2", "-h", "4", "-l", "0",
        "--sizes", "100,200", "--seed", "3", "--reps", "2", "-o", str(out_file),
    )
    assert code == 0
    assert calls == []
    rows = [r.split("\t") for r in out_file.read_text().splitlines()[1:]]
    assert len(rows) == 4
    for idx, budget in enumerate((100, 200)):
        g = evaluate(gen_random(GenSpec(UNDIRECTED, k=2, h=4, l=0, budget=budget, seed=3 + idx)))
        for r in rows[2 * idx: 2 * idx + 2]:
            assert (int(r[0]), int(r[1])) == (g.n, g.m)
