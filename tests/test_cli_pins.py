"""Pinned CLI outputs: one SHA-256 digest per case, over seeded inputs.

A case is one input run through every command of the CLI in-process:
``params``, ``solve tc``, and ``solve ncd`` and ``solve apsp -o`` with
weights in [-5, 5] and in [0, 5].  Its digest covers the expression text,
and per command the exit code, stdout without the ``wall-time-s`` line,
stderr and the matrix file.  Paths are relative (the runs happen in a
temporary directory), so no digest depends on where it ran.  The inputs
are the seven corpus shapes in both modes, the ``EMPTY_CASES`` texts and
mutated invalid texts and weight files.  The ``verify-*`` cases run the
three solvers with ``--verify`` instead, on a slice of the corpus seeds, on
the ``EMPTY_CASES`` texts and, to pin the exit code and the messages of a
failed check, with a handler swapped for a wrong one.

Re-pin with ``PYTHONPATH=src python tests/test_cli_pins.py --write`` and
list every case whose digest moved, with the reason, in CHANGES.md.  A pin
is never rewritten to hide a wrong answer: the oracles stay the ground
truth.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from graphexpr import DIRECTED, NEGATIVE_CYCLE, UNDIRECTED, cli, gen_weights, paths, triangles
from graphexpr import validate_or_raise
from graphexpr.framework import Verdict

from conftest import corpus_instance
from test_framework import EMPTY_CASES

PINS = Path(__file__).with_name("cli_pins.json")
SEEDS = range(150)  # per mode
VERIFY_SEEDS = range(0, 150, 5)  # per mode, with --verify
MAX_BUDGET = 30


def _run(argv):
    """``cli.main(argv)`` in-process: exit code, stdout without the timing
    line, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = "".join(
        line for line in out.getvalue().splitlines(True) if not line.startswith("wall-time-s=")
    )
    return f"exit={code}\n--stdout\n{stdout}--stderr\n{err.getvalue()}"


def _write_weights(path, weights):
    Path(path).write_text("".join(f"{v}\t{x!r}\n" for v, x in weights.items()))


def _digest(text, weight_files, flags=()):
    """The digest of one case: ``text`` as the expression file, run through
    every command, the path solvers once per weight file, each solver with
    ``flags`` added."""
    Path("e.txt").write_text(text)
    parts = [f"--text\n{text}", _run(["params", "e.txt"]), _run(["solve", "tc", "e.txt", *flags])]
    for wf in weight_files:
        parts.append(_run(["solve", "ncd", "e.txt", wf, *flags]))
        if os.path.exists("m.tsv"):
            os.remove("m.tsv")
        parts.append(_run(["solve", "apsp", "e.txt", wf, "-o", "m.tsv", *flags]))
        matrix = Path("m.tsv").read_text() if os.path.exists("m.tsv") else "<none>\n"
        parts.append(f"--matrix\n{matrix}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _corpus_cases(seeds):
    """The corpus cases of ``seeds`` in both modes, each with weights in
    [-5, 5] and in [0, 5]."""
    for mode, tag in ((DIRECTED, "D"), (UNDIRECTED, "U")):
        for seed in seeds:
            e = corpus_instance(seed, mode, MAX_BUDGET)
            names = validate_or_raise(e)
            weights = [gen_weights(names, -5.0, 5.0, seed), gen_weights(names, 0.0, 5.0, seed)]
            yield f"{tag}{seed}", cli.format_expression(e) + "\n", weights


def _cases():
    """``(case id, expression text, weights per weight file)``; a weights
    entry is a dict, or raw file text for a mutated weights file."""
    yield from _corpus_cases(SEEDS)
    for j, body in enumerate(EMPTY_CASES):
        for mode in (DIRECTED, UNDIRECTED):
            text = f"({mode} {body})\n"
            names = sorted(validate_or_raise(cli.parse(text)))
            weights = {v: (-1.0) ** len(v) * len(v) for v in names}
            yield f"empty{j}-{mode}", text, [weights]
    yield from _invalid_cases()


def _invalid_cases():
    """Texts and weight files each broken in one way, so that each error
    message is pinned."""
    rng = random.Random(0)
    for seed in range(12):
        e = corpus_instance(seed, DIRECTED, MAX_BUDGET)
        text = cli.format_expression(e) + "\n"
        names = sorted(validate_or_raise(e))
        w = gen_weights(names, -5.0, 5.0, seed)
        cut = rng.randrange(1, len(text) - 1)
        yield f"bad{seed}-truncated", text[:cut], [w]
        yield f"bad{seed}-stray-token", text[:cut] + " ) " + text[cut:], [w]
        if len(names) > 1:
            dup = text.replace(f"(vertex {names[1]})", f"(vertex {names[0]})", 1)
            yield f"bad{seed}-renamed", dup, [w]
        missing = "".join(f"{v}\t{x!r}\n" for v, x in list(w.items())[1:])
        yield f"bad{seed}-missing-weight", text, [missing]
        nan = "".join(f"{v}\t{'nan' if i == 0 else repr(x)}\n" for i, (v, x) in enumerate(w.items()))
        yield f"bad{seed}-nan-weight", text, [nan]
    yield "bad-unknown-target", "(directed (inc x ((x nope)) (vertex a)))\n", [{"a": 1.0, "x": 1.0}]
    yield "bad-unknown-node", "(directed (star (vertex a)))\n", [{"a": 1.0}]
    yield "bad-one-child", "(directed (union (vertex a)))\n", [{"a": 1.0}]
    yield "bad-pattern", "(directed (subst (graph (p p) ((p p))) ((p (vertex a)))))\n", [{"a": 1.0}]
    yield (
        "bad-td-pattern",
        "(directed (subst-td (join (vertex p) (vertex q)) ((p (vertex a)) (q (vertex b)))))\n",
        [{"a": 1.0, "b": 1.0}],
    )
    yield "bad-huge-weights", "(directed (union (vertex a) (vertex b)))\n", ["a\t1e308\nb\t-1e308\n"]


def _verify_cases():
    """``(case id, text, weights per weight file, patch)`` run with
    ``--verify``; a patch ``(module, name, stand-in)`` holds for the case's
    runs.  The patched cases fail a check: a triangle inc handler
    that counts one too many, and a shortest-path inc core that reports a
    negative cycle wherever it runs, in the main tree and in a pattern
    replay."""
    for case, text, weights in _corpus_cases(VERIFY_SEEDS):
        yield f"verify-{case}", text, weights, None
    for j, body in enumerate(EMPTY_CASES):
        for mode in (DIRECTED, UNDIRECTED):
            text = f"({mode} {body})\n"
            names = sorted(validate_or_raise(cli.parse(text)))
            yield f"verify-empty{j}-{mode}", text, [{v: 1.0 for v in names}], None

    real_inc = triangles.combine_inc

    def off_by_one(*args):
        f = real_inc(*args)
        return f._replace(t=f.t + 1)

    def false_verdict(*args):
        raise Verdict(NEGATIVE_CYCLE)

    off, false = (triangles, "combine_inc", off_by_one), (paths, "_inc_core", false_verdict)
    u5, d3 = (cli.format_expression(corpus_instance(s, m, MAX_BUDGET)) for s, m in ((5, UNDIRECTED), (3, DIRECTED)))
    failing = [
        ("tc-off-by-one-inc", "(undirected (inc x ((x a) (x b)) (join (vertex a) (vertex b))))", off),
        ("tc-off-by-one-U5", u5, off),
        ("false-verdict-inc", "(directed (inc x ((x a) (b x)) (join (vertex a) (vertex b))))", false),
        (
            "false-verdict-td",
            "(directed (union (vertex z) (subst-td (inc q ((q p) (p q)) (vertex p))"
            " ((p (vertex a)) (q (vertex b))))))",
            false,
        ),
        ("false-verdict-D3", d3, false),
    ]
    for tag, text, patch in failing:
        names = sorted(validate_or_raise(cli.parse(text)))
        yield f"verify-{tag}", text + "\n", [{v: 1.0 + len(v) for v in names}], patch


def compute():
    """The digest of every case, by case id, run in a temporary directory."""
    digests = {}
    here = os.getcwd()
    cases = [(case, text, weights, (), None) for case, text, weights in _cases()]
    cases += [(case, text, w, ("--verify",), patch) for case, text, w, patch in _verify_cases()]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for case, text, weights, flags, patch in cases:
                files = []
                for j, w in enumerate(weights):
                    files.append(f"w{j}.tsv")
                    if isinstance(w, dict):
                        _write_weights(files[-1], w)
                    else:
                        Path(files[-1]).write_text(w)
                assert case not in digests, case
                with mock.patch.object(*patch) if patch else contextlib.nullcontext():
                    digests[case] = _digest(text, files, flags)
        finally:
            os.chdir(here)
    return digests


def test_cli_outputs_match_their_pins():
    want = json.loads(PINS.read_text())
    got = compute()
    assert sorted(got) == sorted(want), "the case list changed"
    moved = [case for case in want if got[case] != want[case]]
    assert not moved, f"{len(moved)} pinned CLI outputs moved: {moved[:20]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_pins.py --write")
    table = compute()
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {PINS}")
