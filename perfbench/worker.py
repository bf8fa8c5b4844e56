"""The solving process: set-up, timed solves and (optionally) a traced run.

    python3 perfbench/worker.py --workload NAME --scale full --seed N
        --seconds S --trace 0|1 [--setup-only]

Prints one JSON object on stdout.  The process runs single-threaded with the
garbage collector on, and computes no reference answers, so its peak RSS is
that of set-up plus solving.

Drift correction: on a shared machine the effective CPU speed can drift by
1.5x within a minute, and slow down for milliseconds at a time, which would
swamp any change to the program.  So every solve, and every group of
set-up steps, is bracketed by a fixed, benchmark-owned calibration kernel,
and each wall time is also reported scaled by REF_CAL_S / (mean kernel time
around it): the time it would take where the kernel takes REF_CAL_S.  The
kernel touches nothing of graphexpr, so a change to the program moves the
scaled times as it moves the wall times.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import tracing
import workloads

MIN_SOLVES = 21  # enough for a tail with at least 10 samples beyond it
# the reference speed: the calibration kernel in 1.3 ms, a typical speed of
# the 2-core VM the benchmark was tuned on (it ranged from 1.0 to 2.1 ms)
REF_CAL_S = 0.0013
MAX_WALL_FACTOR = 4  # a run stops after this many times --seconds of wall time
# set-up steps (an import, one generated instance) are calibrated in groups
# of this many seconds, so that small instances do not double set-up time
SETUP_SEGMENT_S = 0.1


def _kernel():
    d = {}
    for i in range(2000):
        d[(i & 255, i >> 3)] = [i, str(i & 63)]
    s = 0
    for k, v in d.items():
        s += v[0] ^ k[0]
    return s + len(sorted(d, reverse=True))


def calibrate():
    """One run of the calibration kernel, in seconds.  The collector is
    paused so that the kernel never scans the solver's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class DriftClock:
    """Collects wall times of timed work and their drift-corrected values.
    Once the open segment holds ``segment_s`` of work, the kernel runs
    (untimed) and the segment is scaled by REF_CAL_S / (mean of the kernel
    times before and after it).  The machine's slow spells last from
    milliseconds to minutes, so solves are calibrated one by one
    (``segment_s`` = 0): with 100 ms segments the tail of 1 ms solves
    spread 10-21% between runs, with one solve per segment 3-6%."""

    def __init__(self, segment_s):
        self.segment_s = segment_s
        self.before = calibrate()
        self.open = []
        self.wall, self.scaled = [], []

    def add(self, seconds):
        self.open.append(seconds)
        if sum(self.open) >= self.segment_s:
            self.close()

    def close(self):
        if not self.open:
            return
        after = calibrate()
        factor = REF_CAL_S / ((self.before + after) / 2)
        self.wall.extend(self.open)
        self.scaled.extend(t * factor for t in self.open)
        self.before, self.open = after, []


def setup(workload):
    """Import graphexpr and generate the inputs, each instance timed on its
    own; returns (wall seconds, drift-corrected seconds, instances)."""
    _kernel()  # warm-up, untimed
    clock = DriftClock(SETUP_SEGMENT_S)
    start = time.perf_counter()
    import graphexpr  # noqa: F401  (timed on purpose)

    clock.add(time.perf_counter() - start)
    instances = []
    made = workloads.iter_instances(workload)
    while True:
        start = time.perf_counter()
        inst = next(made, None)
        clock.add(time.perf_counter() - start)
        if inst is None:
            break
        instances.append(inst)
    clock.close()
    return sum(clock.wall), sum(clock.scaled), instances


class Solver:
    """One solve is what ``graphexpr solve`` does minus printing: parse,
    params, the public solver, then assert_stats.  Module attributes are
    looked up at call time so that the tracer's wrappers take effect."""

    def __init__(self):
        from graphexpr import expr, framework, paths, triangles

        self.expr, self.framework = expr, framework
        self.paths, self.triangles = paths, triangles

    def __call__(self, inst, problem):
        e = self.expr.parse(inst.text)
        p = self.expr.params(e)
        if problem == "tc":
            value, stats = self.triangles.triangle_summary(e)
        elif problem == "ncd":
            value, stats = self.paths.ncd_outcome(e, inst.weights)
        else:
            value, stats = self.paths.apsp_outcome(e, inst.weights)
        violations = self.framework.assert_stats(stats, inst.n, p)
        return value, stats, violations


def compact_answer(problem, value, sample_rows):
    """What the reference checks: the triangle count; the NCD verdict,
    msp and potential; the APSP verdict, msp and a fixed sample of rows
    (every row when ``sample_rows`` is 0)."""
    from graphexpr import is_negative_cycle

    if problem == "tc":
        return {"t": value.t, "n": value.n, "m": value.m}
    if is_negative_cycle(value):
        return {"negative": True}
    if problem == "ncd":
        return {"negative": False, "msp": value.msp, "potential": value.potential}
    names = sorted(value.min_out)
    sources = names
    if sample_rows and len(names) > sample_rows:
        sources = [names[i * len(names) // sample_rows] for i in range(sample_rows)]
    dist = value.dist
    rows = {s: [dist[(s, v)] for v in names] for s in sources}
    return {"negative": False, "msp": value.msp, "names": names, "rows": rows}


class Runner:
    def __init__(self, workload, instances, seed):
        self.workload = workload
        self.instances = instances
        self.order = workloads.tasks(workload)
        self.rng = random.Random(seed)
        self.solve = Solver()
        self.answers = {}
        self.solves = Counter()
        self.failures = Counter()
        self.errors = []
        self.fold_nodes = {}
        self.passes = []
        self.missing = set()

    def run(self, seconds, tracer=None):
        """Solve in whole, seeded-shuffled passes over the tasks, so every
        task is solved equally often.  The number of passes is fixed by
        ``seconds`` and the workload's ``pass_s``: a run takes about
        ``seconds`` at the seed commit's speed, and
        every run of the workload makes the same number of solves, so the
        tail is always the same percentile.  Only a run that exceeds
        MAX_WALL_FACTOR * ``seconds`` of wall time stops early.  Returns the
        wall time and the drift-corrected time of each solve, and appends
        (traced, sum of corrected times, wall time with kernel runs) per
        pass to ``self.passes``.

        With a ``tracer`` the passes alternate untraced and traced: the
        wrappers are installed for one pass and the originals restored for
        the next, so neighbouring passes give the tracing overhead.

        Between passes the collector runs and what survives it (inputs,
        first answers: the benchmark's own data) is frozen, so collections
        inside a solve scan what a one-shot ``graphexpr solve`` would."""
        least = max(-(-MIN_SOLVES // len(self.order)), 2 if tracer is not None else 1)
        passes = max(least, round(seconds / self.workload.pass_s))
        clock = DriftClock(0.0)
        deadline = time.perf_counter() + MAX_WALL_FACTOR * seconds
        while len(self.passes) < passes and (
            len(self.passes) < least or time.perf_counter() < deadline
        ):
            traced = tracer is not None and len(self.passes) % 2 == 1
            gc.collect()
            gc.freeze()
            order = list(self.order)
            self.rng.shuffle(order)
            restore = None
            if traced:
                missing, restore = tracing.install(tracer)
                self.missing.update(missing)
            first, start = len(clock.scaled), time.perf_counter()
            try:
                for index, problem in order:
                    clock.add(self.solve_one(index, problem, tracer if traced else None))
                clock.close()
            finally:
                if restore is not None:
                    restore()
            self.passes.append(
                (traced, sum(clock.scaled[first:]), time.perf_counter() - start)
            )
        return clock.wall, clock.scaled

    def solve_one(self, index, problem, tracer):
        """One timed solve (under the tracer's root span when traced) and its
        untimed check.  Returns the wall time."""
        inst = self.instances[index]
        key = f"{inst.spec.key}/{problem}"
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.solve(inst, problem)
            else:
                out = tracer.solve(self.solve, inst, problem)
        except Exception as exc:  # a failed solve is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.solves[key] += 1
        if error is None:
            error = self.check(inst, problem, out)
            del out
        if error is not None:
            self.failures[key] += 1
            if len(self.errors) < 20:
                self.errors.append(f"{key}: {error}")
        return elapsed

    def check(self, inst, problem, out):
        """Untimed: accounting violations, and agreement of this solve's
        answer with the first solve of the same task (the first answer is
        the one checked against the reference)."""
        value, stats, violations = out
        if violations:
            return "assert_stats: " + "; ".join(violations)
        key = f"{inst.spec.key}/{problem}"
        answer = compact_answer(problem, value, self.workload.sample_rows)
        first = self.answers.setdefault(key, answer)
        if key not in self.fold_nodes:
            nodes = {kind: stats.counts.get(kind, 0) for kind in reference.NODE_KINDS}
            nodes["leaf"] = stats.leaf_count
            self.fold_nodes[key] = nodes
        if first is not answer and first != answer:
            return "answer differs from the first solve of the same input"
        return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_layers(runner, seconds, trace_path):
    """Alternating untraced and traced passes; per-layer metrics per solve."""
    tracer = tracing.Tracer()
    wall, scaled = runner.run(seconds, tracer)
    for name in sorted(runner.missing):
        print(f"benchmark: trace wrapper target {name} no longer exists", file=sys.stderr)
    solves = tracer.solve_id + 1
    self_times = tracer.self_times()
    layers = {
        metric: self_times.get(span, 0.0) / solves
        for span, metric in tracing.SELF_TIME_METRICS.items()
    }
    for name in tracing.COUNT_METRICS:
        layers[name] = tracer.counts.get(name, 0) / solves
    # fold node counts are per task; average them over one pass
    per_task = list(runner.fold_nodes.values())
    for kind in reference.NODE_KINDS:
        layers[f"framework.fold.nodes.{kind}"] = (
            sum(c[kind] for c in per_task) / len(per_task) if per_task else 0.0
        )
    path_answers = [
        a for key, a in runner.answers.items() if not key.endswith("/tc")
    ]
    layers["paths.negative_frac"] = (
        sum(a["negative"] for a in path_answers) / len(path_answers) if path_answers else 0.0
    )
    layers["trace.coverage"] = tracer.coverage()
    # each untraced pass against the traced pass right after it
    untraced, traced = runner.passes[0::2], runner.passes[1::2]
    layers["trace.overhead_frac"] = (
        statistics.median(t[1] / u[1] for u, t in zip(untraced, traced)) - 1.0
    )
    tracer.write(trace_path)
    return wall, scaled, layers, sorted(runner.missing)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workloads.use_checkout_source()
    workload = workloads.get(args.workload, args.scale)
    setup_wall_s, setup_s, instances = setup(workload)
    out = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if not args.setup_only:
        runner = Runner(workload, instances, args.seed)
        layers = missing = None
        if args.trace:
            wall, times, layers, missing = traced_layers(runner, args.seconds, args.trace_file)
        else:
            wall, times = runner.run(args.seconds)
        out.update(
            times=times,
            wall_times=wall,
            peak_rss_mb=peak_rss_mb(),
            failures=runner.failures,
            errors=runner.errors,
            answers=runner.answers,
            solves=runner.solves,
            pass_times=[p[2] for p in runner.passes],
            texts=[reference.digest(i.text) for i in instances],
            layers=layers,
            missing_wrappers=missing,
        )
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
