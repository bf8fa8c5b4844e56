"""graphexpr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--scale full|toy]

Workloads: tc-join-heavy, apsp-expand, ncd-wide-union, small-mixed (see
workloads.py and BASELINE.json).  ``--seed`` sets the order in which the
workload's fixed instances are solved.  The program is run from this
checkout's ``src``; nothing needs building.

This process generates the inputs, checks their fingerprints against
``fingerprints.json`` (and refuses to report on a mismatch) and computes the
reference answers.  The solves run in a separate worker process (worker.py),
single-threaded, in a fixed number of passes over the instances that take
about ``--seconds`` at the seed commit's speed; further workers only time
set-up.  Times are drift-corrected to a reference speed (see worker.py).  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Lines before it state
every metric by name and unit, the tail percentile and the sample count.
Exit codes: 0 reported, 1 no program source, 3 inputs changed (refused),
4 worker failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
# set-up is timed in fresh processes, at least SETUPS_MIN of them and until
# SETUP_WALL_S have passed; the median counts
SETUPS_MIN = 5
SETUP_WALL_S = 3.5
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name):
    if name.endswith((".calls", ".edges", ".pairs")) or ".nodes." in name:
        return "count"
    if name.endswith("_frac") or name == "trace.coverage":
        return "frac"
    return "s"


def fail(message, code):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(code)


def run_worker(args, *extra):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--scale", args.scale,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=workloads.ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}", 4)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """The highest percentile with at least 10 samples beyond it: the
    11th-largest solve time.  Returns (value, percentile)."""
    ordered = sorted(times)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def check_answers(ref, result):
    """Number of failed solves: those the worker counted, plus every other
    solve of a task whose answer disagrees with the reference."""
    failures = result["failures"]
    failed = sum(failures.values())
    messages = list(result["errors"])
    for key, check in ref.checks.items():
        answer = result["answers"].get(key)
        if answer is None:
            continue  # every solve of it raised or broke accounting: counted already
        error = check(answer)
        if error is not None:
            failed += result["solves"][key] - failures.get(key, 0)
            messages.append(f"{key}: {error}")
    for m in messages[:20]:
        print(f"benchmark: failed solve: {m}", file=sys.stderr)
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES)
    args = ap.parse_args(argv)

    workloads.use_checkout_source()
    workload = workloads.get(args.workload, args.scale)

    ref = reference.Reference(workload, workloads.generate(workload))
    if ref.fingerprints != reference.committed(args.workload, args.scale):
        fail(
            "the inputs differ from fingerprints.json (gen_random, gen_weights or "
            "the printer changed); refusing to report",
            3,
        )

    setups = []
    start = time.perf_counter()
    while not args.trace and (
        len(setups) < SETUPS_MIN - 1 or time.perf_counter() - start < SETUP_WALL_S
    ):
        setups.append(run_worker(args, "--setup-only"))
    trace_file = workloads.ROOT / ".bench_build" / "perfbench" / (
        f"trace-{args.workload}-{args.scale}-seed{args.seed}.jsonl"
    )
    result = run_worker(args, "--trace-file", str(trace_file))
    setups.append(result)
    setup_times = [r["setup_s"] for r in setups]
    text_field = reference.FINGERPRINT_FIELDS.index("text_sha256_16")
    if result["texts"] != [fp[text_field] for fp in ref.fingerprints]:
        fail("the worker generated other inputs than this process", 3)

    failed = check_answers(ref, result)
    times = result["times"]
    attempted = len(times)
    tail_value, tail_pct = tail(times)

    print(f"workload={args.workload} scale={args.scale} seed={args.seed} "
          f"instances={len(workload.specs)} solves={attempted} "
          f"passes={len(result['pass_times'])} "
          f"pass_s={statistics.median(result['pass_times'])!r} (median wall time)")
    print(f"fail_frac={failed / attempted!r} frac (failed {failed} of {attempted} solves)")
    verdicts = [a["negative"] for a in result["answers"].values() if "negative" in a]
    if verdicts:
        print(f"negative-cycle=true on {sum(verdicts)} of {len(verdicts)} path problems")
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in result["layers"].items()}
        print(f"traced run: {result['missing_wrappers'] or 'no'} stale wrappers; "
              f"spans written to {trace_file.relative_to(workloads.ROOT)}")
    else:
        metrics = {
            "solve_s_p50": statistics.median(times),
            "solve_s_tail": tail_value,
            "solves_per_s": attempted / sum(times),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup_times),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        print(f"solve_s_tail is p{tail_pct:.1f} of {attempted} solves "
              "(the 11th-largest solve time)")
        print(f"setup_s is the median of {len(setup_times)} set-ups, each in a fresh process")
        print("times are drift-corrected to the reference speed (see worker.py); "
              f"wall-clock medians: solve {statistics.median(result['wall_times'])!r} s, "
              f"set-up {statistics.median(r['setup_wall_s'] for r in setups)!r} s")
    for name, m in metrics.items():
        print(f"{name}={m['value']!r} {m['unit']}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
