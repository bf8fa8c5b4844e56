"""In-memory span tracing at the public function boundaries of graphexpr.

``install`` replaces the module-level names the solvers look up with
wrappers that record a span per call (name, start, end, parent span, solve
id) plus counts at the same boundary.  Nothing in ``src`` is edited: the
wrappers sit where the solver's real call path already passes, so a refactor
that stops calling a wrapped name shows up as lower ``trace.coverage``.
Only the traced benchmark process installs them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

SOLVE = "solve"

# span name -> per-layer metric name (self time, seconds per solve)
SELF_TIME_METRICS = {
    "expr.parse": "expr.parse.s",
    "expr.params": "expr.params.s",
    "expr.validate": "expr.validate.s",
    "expr.normalize": "expr.normalize.s",
    "expr.evaluate": "expr.evaluate.s",
    "expr.pattern_to_graph": "expr.pattern_to_graph.s",
    "framework.fold": "framework.fold.self_s",
    "framework.fold_td": "framework.fold_td.s",
    "framework.assert_stats": "framework.assert_stats.s",
    "triangles.inc": "triangles.inc.s",
    "triangles.subst": "triangles.subst.s",
    "triangles.subst_td": "triangles.subst_td.s",
    "paths.inc": "paths.inc.s",
    "paths.subst": "paths.subst.s",
    "paths.subst_td": "paths.subst_td.s",
    "paths.expand": "paths.expand.s",
    "graphs.floyd": "graphs.floyd.s",
}

# counts recorded at span boundaries, reported per solve
COUNT_METRICS = (
    "expr.evaluate.edges",
    "expr.pattern_to_graph.calls",
    "paths.expand.calls",
    "paths.expand.pairs",
    "graphs.floyd.calls",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, solve id]
        self.stack = []
        self.counts = defaultdict(int)
        self.solve_id = -1

    def wrap(self, name, fn, count=None, under_solve=False):
        """``fn`` recording a span per call; ``count(counts, result)`` adds
        to the counters after the call.  With ``under_solve`` only calls
        made directly by the solve are recorded; other calls count as their
        caller's self time."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            if under_solve and not (stack and spans[stack[-1]][0] == SOLVE):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def solve(self, fn, *args):
        """Run one solve under a root span."""
        self.solve_id += 1
        return self.wrap(SOLVE, fn)(*args)

    def self_times(self):
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def coverage(self):
        """Share of the solve spans covered by their direct child spans."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == SOLVE}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        covered = sum(end - start for _, start, end, parent, _ in self.spans if parent in roots)
        return covered / total if total else 0.0

    def write(self, path):
        """One JSON line per span: solve id, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, sid in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")


def install(tracer: Tracer):
    """Wrap the names the solvers look up.  Returns the names that no longer
    exist (a stale wrapper list) and a function that puts the originals
    back."""
    from graphexpr import expr, framework, paths, triangles

    missing, originals = [], []
    w = tracer.wrap

    def _set(module, attr, value):
        if not hasattr(module, attr):
            missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        originals.append((module, attr, original))
        setattr(module, attr, value(original))

    def restore():
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)

    def edges(counts, g):
        counts["expr.evaluate.edges"] += g.m

    def expanded(counts, full):
        counts["paths.expand.calls"] += 1
        counts["paths.expand.pairs"] += len(full.dist)

    def calls(key):
        def count(counts, _):
            counts[key] += 1

        return count

    def handler_set(prefix):
        def wrap_factory(factory):
            def make(*args):
                hs = factory(*args)
                hs.on_inc = w(f"{prefix}.inc", hs.on_inc)
                hs.on_subst = w(f"{prefix}.subst", hs.on_subst)
                hs.on_subst_td = w(f"{prefix}.subst_td", hs.on_subst_td)
                return hs

            return make

        return wrap_factory

    _set(expr, "parse", lambda f: w("expr.parse", f))
    _set(expr, "params", lambda f: w("expr.params", f))
    _set(framework, "assert_stats", lambda f: w("framework.assert_stats", f))
    _set(framework, "fold", lambda f: w("framework.fold", f))
    for mod in (triangles, paths):
        _set(mod, "validate_or_raise", lambda f: w("expr.validate", f))
        _set(mod, "normalize", lambda f: w("expr.normalize", f))
        # the whole-graph evaluation only; handlers also evaluate patterns
        _set(mod, "evaluate", lambda f: w("expr.evaluate", f, edges, under_solve=True))
        _set(mod, "fold_td_expression", lambda f: w("framework.fold_td", f))
    _set(triangles, "handlers", handler_set("triangles"))
    _set(paths, "ncd_handlers", handler_set("paths"))
    _set(paths, "apsp_handlers", handler_set("paths"))
    _set(paths, "to_full_summary", lambda f: w("paths.expand", f, expanded))
    _set(
        paths,
        "floyd_vertex_weighted",
        lambda f: w("graphs.floyd", f, calls("graphs.floyd.calls")),
    )
    _set(
        expr.Pattern,
        "to_graph",
        lambda f: w("expr.pattern_to_graph", f, calls("expr.pattern_to_graph.calls")),
    )
    return missing, restore
