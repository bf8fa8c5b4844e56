"""Input fingerprints and reference answers, computed outside the solving
process.

The fingerprint of an instance pins what the generator and printer made:
n, m, (k, h, l), the node counts and depth of the normalized expression,
and hashes of the expression text and the weights.  ``fingerprints.json``
holds the committed values; ``python3 perfbench/reference.py --write``
rewrites it, which only a change to a workload definition should need.

Reference answers come from the brute-force oracles (``oracle_triangles``,
``oracle_ncd``, ``oracle_apsp``), ``graphs.check_potential`` and, for the
sampled APSP rows of large instances, a Bellman-Ford written here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import workloads

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
TOL = 1e-6
FULL_ORACLE_LIMIT = 64  # larger graphs get Bellman-Ford on sampled rows
NODE_KINDS = ("inc", "subst", "subst_td", "leaf")
# one fingerprint per instance, a list in this order
FINGERPRINT_FIELDS = (
    "key", "n", "m", "k", "h", "l",
    *(f"normalized_{kind}" for kind in NODE_KINDS),
    "normalized_depth", "text_sha256_16", "weights_sha256_16",
)


def _normalized_shape(ne):
    """Main-tree node counts and depth (nodes on the longest root-to-leaf
    path) of a normalized expression."""
    from graphexpr.expr import Empty, Inc, Subst, SubstTd, Vertex, subexpressions

    counts = dict.fromkeys(NODE_KINDS, 0)
    depth = 0
    stack = [(ne.root, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if isinstance(node, (Empty, Vertex)):
            counts["leaf"] += 1
        elif isinstance(node, Inc):
            counts["inc"] += 1
        elif isinstance(node, Subst):
            counts["subst"] += 1
        elif isinstance(node, SubstTd):
            counts["subst_td"] += 1
        stack.extend((child, d + 1) for child in subexpressions(node))
    return counts, depth


def digest(text):
    """Short hash of an instance's text or weights."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(inst, graph):
    import graphexpr

    e = graphexpr.parse(inst.text)
    p = graphexpr.params(e)
    counts, depth = _normalized_shape(graphexpr.normalize(e))
    weights = ""
    if inst.weights is not None:
        weights = digest(repr(sorted(inst.weights.items())))
    return [
        inst.spec.key,
        graph.n,
        graph.m,
        *p,
        *(counts[kind] for kind in NODE_KINDS),
        depth,
        digest(inst.text),
        weights,
    ]


def _bellman_ford_row(source, names, edges, w):
    """Vertex-weighted distances from ``source`` (both endpoints counted)."""
    INF = float("inf")
    label = dict.fromkeys(names, INF)
    label[source] = w[source]
    for _ in range(len(names)):
        changed = False
        for u, v in edges:
            lu = label[u]
            if lu != INF and lu + w[v] < label[v] - 1e-12:
                label[v] = lu + w[v]
                changed = True
        if not changed:
            break
    return [label[v] for v in names]


def _close(a, b):
    if a == float("inf") or b == float("inf"):
        return a == b
    return abs(a - b) <= TOL


def _rows_close(got, want):
    return len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want))


class Reference:
    """Reference answers for one workload, keyed like the worker's answers
    (``<instance key>/<problem>``); each is a function that checks an
    answer and returns an error message or None."""

    def __init__(self, workload, instances):
        import graphexpr

        self.fingerprints = []
        self.checks = {}
        for inst in instances:
            g = graphexpr.evaluate(graphexpr.parse(inst.text))
            self.fingerprints.append(fingerprint(inst, g))
            for problem in inst.spec.problems:
                key = f"{inst.spec.key}/{problem}"
                self.checks[key] = self._reference(workload, inst, g, problem)

    @staticmethod
    def _reference(workload, inst, g, problem):
        import graphexpr

        if problem == "tc":
            want = graphexpr.oracle_triangles(g)

            def check_tc(ans):
                if (ans["t"], ans["n"], ans["m"]) != (want, g.n, g.m):
                    return f"(t, n, m) = {(ans['t'], ans['n'], ans['m'])}, reference {(want, g.n, g.m)}"
                return None

            return check_tc

        w = inst.weights
        negative = graphexpr.oracle_ncd(g, w)
        full = None
        if g.n <= FULL_ORACLE_LIMIT and not negative:
            full = graphexpr.oracle_apsp(g, w)
        if full is not None:
            msp = min(full.values())
        elif min(w.values()) >= 0:
            msp = min(w.values())  # non-negative weights: a single vertex is cheapest
        else:
            msp = None
        names = sorted(g.vertices)
        costs = graphexpr.edge_shift(g, w)

        def check_paths(ans):
            if ans["negative"] != negative:
                return f"negative-cycle={ans['negative']}, reference {negative}"
            if negative:
                return None
            if msp is not None and not _close(ans["msp"], msp):
                return f"msp {ans['msp']}, reference {msp}"
            if problem == "ncd":
                if not graphexpr.check_potential(g, costs, ans["potential"]):
                    return "potential is not feasible"
                return None
            if ans["names"] != names:
                return "distance rows cover the wrong vertex set"
            for source, row in ans["rows"].items():
                if full is not None:
                    want = [full[(source, v)] for v in names]
                else:
                    want = _bellman_ford_row(source, names, g.edges, w)
                if not _rows_close(row, want):
                    return f"distance row of {source} differs from the reference"
            if not workload.sample_rows and len(ans["rows"]) != len(names):
                return "missing distance rows"
            return None

        return check_paths


def committed(workload_name, scale):
    data = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    return data.get(scale, {}).get(workload_name)


def main(argv=None):
    ap = argparse.ArgumentParser(description="rewrite fingerprints.json")
    ap.add_argument("--write", action="store_true", required=True)
    ap.parse_args(argv)
    workloads.use_checkout_source()
    data = {"fields": FINGERPRINT_FIELDS}
    for scale in workloads.SCALES:
        data[scale] = {}
        for name in workloads.NAMES:
            wl = workloads.get(name, scale)
            ref = Reference(wl, workloads.generate(wl))
            data[scale][name] = ref.fingerprints
    text = json.dumps(data, indent=None, separators=(",", ":"))
    # one instance per line keeps diffs readable
    text = text.replace("],[", "],\n[")
    FINGERPRINTS.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
