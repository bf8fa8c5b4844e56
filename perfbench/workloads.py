"""Workload definitions and input generation.

A workload is a fixed list of instances.  Each instance is made by the
package's own seeded generator (``gen_random``), printed with the canonical
printer (``cli.format_expression``) and, for the path problems, weighted by
``gen_weights``.  The instance seeds are fixed; the benchmark's ``--seed``
only sets the order in which the instances are solved, so every run solves
the same inputs and ``fingerprints.json`` can pin them.

Importing this module does not import ``graphexpr``: the set-up time the
benchmark reports starts before that import.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (k, h, l) of the acceptance corpus, cycled by seed (see tests/conftest.py)
SMALL_SHAPES = [
    (0, 0, 0),
    (3, 0, 0),
    (0, 4, 0),
    (0, 0, 2),
    (2, 3, 0),
    (2, 0, 2),
    (0, 3, 2),
]


@dataclass(frozen=True)
class Spec:
    """One generated instance: ``problems`` are solved on the same input."""

    key: str
    problems: tuple
    directed: bool
    k: int
    h: int
    l: int
    budget: int
    seed: int
    weights: tuple = None  # (lo, hi) for gen_weights, None for TC


@dataclass
class Instance:
    spec: Spec
    text: str
    weights: dict
    n: int


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple
    # wall seconds of one pass over the tasks, kernel runs included, at the
    # seed commit on the reference machine; a run of S seconds makes
    # round(S / pass_s) passes
    pass_s: float
    sample_rows: int = 0  # APSP rows checked per instance; 0 = all rows


def _corpus(prefix, problems, directed, count, max_budget, weights=None):
    """The acceptance corpus of tests/conftest.py: seeds 0..count-1 cycling
    through the seven shapes, at most ``max_budget`` vertices."""
    specs = []
    for seed in range(count):
        k, h, l = SMALL_SHAPES[seed % len(SMALL_SHAPES)]
        need = max(k + h + (max(2, l) if l else 0), 1)
        budget = max(2 + seed % (max_budget - 1), need)
        specs.append(Spec(f"{prefix}{seed}", problems, directed, k, h, l, budget, seed, weights))
    return tuple(specs)


def _small_mixed(count):
    return _corpus("tc", ("tc",), False, count, 40) + _corpus(
        "p", ("ncd", "apsp"), True, count, 25, (-5.0, 5.0)
    )


def _fixed(problem, directed, shape, sizes, weights=None):
    k, h, l = shape
    return tuple(
        Spec(f"n{budget}s{seed}", (problem,), directed, k, h, l, budget, seed, weights)
        for budget, seed in sizes
    )


# (budget, seed) pairs, three per workload: with an odd count of equally
# often solved instances the median solve falls inside the middle one.  The
# TC pairs are the first three seeds at budget 2000 whose evaluated graph
# has 25 <= m / n <= 50: dense enough that evaluation is the largest layer,
# sparse enough that oracle_triangles checks them in about 2 s.
_WORKLOADS = {
    "full": [
        Workload(
            "tc-join-heavy",
            _fixed("tc", False, (2, 4, 0), [(2000, 7), (2000, 14), (2000, 24)]),
            pass_s=0.80,
        ),
        Workload(
            "apsp-expand",
            _fixed("apsp", True, (2, 4, 2), [(600, s) for s in (1, 2, 3)], (0.0, 5.0)),
            pass_s=1.04,
            sample_rows=8,
        ),
        Workload(
            "ncd-wide-union",
            _fixed("ncd", True, (3, 0, 0), [(2000, s) for s in (1, 2, 3)], (0.0, 5.0)),
            pass_s=1.25,
        ),
        Workload("small-mixed", _small_mixed(1000), pass_s=8.0),
    ],
    "toy": [
        Workload(
            "tc-join-heavy",
            _fixed("tc", False, (2, 4, 0), [(200, 3), (300, 2)]),
            pass_s=0.06,
        ),
        Workload(
            "apsp-expand",
            _fixed("apsp", True, (2, 4, 2), [(60, 1), (60, 2)], (0.0, 5.0)),
            pass_s=0.03,
            sample_rows=8,
        ),
        Workload(
            "ncd-wide-union",
            _fixed("ncd", True, (3, 0, 0), [(200, 1), (200, 2)], (0.0, 5.0)),
            pass_s=0.06,
        ),
        Workload("small-mixed", _small_mixed(21), pass_s=0.18),
    ],
}

SCALES = tuple(_WORKLOADS)
NAMES = tuple(w.name for w in _WORKLOADS["full"])


def get(name: str, scale: str = "full") -> Workload:
    for w in _WORKLOADS[scale]:
        if w.name == name:
            return w
    raise KeyError(name)


def use_checkout_source():
    """Make ``import graphexpr`` load the package from this checkout's
    ``src`` and nowhere else.  Raises SystemExit when it is missing."""
    if not (SRC / "graphexpr" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no graphexpr package under {SRC}")
    sys.path.insert(0, str(SRC))


def generate(workload: Workload) -> list:
    """The workload's inputs, from the package's own generator and printer."""
    return list(iter_instances(workload))


def iter_instances(workload: Workload):
    """Yield the workload's inputs one at a time, so that a caller can time
    the generation of each."""
    import graphexpr
    from graphexpr.cli import format_expression
    from graphexpr.expr import collect_vertex_names
    from graphexpr.oracle import GenSpec

    if not Path(graphexpr.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: graphexpr imported from {graphexpr.__file__}")
    for spec in workload.specs:
        mode = graphexpr.DIRECTED if spec.directed else graphexpr.UNDIRECTED
        e = graphexpr.gen_random(
            GenSpec(mode, k=spec.k, h=spec.h, l=spec.l, budget=spec.budget, seed=spec.seed)
        )
        weights = None
        if spec.weights is not None:
            lo, hi = spec.weights
            weights = graphexpr.gen_weights(collect_vertex_names(e.root), lo, hi, spec.seed)
        # the generator makes exactly ``budget`` vertices
        yield Instance(spec, format_expression(e), weights, spec.budget)


def tasks(workload: Workload) -> list:
    """``(instance index, problem)`` for every solve of one pass."""
    return [(i, p) for i, spec in enumerate(workload.specs) for p in spec.problems]
