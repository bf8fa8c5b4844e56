"""Shared corpus fixtures.

The corpora are deterministic: one instance per seed, cycling through the
seven class shapes (pure tree-depth, pure modular, pure td-pattern, and the
four mixes) with vertex budgets below the caps used by the acceptance
criteria.
"""

import pytest

from graphexpr import DIRECTED, UNDIRECTED, evaluate, gen_random, gen_weights, params
from graphexpr.framework import Verdict
from graphexpr.oracle import GenSpec

# (k, h, l) templates for the seven class shapes
SHAPES = [
    (0, 0, 0),
    (3, 0, 0),
    (0, 4, 0),
    (0, 0, 2),
    (2, 3, 0),
    (2, 0, 2),
    (0, 3, 2),
]


def _need(k, h, l):
    need = 0
    if k:
        need += k
    if h:
        need += h
    if l:
        need += max(2, l)
    return max(need, 1)


def answer(handler, *args):
    """What a handler called directly answers: its value, or the value of
    the ``Verdict`` it raises to end a fold."""
    try:
        return handler(*args)
    except Verdict as verdict:
        return verdict.value


def corpus_instance(seed, mode, max_budget):
    k, h, l = SHAPES[seed % len(SHAPES)]
    budget = max(2 + seed % (max_budget - 1), _need(k, h, l))
    e = gen_random(GenSpec(mode, k=k, h=h, l=l, budget=budget, seed=seed))
    return e


@pytest.fixture(scope="session")
def tc_corpus():
    """1000 undirected expressions, <= 40 vertices, all seven shapes."""
    corpus = []
    for seed in range(1000):
        e = corpus_instance(seed, UNDIRECTED, 40)
        g = evaluate(e)
        assert g.n <= 40
        corpus.append((e, g, params(e)))
    return corpus


@pytest.fixture(scope="session")
def paths_corpus():
    """1000 directed weighted expressions, <= 25 vertices, weights uniform
    in [-5, 5]."""
    corpus = []
    for seed in range(1000):
        e = corpus_instance(seed, DIRECTED, 25)
        g = evaluate(e)
        assert g.n <= 25
        w = gen_weights(g.vertices, -5.0, 5.0, seed)
        corpus.append((e, g, w, params(e)))
    return corpus
