"""Algebraic graph expressions with heterogeneous structure.

Build graphs from expressions over union, join, vertex addition and
substitution (into explicit patterns or patterns given as tree-depth
expressions), extract the structural parameters (k, h, l), and solve
triangle counting, negative cycle detection and vertex-weighted all-pairs
shortest paths directly on the expression by folding it with per-operation
handlers.
"""

from .errors import ContractViolation, InputError, VerificationError
from .expr import (
    Empty,
    Expression,
    Inc,
    Join,
    Params,
    Pattern,
    Subst,
    SubstTd,
    Union,
    Vertex,
    evaluate,
    normalize,
    params,
    parse,
    validate,
    validate_or_raise,
)
from .framework import FoldStats, HandlerSet, assert_stats, fold
from .graphs import (
    DIRECTED,
    INF,
    NEGATIVE_CYCLE,
    UNDIRECTED,
    Graph,
    check_potential,
    edge_shift,
    floyd_vertex_weighted,
    is_negative_cycle,
    parse_weights,
)
from .oracle import (
    GenSpec,
    gen_fixture,
    gen_random,
    gen_weights,
    oracle_apsp,
    oracle_ncd,
    oracle_triangles,
)
from .paths import (
    all_pairs,
    apsp_outcome,
    detect_negative_cycle,
    ncd_outcome,
)
from .triangles import TriFold, count_triangles, triangle_summary

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "InputError",
    "VerificationError",
    "Empty",
    "Expression",
    "Inc",
    "Join",
    "Params",
    "Pattern",
    "Subst",
    "SubstTd",
    "Union",
    "Vertex",
    "evaluate",
    "normalize",
    "params",
    "parse",
    "validate",
    "validate_or_raise",
    "FoldStats",
    "HandlerSet",
    "assert_stats",
    "fold",
    "DIRECTED",
    "INF",
    "NEGATIVE_CYCLE",
    "UNDIRECTED",
    "Graph",
    "check_potential",
    "edge_shift",
    "floyd_vertex_weighted",
    "is_negative_cycle",
    "parse_weights",
    "GenSpec",
    "gen_fixture",
    "gen_random",
    "gen_weights",
    "oracle_apsp",
    "oracle_ncd",
    "oracle_triangles",
    "all_pairs",
    "apsp_outcome",
    "detect_negative_cycle",
    "ncd_outcome",
    "TriFold",
    "count_triangles",
    "triangle_summary",
]
