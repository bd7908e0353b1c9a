"""Structural controllability of linear differential-algebraic systems.

Decides, from the sparsity and entry degrees of a polynomial matrix alone,
whether the system M(d/dt) w = 0 is controllable for generic parameter
values, and cross-validates every verdict with an exact symbolic oracle.
"""

from .bigraph import Matching, WeightedBigraph, build_graph, max_matching, term_rank
from .decision import (
    CONTROLLABLE,
    UNCONTROLLABLE,
    AnalysisReport,
    Witness,
    analyze,
    analyze_reduction,
    generic_nonsingular,
    generic_unimodular,
)
from .errors import GuardLimitError, PatternFormatError, ZeroTermRankError
from .oracle import (
    ExactMatrix,
    ExactPoly,
    instantiate,
    kalman_controllable,
    minor_gcd,
    poly_gcd,
    zero_set_empty,
    zero_set_gcd_degrees,
)
from .patterns import (
    PolyPattern,
    StateSpacePattern,
    emit_pattern,
    emit_statespace,
    parse_pattern,
    parse_statespace,
)
from .reduction import Component, ReducedGraph, connected_components, remove_redundant_edges
from .statespace import (
    StateSpaceReport,
    analyze_statespace,
    controllability_pencil,
    controller_canonical,
    gilbert_form,
    siso_interconnection,
    strict_monomial_entries,
)

__version__ = "0.1.0"

__all__ = [
    "PolyPattern",
    "StateSpacePattern",
    "parse_pattern",
    "parse_statespace",
    "emit_pattern",
    "emit_statespace",
    "WeightedBigraph",
    "Matching",
    "build_graph",
    "max_matching",
    "term_rank",
    "ReducedGraph",
    "Component",
    "remove_redundant_edges",
    "connected_components",
    "CONTROLLABLE",
    "UNCONTROLLABLE",
    "AnalysisReport",
    "Witness",
    "analyze",
    "analyze_reduction",
    "generic_nonsingular",
    "generic_unimodular",
    "StateSpaceReport",
    "controllability_pencil",
    "strict_monomial_entries",
    "analyze_statespace",
    "controller_canonical",
    "gilbert_form",
    "siso_interconnection",
    "ExactPoly",
    "ExactMatrix",
    "poly_gcd",
    "instantiate",
    "minor_gcd",
    "zero_set_empty",
    "zero_set_gcd_degrees",
    "kalman_controllable",
    "PatternFormatError",
    "GuardLimitError",
    "ZeroTermRankError",
]
