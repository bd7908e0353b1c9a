"""Structural verdicts: generic nonsingularity, generic unimodularity, controllability.

The controllability question for a differential-algebraic system with a
given sparsity pattern reduces to a purely combinatorial check: build the
weighted bipartite graph of the pattern, drop every redundant edge, and
inspect the connected components.  The system is structurally controllable
exactly when every component with equally many row and column vertices has
all edge weights zero (a square all-constant block is generically
invertible; a square block with a degree >= 1 entry contributes roots that
every maximal minor shares).

Rank-deficient and tall (p > v) patterns run through the same path, with
redundancy defined against matchings of size r1 = term rank.

The witness edge is the first weighted kept edge, in (row, column) order,
whose row carries the witness component's label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigraph import build_graph, term_rank
from .errors import ZeroTermRankError
from .patterns import PolyPattern
from .reduction import Component, ReducedGraph, connected_components, remove_redundant_edges

__all__ = [
    "CONTROLLABLE",
    "UNCONTROLLABLE",
    "Witness",
    "AnalysisReport",
    "generic_nonsingular",
    "generic_unimodular",
    "analyze",
    "analyze_reduction",
]

CONTROLLABLE = "structurally controllable"
UNCONTROLLABLE = "structurally uncontrollable"


@dataclass(frozen=True)
class Witness:
    """Proof of uncontrollability: a square component and the first of its weighted edges in (row, column) order."""

    component: int  # index into AnalysisReport.components
    edge: tuple[int, int]
    weight: int


@dataclass(frozen=True)
class AnalysisReport:
    verdict: str
    minimal: bool
    term_rank: int
    redundant_edges: tuple[tuple[int, int], ...]
    components: tuple[Component, ...]
    witness: Witness | None

    @property
    def controllable(self) -> bool:
        return self.verdict == CONTROLLABLE


def generic_nonsingular(pattern: PolyPattern) -> bool:
    """True iff a square pattern admits a perfect matching (generic determinant nonzero)."""
    if pattern.rows != pattern.cols:
        raise ValueError(f"nonsingularity requires a square pattern, got {pattern.rows}x{pattern.cols}")
    return term_rank(build_graph(pattern)) == pattern.rows


def generic_unimodular(pattern: PolyPattern) -> bool:
    """True iff the generic determinant of a square pattern is a nonzero constant.

    Holds exactly when a perfect matching exists and every non-redundant
    edge has weight zero: each surviving determinant term is then constant
    and, the entries being independent, the terms cannot cancel.
    """
    if pattern.rows != pattern.cols:
        raise ValueError(f"unimodularity requires a square pattern, got {pattern.rows}x{pattern.cols}")
    rg = remove_redundant_edges(build_graph(pattern))
    return rg.base_rank == pattern.rows and all(w == 0 for _, _, w in rg.edges)


def analyze_reduction(rg: ReducedGraph) -> AnalysisReport:
    """Assemble the verdict report from a graph's reduction."""
    comps = tuple(connected_components(rg))

    witness = None
    for idx, comp in enumerate(comps):
        if comp.max_weight >= 1 and len(comp.rows) == len(comp.cols):
            r, c, w = next(e for e in rg.edges if e[2] >= 1 and rg.row_component[e[0]] == idx)
            witness = Witness(component=idx, edge=(r, c), weight=w)
            break

    return AnalysisReport(
        verdict=UNCONTROLLABLE if witness else CONTROLLABLE,
        minimal=rg.base_rank == rg.r_count,
        term_rank=rg.base_rank,
        redundant_edges=tuple([(r, c) for r, c, _ in rg.redundant]),
        components=comps,
        witness=witness,
    )


def analyze(pattern: PolyPattern) -> AnalysisReport:
    """Full structural-controllability analysis of a pattern.

    Raises ZeroTermRankError for a pattern with no entries: with no
    effective equation present there is nothing to decide.
    """
    g = build_graph(pattern)
    if not g.edges:
        raise ZeroTermRankError("pattern has no entries; no equations effectively present")
    return analyze_reduction(remove_redundant_edges(g))
