"""Structural verdicts: the controllability report of a pattern.

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

from typing import NamedTuple

from .bigraph import build_graph
from .errors import ZeroTermRankError
from .patterns import PolyPattern
from .reduction import Component, ReducedGraph, connected_components, remove_redundant_edges

__all__ = [
    "CONTROLLABLE",
    "UNCONTROLLABLE",
    "Witness",
    "AnalysisReport",
    "analyze",
    "analyze_reduction",
]

CONTROLLABLE = "structurally controllable"
UNCONTROLLABLE = "structurally uncontrollable"


class Witness(NamedTuple):
    """Proof of uncontrollability: a square component and the first of its weighted edges in (row, column) order."""

    component: int  # index into AnalysisReport.components
    edge: tuple[int, int]
    weight: int


class AnalysisReport(NamedTuple):
    verdict: str
    minimal: bool
    term_rank: int
    redundant_edges: tuple[tuple[int, int], ...]
    components: tuple[Component, ...]
    witness: Witness | None

    @property
    def controllable(self) -> bool:
        return self.verdict == CONTROLLABLE


def analyze_reduction(rg: ReducedGraph) -> AnalysisReport:
    """Assemble the verdict report from a graph's reduction."""
    comps = tuple(connected_components(rg))

    witness = None
    row_component = rg.row_component
    for idx, comp in enumerate(comps):
        if comp.max_weight >= 1 and len(comp.rows) == len(comp.cols):
            r, c, w = next(e for e in rg.edges if e[2] >= 1 and row_component[e[0]] == idx)
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
