"""First-order systems d/dt x = A x + B u and named pattern generators.

The system maps to the n-by-(n+m) pattern of [sI - A  B]: every diagonal
position carries a degree-1 entry (the derivative term, whether or not
A_ii is nonzero), off-diagonal A positions and all B positions carry
constants.  In the graph, the degree-1 diagonal edges pair equation i with
state i; they form a row-saturating matching, so they all survive
reduction, and controllability becomes reachability: each state vertex
must share a reduced-graph component with some input vertex.  With every
row matched the reduction finds no H part; the input columns, never
matched, seed V, so the states joined to an input make up the V
components and every other state lies in a square block.  A component's
columns are sorted and the inputs come last, so it holds an input exactly
when its last column is one.

Note the modeling convention: the diagonal entry is treated as an
arbitrary degree-1 polynomial even when A_ii = 0, where the true entry is
exactly the monomial s.  The oracle answers both conventions, so the
difference is measurable (see README): the minor gcd on the pencil answers
this one, the Krylov rank of the true pencil the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision import AnalysisReport, analyze
from .patterns import PolyPattern, StateSpacePattern

__all__ = [
    "StateSpaceReport",
    "controllability_pencil",
    "analyze_statespace",
    "controller_canonical",
    "gilbert_form",
    "siso_interconnection",
]

INTERCONNECTION_KINDS = ("series", "parallel", "feedback")


@dataclass(frozen=True)
class StateSpaceReport:
    """Report on the pencil [sI - A  B], its per-state input-connectivity table, and the pencil itself."""

    base: AnalysisReport
    state_connectivity: tuple[bool, ...]
    pencil: PolyPattern

    @property
    def controllable(self) -> bool:
        return self.base.controllable


def controllability_pencil(ss: StateSpacePattern) -> PolyPattern:
    """The n-by-(n+m) pattern of [sI - A  B], built unchecked: every position comes from the checked ``ss``."""
    entries: dict[tuple[int, int], int] = {(i, i): 1 for i in range(ss.n)}
    for i, j in ss.a_entries:
        if i != j:  # diagonal A entries fold into the degree-1 derivative term
            entries[(i, j)] = 0
    for i, k in ss.b_entries:
        entries[(i, ss.n + k)] = 0
    return PolyPattern._from_checked(ss.n, ss.n + ss.m, entries)


def analyze_statespace(ss: StateSpacePattern) -> StateSpaceReport:
    """Analyze [sI - A  B] and tabulate which states reach an input vertex."""
    pencil = controllability_pencil(ss)
    base = analyze(pencil)
    # The components partition the columns, so one pass marks every state.
    connected = [False] * ss.n
    for comp in base.components:
        if comp.cols[-1] >= ss.n:
            for col in comp.cols:
                if col < ss.n:
                    connected[col] = True
    return StateSpaceReport(base=base, state_connectivity=tuple(connected), pencil=pencil)


def controller_canonical(n: int) -> StateSpacePattern:
    """Companion form: superdiagonal ones, dense last row, input into the last state."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    a = {(i, i + 1) for i in range(n - 1)}
    a.update((n - 1, j) for j in range(n))
    return StateSpacePattern(n, 1, frozenset(a), frozenset({(n - 1, 0)}))


def gilbert_form(n: int) -> StateSpacePattern:
    """Diagonal modes with one 2-state block: diagonal entries, superdiagonal (1,2), input into state 2.

    For n >= 3 states 3..n have no path to the input, so the analysis
    reports this shape uncontrollable; the exact-arithmetic oracles agree.
    """
    if n < 2:
        raise ValueError(f"order must be at least 2, got {n}")
    a = {(i, i) for i in range(n)}
    a.add((0, 1))
    return StateSpacePattern(n, 1, frozenset(a), frozenset({(1, 0)}))


def siso_interconnection(kind: str, n1: int, n2: int) -> PolyPattern:
    """Pattern of two SISO systems q_i/p_i (deg p_i = n_i, deg q_i = n_i - 1) composed.

    series:    p1 y1 = q1 r,  p2 y2 = q2 y1            -> 2x3 over (r, y1, y2)
    parallel:  p1 u1 = q1 r,  p2 u2 = q2 r,  y = u1+u2 -> 3x4 over (u1, u2, r, y)
    feedback:  e = r - v,  p1 y = q1 e,  p2 v = q2 y   -> 3x4 over (y, e, v, r)

    All three compositions are structurally controllable with no redundant
    edges, whatever the orders.
    """
    if kind not in INTERCONNECTION_KINDS:
        raise ValueError(f"unknown interconnection kind {kind!r}, expected one of {INTERCONNECTION_KINDS}")
    if n1 < 1 or n2 < 1:
        raise ValueError(f"subsystem orders must be positive, got {n1}, {n2}")
    if kind == "series":
        entries = {(0, 0): n1 - 1, (0, 1): n1, (1, 1): n2 - 1, (1, 2): n2}
        return PolyPattern(2, 3, entries)
    if kind == "parallel":
        entries = {
            (0, 0): n1, (0, 2): n1 - 1,
            (1, 1): n2, (1, 2): n2 - 1,
            (2, 0): 0, (2, 1): 0, (2, 3): 0,
        }
        return PolyPattern(3, 4, entries)
    entries = {
        (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (1, 0): n1, (1, 1): n1 - 1,
        (2, 0): n2 - 1, (2, 2): n2,
    }
    return PolyPattern(3, 4, entries)
