"""Shared pattern builders used across the test modules.

Indices here are 0-based, matching the library's internal convention.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from structctrl import (
    Component,
    ExactMatrix,
    GuardLimitError,
    PolyPattern,
    ReducedGraph,
    StateSpacePattern,
    Witness,
    analyze,
    build_graph,
    remove_redundant_edges,
    term_rank,
)
from structctrl.bigraph import _UNMATCHED, WeightedBigraph, _max_matching_pairs
from structctrl.oracle import _PRIME


@dataclass(frozen=True)
class Matching:
    """A set of edges no two of which share a vertex."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        rows = [r for r, _ in self.pairs]
        cols = [c for _, c in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("matching pairs share a vertex")

    def __len__(self):
        return len(self.pairs)

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    def r_set(self) -> frozenset[int]:
        return frozenset(r for r, _ in self.pairs)

    def c_set(self) -> frozenset[int]:
        return frozenset(c for _, c in self.pairs)


def graph(r: int, c: int, edges) -> WeightedBigraph:
    """Graph on (row, column, weight) triples in any order, checked and sorted by the pattern it goes through."""
    return build_graph(PolyPattern(r, c, {(i, j): w for i, j, w in edges}))


def max_matching(g: WeightedBigraph) -> Matching:
    """A maximum-cardinality matching of g, from the library's matching search (deterministic for a fixed graph)."""
    _, pair_r, _ = _max_matching_pairs(g)
    return Matching(frozenset((r, c) for r, c in enumerate(pair_r) if c != _UNMATCHED))


def wide_2x3() -> PolyPattern:
    """2x3 pattern, zero only at (0,0); degrees 1,0 / 2,0,1.

    Its graph has term rank 2 and exactly four row-saturating matchings,
    none of its five edges redundant.  It is not ``fixtures/wide_2x3.txt``:
    the file has the same five positions, but degree 1 at (0,2) and (1,1).
    """
    return PolyPattern(2, 3, {(0, 1): 1, (0, 2): 0, (1, 0): 2, (1, 1): 0, (1, 2): 1})


def starved_rows() -> PolyPattern:
    """Rows 0 and 1 both depend on column 0; edge (1,0) lies in no 2-matching."""
    return PolyPattern(2, 3, {(0, 0): 0, (1, 0): 0, (1, 1): 0, (1, 2): 0})


def forced_block() -> PolyPattern:
    """3x4 block pattern: a square 2x2 block on rows {0,1} x cols {0,1} with a
    degree-1 entry, plus an independent 1x2 block on row 2 x cols {2,3}.

    Every row-saturating matching sends rows {0,1} onto columns {0,1}, so the
    weighted entry makes the zero set generically nonempty.
    """
    return PolyPattern(3, 4, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0, (2, 2): 0, (2, 3): 0})


def shared_drive_ss() -> StateSpacePattern:
    """Three states all driven by state 2 only; input enters equation 2.

    Classically uncontrollable (states 1 and 3 are not reachable), yet the
    generic-diagonal pattern analysis reports controllable: the flagship
    fixture for the two-conventions study.
    """
    return StateSpacePattern(3, 1, frozenset({(0, 1), (1, 1), (2, 1)}), frozenset({(1, 0)}))


def relay_ss() -> StateSpacePattern:
    """Like shared_drive_ss but equation 3 reads state 1; controllable."""
    return StateSpacePattern(3, 1, frozenset({(0, 1), (1, 1), (2, 0)}), frozenset({(1, 0)}))


def chain_ss() -> StateSpacePattern:
    """Chain x1 <- x2 <- x3 <- input; controllable."""
    return StateSpacePattern(3, 1, frozenset({(0, 1), (1, 2), (2, 2)}), frozenset({(2, 0)}))


def integrator_ss() -> StateSpacePattern:
    return StateSpacePattern(1, 1, frozenset(), frozenset({(0, 0)}))


def same_graph(a: WeightedBigraph, b: WeightedBigraph) -> bool:
    """Equal as values, with adjacency lists and weights that match the edges.

    The adjacency lists are derived here from the edge tuple, so a fault in
    the constructor's own derivation still shows.
    """
    rows = tuple(tuple(c for r, c, _ in b.edges if r == x) for x in range(b.r_count))
    cols = tuple(tuple(r for r, c, _ in b.edges if c == y) for y in range(b.c_count))
    weights = {(r, c): w for r, c, w in b.edges}
    return (
        a == b
        and a.r_adj == b.r_adj == rows
        and a.c_adj == b.c_adj == cols
        and {(r, c): w for r, c, w in a.edges} == weights
        and len(weights) == len(b.edges)
    )


def edge_is_redundant(g: WeightedBigraph, edge: tuple[int, int], rank: int) -> bool:
    """Reference definition: True iff ``edge`` lies in no matching of cardinality ``rank``.

    ``rank`` must be the term rank of ``g``.  An edge (r, c) lies in such a
    matching exactly when the graph without every edge at row r or column c
    still has a matching of size rank - 1.  One full matching per edge, so
    only for checking the linear-time classifier on test-sized graphs.
    """
    r, c = edge
    if not any(e[:2] == edge for e in g.edges):
        raise ValueError(f"edge ({r},{c}) not present in graph")
    rest = graph(g.r_count, g.c_count, [e for e in g.edges if e[0] != r and e[1] != c])
    return term_rank(rest) < rank - 1


def reduced_graph(rg: ReducedGraph) -> WeightedBigraph:
    """The graph of a reduction's kept edges, for tests that search or reduce it again."""
    return graph(rg.r_count, rg.c_count, rg.edges)


class _DisjointSet:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller root wins so component ids are stable
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _union_find_groups(r_count: int, c_count: int, edges) -> tuple[_DisjointSet, list[int]]:
    """Union-find over the vertices (rows first, then columns) joined by ``edges``, and its roots in ascending order.

    The smaller root wins each union, so each root is its group's smallest vertex.
    """
    dsu = _DisjointSet(r_count + c_count)
    for r, c, _ in edges:
        dsu.union(r, r_count + c)
    return dsu, sorted({dsu.find(v) for v in range(r_count + c_count)})


def reference_reduction(g: WeightedBigraph) -> ReducedGraph:
    """The reduction of ``g`` as ``edge_is_redundant`` classifies its edges, components numbered by union-find.

    Edges of one maximum matching lie in a maximum matching by definition
    and are kept without a search.
    """
    rank = term_rank(g)
    matched = max_matching(g).pairs
    redundant = tuple(e for e in g.edges if (e[0], e[1]) not in matched and edge_is_redundant(g, (e[0], e[1]), rank))
    kept = tuple(e for e in g.edges if e not in redundant)
    dsu, roots = _union_find_groups(g.r_count, g.c_count, kept)
    number = {root: k for k, root in enumerate(roots)}
    labels = tuple(number[dsu.find(v)] for v in range(g.r_count + g.c_count))
    return ReducedGraph(g.r_count, g.c_count, kept, redundant, rank, labels[: g.r_count], labels[g.r_count :])


def reference_components(rg: ReducedGraph) -> list[Component]:
    """Connected components of the kept edges by union-find, ordered by smallest vertex number (rows first, then columns).

    The library labels components from its edge classification; this is the
    reference it is checked against, and reads only ``rg``'s kept edges.
    """
    dsu, roots = _union_find_groups(rg.r_count, rg.c_count, rg.edges)
    groups: dict[int, list[int]] = {root: [] for root in roots}
    for v in range(rg.r_count + rg.c_count):
        groups[dsu.find(v)].append(v)
    heaviest = dict.fromkeys(roots, 0)
    for r, _, w in rg.edges:
        root = dsu.find(r)
        heaviest[root] = max(heaviest[root], w)

    components = []
    for root in roots:
        members = groups[root]
        rows = tuple(v for v in members if v < rg.r_count)
        cols = tuple(v - rg.r_count for v in members if v >= rg.r_count)
        components.append(Component(rows, cols, heaviest[root]))
    return components


def open_parts(g: WeightedBigraph) -> tuple[set[int], set[int], set[int], set[int]]:
    """Rows and columns of the Dulmage-Mendelsohn parts H and V, by breadth-first alternating search.

    H: the rows reached from unmatched rows along (row -> any column ->
    its mate) steps, and the columns next to them.  V: the columns reached
    from unmatched columns along (column -> any row -> its mate) steps, and
    the rows next to them.  Returns (H rows, H columns, V rows, V columns).
    """
    pairs = max_matching(g).pairs
    col_of = dict(pairs)
    row_of = {c: r for r, c in pairs}
    h_rows = {r for r in range(g.r_count) if r not in col_of}
    frontier = list(h_rows)
    while frontier:
        frontier = {row_of[c] for r in frontier for c in g.r_adj[r] if c in row_of} - h_rows
        h_rows |= frontier
    v_cols = {c for c in range(g.c_count) if c not in row_of}
    frontier = list(v_cols)
    while frontier:
        frontier = {col_of[r] for c in frontier for r in g.c_adj[c] if r in col_of} - v_cols
        v_cols |= frontier
    h_cols = {c for r in h_rows for c in g.r_adj[r]}
    v_rows = {r for c in v_cols for r in g.c_adj[c]}
    return h_rows, h_cols, v_rows, v_cols


def reference_witness(rg: ReducedGraph, components: list[Component]) -> Witness | None:
    """The first square component with a weighted edge, and its first weighted edge sorted by (row, col).

    A component's edges are the kept edges at its rows.
    """
    weights = {(r, c): w for r, c, w in rg.edges}
    for idx, comp in enumerate(components):
        if len(comp.rows) != len(comp.cols):
            continue
        rows = set(comp.rows)
        offending = sorted((r, c) for r, c, w in rg.edges if w >= 1 and r in rows)
        if offending:
            return Witness(component=idx, edge=offending[0], weight=weights[offending[0]])
    return None


def matchings_of_size(g: WeightedBigraph, k: int, max_rows: int = 8) -> list[Matching]:
    """All matchings of cardinality exactly k, in lexicographic order.

    Exponential by design; intended as a small-instance test oracle, hence
    the row-count guard.
    """
    if g.r_count > max_rows:
        raise GuardLimitError(f"matching enumeration guarded at {max_rows} rows, graph has {g.r_count}")
    if k < 0:
        raise ValueError(f"matching size must be non-negative, got {k}")
    results: list[tuple[tuple[int, int], ...]] = []
    chosen: list[tuple[int, int]] = []
    used_cols = [False] * g.c_count

    def rec(row: int):
        if len(chosen) == k:
            results.append(tuple(chosen))
            return
        if row == g.r_count or len(chosen) + (g.r_count - row) < k:
            return
        for c in g.r_adj[row]:
            if not used_cols[c]:
                used_cols[c] = True
                chosen.append((row, c))
                rec(row + 1)
                chosen.pop()
                used_cols[c] = False
        rec(row + 1)  # leave this row unmatched

    rec(0)
    results.sort()
    return [Matching(frozenset(pairs)) for pairs in results]


def forced_subset_criterion(pattern: PolyPattern, max_rows: int = 8) -> bool:
    """Decide generic zero-set emptiness by exhausting row subsets.

    A row subset is *forced* when every row-saturating matching sends it to
    one and the same column set; the criterion holds iff every forced subset
    touches only weight-zero edges in the reduced graph.  Exponential in the
    row count (all subsets against all saturating matchings), hence guarded;
    this is the reference oracle for the component-based verdict.
    """
    g = build_graph(pattern)
    if g.r_count > max_rows:
        raise GuardLimitError(f"subset criterion guarded at {max_rows} rows, pattern has {g.r_count}")
    if term_rank(g) != g.r_count:
        raise ValueError("subset criterion requires full row term rank")
    rg = remove_redundant_edges(g)
    # Saturating matchings of the reduced graph are exactly those of g.
    images = [dict(m.sorted_pairs()) for m in matchings_of_size(reduced_graph(rg), g.r_count, max_rows)]

    heavy_rows = {r for r, _, w in rg.edges if w >= 1}
    if not heavy_rows:
        return True
    rows = range(g.r_count)
    for mask in range(1, 1 << g.r_count):
        subset = [r for r in rows if mask >> r & 1]
        if not any(r in heavy_rows for r in subset):
            continue
        first = frozenset(images[0][r] for r in subset)
        if all(frozenset(img[r] for r in subset) == first for img in images[1:]):
            return False  # forced subset with a weighted edge attached
    return True


def criteria_equivalent(pattern: PolyPattern, max_rows: int = 8) -> bool:
    """Cross-check: subset criterion and component verdict must always agree."""
    return forced_subset_criterion(pattern, max_rows) == analyze(pattern).controllable


class ExactPoly:
    """Reference univariate polynomial with arbitrary-precision integer coefficients.

    Coefficients ascend by degree; trailing zeros are stripped, so the
    leading coefficient is nonzero unless the polynomial is zero (empty
    coefficient tuple).  The library works on bare coefficient tuples; this
    type gives the reference determinants and gcds their arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> "ExactPoly":
        return cls((c,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __neg__(self):
        return ExactPoly(-c for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ExactPoly(other * c for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return ExactPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ExactPoly(out)

    __rmul__ = __mul__

    def primitive_part(self) -> "ExactPoly":
        """Divide out the integer content; sign of the leading coefficient is kept."""
        g = math.gcd(*self.coeffs)
        return ExactPoly(c // g for c in self.coeffs)

    def __repr__(self):
        return f"ExactPoly({list(self.coeffs)})"


def dense_grid(matrix: ExactMatrix) -> list[list[ExactPoly]]:
    """The matrix's triples expanded into a rows-by-cols grid of reference polynomials, zero where no triple is."""
    grid = [[ExactPoly()] * matrix.cols for _ in range(matrix.rows)]
    for i, j, coeffs in matrix.entries:
        grid[i][j] = ExactPoly(coeffs)
    return grid


def minor_determinant(matrix: ExactMatrix, row_set, col_set) -> ExactPoly:
    """Reference determinant of one square submatrix, rows and columns in sorted order.

    Cofactor expansion along rows, memoized only on this minor's own
    still-unused columns; the library's ``minor_gcd`` shares one memo
    across all minors and is checked against this.
    """
    grid = dense_grid(matrix)
    rows = sorted(row_set)
    cols = sorted(col_set)
    k = len(rows)
    one = ExactPoly.constant(1)
    memo: dict[int, ExactPoly] = {0: one}

    def det(mask: int) -> ExactPoly:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        i = k - bin(mask).count("1")  # rows 0..i-1 already consumed
        total = ExactPoly()
        sign = 1
        for j in range(k):
            if mask >> j & 1:
                e = grid[rows[i]][cols[j]]
                if not e.is_zero:
                    total = total + sign * (e * det(mask & ~(1 << j)))
                sign = -sign
        memo[mask] = total
        return total

    return det((1 << k) - 1)


def poly_exact_div(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Quotient a / b when b divides a exactly in integer polynomials; raises otherwise."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ExactPoly()
    if a.degree < b.degree:
        raise ValueError("not exactly divisible")
    rem = [Fraction(c) for c in a.coeffs]
    quot = [Fraction(0)] * (a.degree - b.degree + 1)
    blead = Fraction(b.lead)
    top = len(rem) - 1
    while top >= b.degree:
        while top >= 0 and rem[top] == 0:
            top -= 1
        if top < b.degree:
            break
        shift = top - b.degree
        q = rem[top] / blead
        quot[shift] = q
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= q * c
    if any(c != 0 for c in rem):
        raise ValueError("not exactly divisible")
    if any(q.denominator != 1 for q in quot):
        raise ValueError("quotient is not an integer polynomial")
    return ExactPoly(int(q) for q in quot)


def det_bareiss(matrix: ExactMatrix, row_set=None, col_set=None) -> ExactPoly:
    """Determinant by fraction-free elimination; independent of the Laplace expansion in minor_gcd.

    Every division is exact in integer polynomials (the entries after each
    elimination step are themselves minors of the original matrix).
    """
    rows = sorted(row_set) if row_set is not None else list(range(matrix.rows))
    cols = sorted(col_set) if col_set is not None else list(range(matrix.cols))
    if len(rows) != len(cols):
        raise ValueError(f"selection is not square: {len(rows)} rows, {len(cols)} columns")
    n = len(rows)
    one = ExactPoly.constant(1)
    if n == 0:
        return one
    full = dense_grid(matrix)
    grid = [[full[r][c] for c in cols] for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if grid[k][k].is_zero:
            for i in range(k + 1, n):
                if not grid[i][k].is_zero:
                    grid[k], grid[i] = grid[i], grid[k]
                    sign = -sign
                    break
            else:
                return ExactPoly()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = grid[k][k] * grid[i][j] - grid[i][k] * grid[k][j]
                grid[i][j] = poly_exact_div(num, prev) if num else ExactPoly()
            grid[i][k] = ExactPoly()
        prev = grid[k][k]
    return sign * grid[n - 1][n - 1]


def reference_poly_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Gcd over the rationals by monic Euclid on Fractions, as the positive primitive integer polynomial.

    Shares nothing with the library's Euclid over F_q, which is checked
    against its image ``monic_mod_q``.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    f = [Fraction(c) for c in a.coeffs]
    g = [Fraction(c) for c in b.coeffs]
    while g:
        g = [c / g[-1] for c in g]  # monic, so each step cancels the lead of f exactly
        while len(f) >= len(g):
            shift, top = len(f) - len(g), f[-1]
            for i, c in enumerate(g):
                f[shift + i] -= top * c
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    scale = math.lcm(*(c.denominator for c in f))
    ints = [int(c * scale) for c in f]
    content = math.gcd(*ints)
    sign = 1 if ints[-1] > 0 else -1
    return ExactPoly(sign * c // content for c in ints)


def monic_mod_q(poly: ExactPoly) -> tuple[int, ...]:
    """The monic image mod q = 2^61 - 1 of a polynomial, as residues in [0, q).

    It is the form in which ``minor_gcd`` returns a gcd; q must not divide
    the leading coefficient.
    """
    inv = pow(poly.lead, -1, _PRIME)
    return tuple(c * inv % _PRIME for c in poly.coeffs)


def reference_kalman_controllable(ss: StateSpacePattern, seeds, coeff_bound: int = 99) -> bool:
    """Rank over Q of [B, AB, ..., A^(n-1) B] from dense n-by-n products, drawing A and B as the library does.

    Entries are drawn in sorted A-entry then sorted B-entry order, each a random
    sign times a magnitude in [1, coeff_bound]; the library's Krylov closure
    mod a prime is checked against this exact rank.
    """
    for seed in seeds:
        rng = random.Random(seed)
        a = [[0] * ss.n for _ in range(ss.n)]
        for i, j in sorted(ss.a_entries):
            a[i][j] = rng.choice((1, -1)) * rng.randint(1, coeff_bound)
        b = [[0] * ss.m for _ in range(ss.n)]
        for i, k in sorted(ss.b_entries):
            b[i][k] = rng.choice((1, -1)) * rng.randint(1, coeff_bound)

        block = b
        columns = [list(col) for col in zip(*b)] if ss.m else []
        for _ in range(ss.n - 1):
            block = [[sum(a[i][t] * block[t][k] for t in range(ss.n)) for k in range(ss.m)] for i in range(ss.n)]
            columns.extend(list(col) for col in zip(*block))
        ctrb_rows = [[col[i] for col in columns] for i in range(ss.n)]
        if fraction_rank(ctrb_rows) == ss.n:
            return True
    return False


def true_pencil(ss: StateSpacePattern, seed: int, coeff_bound: int = 99) -> ExactMatrix:
    """The exact pencil [sI - A  B] at the draws of ``kalman_controllable``: sorted A entries, then sorted B entries.

    Entry (i, i) is s - a_ii, or exactly s where A_ii is absent; the
    generic-convention ``instantiate`` draws a whole degree-1 polynomial there.
    """
    rng = random.Random(seed)
    cells = {(i, i): (0, 1) for i in range(ss.n)}
    for i, j in sorted(ss.a_entries):
        a = rng.choice((1, -1)) * rng.randint(1, coeff_bound)
        cells[i, j] = (-a, 1) if i == j else (-a,)
    for i, k in sorted(ss.b_entries):
        cells[i, ss.n + k] = (rng.choice((1, -1)) * rng.randint(1, coeff_bound),)
    return ExactMatrix(ss.n, ss.n + ss.m, tuple((i, j, c) for (i, j), c in sorted(cells.items())))


def fraction_rank(rows: list[list[int]]) -> int:
    """Reference rank of an integer matrix over the rationals: Gauss-Jordan on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def random_pattern(
    rng: random.Random,
    max_rows: int = 4,
    max_cols: int = 5,
    max_edges: int = 12,
    max_degree: int = 2,
) -> PolyPattern:
    """Random pattern with at least one entry."""
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    count = rng.randint(1, min(max_edges, len(cells)))
    chosen = rng.sample(cells, count)
    return PolyPattern(rows, cols, {cell: rng.randint(0, max_degree) for cell in chosen})


def planted_statespace(rng: random.Random, n: int, m: int, planted: int) -> StateSpacePattern:
    """Sparse (A, B) in which a random tree from the inputs reaches every state outside a planted block.

    Each row reads up to two more random states, the ``planted`` block
    rows only block states, and no block row gets an input, so no path
    enters the block; each diagonal A entry is present with probability 1/2.
    """
    block = set(rng.sample(range(n), planted))
    reached = [s for s in range(n) if s not in block]
    rng.shuffle(reached)
    a: set[tuple[int, int]] = set()
    b: set[tuple[int, int]] = set()
    for idx, state in enumerate(reached):
        parent = rng.randrange(idx + m) - m  # negative: one of the m inputs
        if parent < 0:
            b.add((state, -parent - 1))
        else:
            a.add((state, reached[parent]))
    for i in range(n):
        if rng.randrange(2):
            a.add((i, i))
        for _ in range(2):
            j = rng.randrange(n)
            if i not in block or j in block:
                a.add((i, j))
    return StateSpacePattern(n, m, frozenset(a), frozenset(b))


def random_statespace(rng: random.Random, max_n: int = 6, max_m: int = 2) -> StateSpacePattern:
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    a_cells = [(i, j) for i in range(n) for j in range(n)]
    b_cells = [(i, k) for i in range(n) for k in range(m)]
    a = rng.sample(a_cells, rng.randint(0, len(a_cells)))
    b = rng.sample(b_cells, rng.randint(0, len(b_cells)))
    return StateSpacePattern(n, m, frozenset(a), frozenset(b))
