"""Edge-weighted bipartite graphs and maximum matching.

A p-by-v pattern becomes the bipartite graph G = (R, C; E): one R-vertex per
row, one C-vertex per column, one edge per nonzero entry, weighted by the
entry degree.  A weight of 0 is still an edge (constant entry); no edge means
the entry is identically zero.

Graph values are immutable after construction and all functions here are
pure, so they are safe to share across threads.  Only the public
``WeightedBigraph`` constructor checks its input; ``build_graph`` and the
reduction pass edges that a ``PolyPattern`` or an earlier graph has already
checked and sorted straight to the unchecked builder.  A graph keeps no
weight map: ``weight`` reads the sorted edge tuple by bisection.  One
maximum-matching search, Pothen and Fan's depth-first augmenting search with
lookahead, serves ``term_rank`` and the reduction; it returns the mates of
each row and column as plain lists.
"""

from __future__ import annotations

from bisect import bisect_left

from .patterns import PolyPattern

__all__ = [
    "WeightedBigraph",
    "build_graph",
    "term_rank",
]

_UNMATCHED = -1


class WeightedBigraph:
    """Bipartite graph with non-negative integer edge weights.

    Edges are unique per (row vertex, column vertex) pair and kept sorted, so
    two graphs built from the same edge set compare equal regardless of input
    order, and every algorithm below is deterministic.
    """

    __slots__ = ("r_count", "c_count", "edges", "r_adj", "c_adj")

    def __init__(self, r_count: int, c_count: int, edges):
        if r_count < 1 or c_count < 1:
            raise ValueError(f"vertex counts must be positive, got {r_count}, {c_count}")
        weights: dict[tuple[int, int], int] = {}
        for r, c, w in edges:
            if not (0 <= r < r_count and 0 <= c < c_count):
                raise ValueError(f"edge ({r},{c}) out of range")
            if w < 0:
                raise ValueError(f"edge ({r},{c}) has negative weight {w}")
            if (r, c) in weights:
                raise ValueError(f"duplicate edge ({r},{c})")
            weights[(r, c)] = w
        self._fill(r_count, c_count, tuple(sorted([(r, c, w) for (r, c), w in weights.items()])))

    @classmethod
    def _from_sorted(cls, r_count: int, c_count: int, edges) -> WeightedBigraph:
        """Graph on edges that are already in range, unique and sorted; checks nothing."""
        g = cls.__new__(cls)
        g._fill(r_count, c_count, tuple(edges))
        return g

    def _fill(self, r_count: int, c_count: int, edges: tuple[tuple[int, int, int], ...]):
        self.r_count = r_count
        self.c_count = c_count
        self.edges = edges
        r_adj = [[] for _ in range(r_count)]
        c_adj = [[] for _ in range(c_count)]
        for r, c, _ in edges:
            r_adj[r].append(c)
            c_adj[c].append(r)
        self.r_adj = tuple(tuple(cs) for cs in r_adj)
        self.c_adj = tuple(tuple(rs) for rs in c_adj)

    def has_edge(self, r: int, c: int) -> bool:
        # The range check keeps a negative row from reading r_adj from the end.
        return 0 <= r < self.r_count and c in self.r_adj[r]

    def weight(self, r: int, c: int) -> int:
        i = bisect_left(self.edges, (r, c))  # (r, c) sorts just before (r, c, w)
        if i < len(self.edges) and self.edges[i][:2] == (r, c):
            return self.edges[i][2]
        raise KeyError((r, c))

    def __eq__(self, other):
        if not isinstance(other, WeightedBigraph):
            return NotImplemented
        return (self.r_count, self.c_count, self.edges) == (other.r_count, other.c_count, other.edges)

    def __hash__(self):
        return hash((self.r_count, self.c_count, self.edges))

    def __repr__(self):
        return f"WeightedBigraph({self.r_count}x{self.c_count}, {len(self.edges)} edges)"


def build_graph(pattern: PolyPattern) -> WeightedBigraph:
    """Graph of a pattern: one edge per entry, weight = entry degree."""
    return WeightedBigraph._from_sorted(pattern.rows, pattern.cols, pattern.sorted_entries())


def _max_matching_pairs(g: WeightedBigraph) -> tuple[int, list[int], list[int]]:
    """Maximum matching: its size and the mate of each row and column.

    Depth-first augmenting search with lookahead and fairness (Pothen and Fan
    1990; Duff, Kaya and Ucar 2011).  A phase tries the free rows in ascending
    order, from a list refiltered after each phase, and enters each column at
    most once.  A row first takes a free column at or after its lookahead
    pointer, which only moves forward since a matched column never becomes
    free; failing that, the search descends through its matched columns,
    ascending in one phase and descending in the next.  Phases repeat while
    some row augments, so the last finds no augmenting path and the matching
    is maximum (Berge).  Deterministic; O(V * E) in the worst case, against
    O(E * sqrt(V)) for Hopcroft-Karp.  Iterative, so long augmenting paths
    cannot exhaust the stack.
    """
    adj = g.r_adj
    pair_r = [_UNMATCHED] * g.r_count
    pair_c = [_UNMATCHED] * g.c_count
    look = [0] * g.r_count
    free = list(range(g.r_count))
    order = iter
    augmented = True
    while augmented:
        augmented = False
        seen = [False] * g.c_count
        for root in free:  # an augmenting path matches its root and unmatches no row
            frames = []  # (row, column scan) for each row on the path from root
            r = root
            while r != _UNMATCHED:
                row = adj[r]
                k = look[r]
                while k < len(row) and pair_c[row[k]] != _UNMATCHED:
                    k += 1
                look[r] = k
                if k < len(row):  # free column: flip the path back to root
                    c = row[k]
                    for r in [r] + [f[0] for f in reversed(frames)]:
                        pair_c[c] = r
                        pair_r[r], c = c, pair_r[r]
                    augmented = True
                    break
                # Every column of r is matched: descend through one not yet seen, or backtrack.
                frames.append((r, order(row)))
                r = _UNMATCHED
                while frames and r == _UNMATCHED:
                    for c in frames[-1][1]:
                        if not seen[c]:
                            seen[c] = True
                            r = pair_c[c]
                            break
                    else:
                        frames.pop()
        free = [r for r in free if pair_r[r] == _UNMATCHED]
        order = reversed if order is iter else iter
    return g.r_count - pair_r.count(_UNMATCHED), pair_r, pair_c


def term_rank(g: WeightedBigraph) -> int:
    """Size of a maximum matching: the generic rank of any matrix with this pattern."""
    size, _, _ = _max_matching_pairs(g)
    return size
