"""Edge-weighted bipartite graphs and maximum matching.

A p-by-v pattern becomes the bipartite graph G = (R, C; E): one R-vertex per
row, one C-vertex per column, one edge per nonzero entry, weighted by the
entry degree.  A weight of 0 is still an edge (constant entry); no edge means
the entry is identically zero.

Graph values are immutable after construction and all functions here are
pure, so they are safe to share across threads.  The one constructor checks
nothing: it takes edges that are already in range, unique and sorted, which
``build_graph`` reads off a ``PolyPattern`` (checked by the pattern or the
parser) and the reduction keeps in order from such a graph.  So every edge is
checked once, before any graph exists, and no raw edge list is public.  One
maximum-matching search, Pothen and Fan's depth-first augmenting search with
lookahead, serves ``term_rank`` and the reduction; it returns the mates of
each row and column as plain lists.
"""

from __future__ import annotations

from .patterns import PolyPattern

__all__ = [
    "build_graph",
    "term_rank",
]

_UNMATCHED = -1


class WeightedBigraph:
    """Bipartite graph with non-negative integer edge weights.

    ``edges`` holds (row, column, weight) triples, unique per (row, column)
    pair, in range and sorted; the constructor trusts all three.  So two
    graphs with the same edge set compare equal, and every algorithm below
    is deterministic.
    """

    __slots__ = ("r_count", "c_count", "edges", "r_adj", "c_adj")

    def __init__(self, r_count: int, c_count: int, edges):
        self.r_count = r_count
        self.c_count = c_count
        self.edges = tuple(edges)
        r_adj = [[] for _ in range(r_count)]
        c_adj = [[] for _ in range(c_count)]
        for r, c, _ in self.edges:
            r_adj[r].append(c)
            c_adj[c].append(r)
        self.r_adj = tuple(tuple(cs) for cs in r_adj)
        self.c_adj = tuple(tuple(rs) for rs in c_adj)

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
    return WeightedBigraph(pattern.rows, pattern.cols, pattern.sorted_entries())


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
