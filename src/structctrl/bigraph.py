"""Edge-weighted bipartite graphs and maximum matching.

A p-by-v pattern becomes the bipartite graph G = (R, C; E): one R-vertex per
row, one C-vertex per column, one edge per nonzero entry, weighted by the
entry degree.  A weight of 0 is still an edge (constant entry); no edge means
the entry is identically zero.

A graph is a named tuple and all functions here are pure, so graphs are
safe to share across threads.  ``build_graph`` is its one builder: it reads
the edges off a ``PolyPattern``, where they were checked once (by the pattern
or the parser), and derives the adjacency from them, so no raw edge list is
public.  One maximum-matching search, Pothen and Fan's depth-first
augmenting search with lookahead, serves ``term_rank`` and the reduction; it
returns the mates of each row and column as plain lists.
"""

from __future__ import annotations

from typing import NamedTuple

from .patterns import PolyPattern

__all__ = [
    "build_graph",
    "term_rank",
]

_UNMATCHED = -1


class WeightedBigraph(NamedTuple):
    """Bipartite graph with non-negative integer edge weights.

    ``edges`` holds (row, column, weight) triples, unique per (row, column)
    pair, in range and sorted; ``r_adj[r]`` lists the columns of row r and
    ``c_adj[c]`` the rows of column c, both ascending.  Equality and hashing
    read all five fields; ``build_graph`` derives the adjacency from the
    edges, so two graphs it builds compare equal exactly when their counts
    and edges do.  Every algorithm below is deterministic.
    """

    r_count: int
    c_count: int
    edges: tuple[tuple[int, int, int], ...]
    r_adj: tuple[tuple[int, ...], ...]
    c_adj: tuple[tuple[int, ...], ...]


def build_graph(pattern: PolyPattern) -> WeightedBigraph:
    """Graph of a pattern: one edge per entry, weight = entry degree."""
    edges = pattern.entries
    r_adj = [[] for _ in range(pattern.rows)]
    c_adj = [[] for _ in range(pattern.cols)]
    for r, c, _ in edges:
        r_adj[r].append(c)
        c_adj[c].append(r)
    # lists, not generators, for tuple(): see instantiate in oracle.py
    return WeightedBigraph(pattern.rows, pattern.cols, edges, tuple([tuple(cs) for cs in r_adj]), tuple([tuple(rs) for rs in c_adj]))


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
    is maximum (Berge).  An augmentation flips the path in place, popping
    the frames from the row that found the free column back to the root:
    each row takes the column handed up to it and hands its old mate on.
    Deterministic; O(V * E) in the worst case, against O(E * sqrt(V)) for
    Hopcroft-Karp.  Iterative, so long augmenting paths cannot exhaust the
    stack.
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
                    while True:
                        pair_c[c] = r
                        pair_r[r], c = c, pair_r[r]
                        if not frames:
                            break
                        r = frames.pop()[0]
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
