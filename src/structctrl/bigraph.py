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
weight map: ``weight`` reads the sorted edge tuple by bisection.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .patterns import PolyPattern

__all__ = [
    "WeightedBigraph",
    "Matching",
    "build_graph",
    "max_matching",
    "term_rank",
]

_UNMATCHED = -1
_INF = float("inf")


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


def build_graph(pattern: PolyPattern) -> WeightedBigraph:
    """Graph of a pattern: one edge per entry, weight = entry degree."""
    return WeightedBigraph._from_sorted(pattern.rows, pattern.cols, pattern.sorted_entries())


def _max_matching_pairs(g: WeightedBigraph) -> tuple[int, list[int], list[int]]:
    """Maximum matching by shortest augmenting paths: its size and the mate of each row and column.

    Deterministic: free rows are scanned in ascending order, adjacency
    lists are sorted.
    """
    adj = g.r_adj
    r_count = g.r_count
    pair_r = [_UNMATCHED] * r_count
    pair_c = [_UNMATCHED] * g.c_count
    size = 0
    dist = [0.0] * r_count

    def bfs() -> bool:
        queue = []
        for r in range(r_count):
            if pair_r[r] == _UNMATCHED:
                dist[r] = 0.0
                queue.append(r)
            else:
                dist[r] = _INF
        found = _INF
        head = 0
        while head < len(queue):
            r = queue[head]
            head += 1
            if dist[r] >= found:
                continue
            for c in adj[r]:
                r2 = pair_c[c]
                if r2 == _UNMATCHED:
                    found = dist[r] + 1
                elif dist[r2] == _INF:
                    dist[r2] = dist[r] + 1
                    queue.append(r2)
        return found != _INF

    def dfs(root: int) -> bool:
        # Iterative so benchmark-sized graphs cannot exhaust the stack.
        frames = [(root, iter(adj[root]))]
        chosen: list[int] = []  # chosen[d]: column frame d used to reach frame d+1
        while frames:
            r, it = frames[-1]
            descended = False
            for c in it:
                r2 = pair_c[c]
                if r2 == _UNMATCHED:
                    pair_r[r] = c
                    pair_c[c] = r
                    for d in range(len(frames) - 2, -1, -1):
                        rr = frames[d][0]
                        cc = chosen[d]
                        pair_r[rr] = cc
                        pair_c[cc] = rr
                    return True
                if dist[r2] == dist[r] + 1:
                    frames.append((r2, iter(adj[r2])))
                    chosen.append(c)
                    descended = True
                    break
            if not descended:
                dist[r] = _INF
                frames.pop()
                if chosen:
                    chosen.pop()
        return False

    while bfs():
        for r in range(r_count):
            if pair_r[r] == _UNMATCHED and dfs(r):
                size += 1
    return size, pair_r, pair_c


def max_matching(g: WeightedBigraph) -> Matching:
    """A maximum-cardinality matching of g (deterministic for a fixed graph)."""
    _, pair_r, _ = _max_matching_pairs(g)
    return Matching(frozenset((r, c) for r, c in enumerate(pair_r) if c != _UNMATCHED))


def term_rank(g: WeightedBigraph) -> int:
    """Size of a maximum matching: the generic rank of any matrix with this pattern."""
    size, _, _ = _max_matching_pairs(g)
    return size
