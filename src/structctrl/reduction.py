"""Redundant-edge removal and connected-component decomposition.

An edge is redundant when it lies in no matching of maximum cardinality
r1 (the term rank).  Such an edge contributes to no maximal minor of the
underlying matrix, so removing it changes nothing about the zero set.
The subgraph left after removing every redundant edge drives the final
controllability verdict through its connected components.

Classification (Dulmage & Mendelsohn 1958; Tassa 2012): take one maximum
matching M.  Every edge of M is kept.  An edge (r, c) outside M lies in
some r1-matching, and is kept, exactly when one of three things holds:

- r is reachable by an M-alternating path from an unmatched row
  (steps r -> c -> M(c));
- c is reachable by an M-alternating path from an unmatched column
  (steps c -> r -> M(r));
- r and M(c) lie in one strongly connected component of the row digraph
  with an arc r -> M(c) for every edge (r, c), i.e. (r, c) lies on an
  M-alternating cycle.

Each test is a linear-time graph search, so the whole classification
costs O(V + E) on top of the matching.  The components come from one
O(V + E) labelling sweep over the reduced graph's adjacency lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigraph import _UNMATCHED, WeightedBigraph, _max_matching_pairs

__all__ = [
    "ReducedGraph",
    "Component",
    "remove_redundant_edges",
    "connected_components",
]


@dataclass(frozen=True)
class ReducedGraph:
    """A graph with all redundant edges removed.

    ``graph`` keeps exactly the edges that occur in at least one matching of
    cardinality ``base_rank`` in the original graph; ``redundant`` lists the
    removed (r, c, weight) triples.
    """

    graph: WeightedBigraph
    redundant: tuple[tuple[int, int, int], ...]
    base_rank: int


@dataclass(frozen=True)
class Component:
    """A maximal connected subgraph: sorted row and column vertices, its edges and their largest weight."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    max_weight: int


def _alternating_reach(adj, mate: list[int], other_mate: list[int]) -> list[bool]:
    """Vertices of one side reachable by M-alternating paths from its unmatched vertices.

    ``adj`` and ``mate`` belong to that side, ``other_mate`` to the other;
    from vertex x a path takes any edge (x, y) and then the matching edge at y.
    """
    queue = [x for x, y in enumerate(mate) if y == _UNMATCHED]
    reached = [False] * len(mate)
    for x in queue:
        reached[x] = True
    for x in queue:
        for y in adj[x]:
            x2 = other_mate[y]
            if x2 != _UNMATCHED and not reached[x2]:
                reached[x2] = True
                queue.append(x2)
    return reached


def _row_cycle_components(g: WeightedBigraph, pair_c: list[int]) -> list[int]:
    """Strongly connected component of each row in the digraph r -> M(c), one arc per edge (r, c).

    Two rows share a component exactly when an M-alternating cycle passes
    through both.  Iterative Tarjan, so large graphs cannot exhaust the stack.
    """
    n = g.r_count
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(g.r_adj[root]))]
        while work:
            r, it = work[-1]
            for c in it:
                r2 = pair_c[c]
                if r2 == _UNMATCHED or r2 == r:
                    continue
                if index[r2] == -1:
                    index[r2] = low[r2] = counter
                    counter += 1
                    stack.append(r2)
                    work.append((r2, iter(g.r_adj[r2])))
                    break
                if comp[r2] == -1 and index[r2] < low[r]:
                    low[r] = index[r2]  # r2 is still on the stack
            else:
                work.pop()
                if work and low[r] < low[work[-1][0]]:
                    low[work[-1][0]] = low[r]
                if low[r] == index[r]:
                    while True:
                        x = stack.pop()
                        comp[x] = r
                        if x == r:
                            break
    return comp


def remove_redundant_edges(g: WeightedBigraph) -> ReducedGraph:
    """Classify every edge against matchings of size term_rank(g) and drop the redundant ones.

    One maximum matching, two alternating-path searches and one strongly
    connected component pass: O(V + E) beyond the matching.  The result
    does not depend on which maximum matching is found.
    """
    rank, pair_r, pair_c = _max_matching_pairs(g)
    row_reached = _alternating_reach(g.r_adj, pair_r, pair_c)
    col_reached = _alternating_reach(g.c_adj, pair_c, pair_r)
    cycle_comp = _row_cycle_components(g, pair_c)

    kept: list[tuple[int, int, int]] = []
    removed: list[tuple[int, int, int]] = []
    for r, c, w in g.edges:
        # An unmatched column is reached, so pair_c[c] is a row by the last test.
        if pair_r[r] == c or row_reached[r] or col_reached[c] or cycle_comp[r] == cycle_comp[pair_c[c]]:
            kept.append((r, c, w))
        else:
            removed.append((r, c, w))

    # g.edges is checked and sorted, so kept and removed already are.
    reduced = WeightedBigraph(g.r_count, g.c_count, kept)
    return ReducedGraph(graph=reduced, redundant=tuple(removed), base_rank=rank)


def connected_components(rg: ReducedGraph) -> list[Component]:
    """Connected components of the reduced graph, isolated vertices included.

    Vertices are numbered rows first, then columns; components are returned
    ordered by their smallest vertex number.  One search from each row not
    yet labelled numbers the components that hold a row in that order; the
    columns left over are isolated and come last, one component each.
    """
    g = rg.graph
    r_label = [-1] * g.r_count
    c_label = [-1] * g.c_count
    count = 0
    for root in range(g.r_count):
        if r_label[root] != -1:
            continue
        r_label[root] = count
        stack = [root]
        while stack:
            for c in g.r_adj[stack.pop()]:
                if c_label[c] == -1:
                    c_label[c] = count
                    for r in g.c_adj[c]:
                        if r_label[r] == -1:
                            r_label[r] = count
                            stack.append(r)
        count += 1
    for c, label in enumerate(c_label):
        if label == -1:
            c_label[c] = count
            count += 1

    rows: list[list[int]] = [[] for _ in range(count)]
    cols: list[list[int]] = [[] for _ in range(count)]
    edges: list[list[tuple[int, int, int]]] = [[] for _ in range(count)]
    for r, label in enumerate(r_label):
        rows[label].append(r)
    for c, label in enumerate(c_label):
        cols[label].append(c)
    for e in g.edges:  # sorted, so each component's edges are too
        edges[r_label[e[0]]].append(e)
    return [
        Component(tuple(rs), tuple(cs), tuple(es), max((e[2] for e in es), default=0))
        for rs, cs, es in zip(rows, cols, edges)
    ]
