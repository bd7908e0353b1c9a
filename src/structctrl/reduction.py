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

The three tests find the Dulmage-Mendelsohn parts (Murota 2000, ch. 4): H, the rows of the
first test with their columns; V, the columns of the second with their
rows; and the square part, every other row with its mate.  H is closed
under the row digraph and no square-part row reaches V, so the strongly
connected component pass runs on the square part alone.  The components
of the kept edges are exactly the blocks: the connected parts of H and of
V, which one search over their own kept edges finds, and each strongly
connected component with its matched columns.  So the classification
labels every vertex with its component, an edge is kept exactly when its
ends share a label, and the components are read off the labels with no
second graph and no second sweep.  Each step is a linear-time graph
search: O(V + E) on top of the matching.

A ``Component`` holds its rows, columns and largest edge weight; its
edges are the kept edges whose row carries its label.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from .bigraph import _UNMATCHED, WeightedBigraph, _max_matching_pairs

__all__ = [
    "ReducedGraph",
    "Component",
    "remove_redundant_edges",
    "connected_components",
]


class ReducedGraph(NamedTuple):
    """A graph with all redundant edges removed, and the connected components of what is left.

    ``edges`` keeps, sorted, exactly the (r, c, weight) triples of the
    r_count-by-c_count graph that occur in at least one matching of
    cardinality ``base_rank``; ``redundant`` lists the removed ones.
    ``row_component[r]`` and ``col_component[c]`` number the connected
    component of each row and column of the kept edges, in the order
    ``connected_components`` returns them.
    """

    r_count: int
    c_count: int
    edges: tuple[tuple[int, int, int], ...]
    redundant: tuple[tuple[int, int, int], ...]
    base_rank: int
    row_component: tuple[int, ...]
    col_component: tuple[int, ...]


class Component(NamedTuple):
    """A maximal connected subgraph: its sorted row and column vertices and the largest weight of its edges (0 if none)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
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


def _open_part_roots(g: WeightedBigraph, pair_r: list[int], in_h: list[bool], in_v: list[bool]) -> list[int]:
    """First row of the connected component of each H or V row; -1 for square-part rows.

    H rows are the rows ``in_h`` reached from unmatched rows, V rows those
    matched to columns ``in_v`` reached from unmatched columns; every edge at
    an H row and every edge at a V column is kept, and no other edge at an H
    or V vertex.  One search from each such row not yet reached, in row order,
    follows exactly those edges: from an H row every column, from a V row its
    V columns, from an H column its H rows, from a V column every row.
    """
    r_adj, c_adj = g.r_adj, g.c_adj
    root_of = [-1] * g.r_count
    c_seen = [False] * g.c_count
    for root in range(g.r_count):
        h = in_h[root]  # an unmatched row is in H, so pair_r[root] is a column otherwise
        if root_of[root] != -1 or not (h or in_v[pair_r[root]]):
            continue
        root_of[root] = root
        stack = [root]
        while stack:
            for c in r_adj[stack.pop()]:
                if in_v[c] != h and not c_seen[c]:
                    c_seen[c] = True
                    for r in c_adj[c]:
                        if in_h[r] == h and root_of[r] == -1:
                            root_of[r] = root
                            stack.append(r)
    return root_of


def _square_part_cycles(g: WeightedBigraph, pair_c: list[int], root_of: list[int]) -> None:
    """Set root_of[r], for each row r still at -1, to the root of its strongly connected component.

    The digraph has an arc r -> M(c) for every edge (r, c); two rows share a
    component exactly when an M-alternating cycle passes through both.  Rows
    already rooted, the H and V rows, are left out: H is closed under the
    arcs and no square-part row reaches V, so no cycle joins them to the
    square part, and every column at a square-part row is matched.  A row
    whose every arc leads to itself or to a rooted row, which between
    searches lies in a finished component, is its own component: it is
    rooted at once, with no Tarjan frame, as each singleton block of a
    pencil is.  Iterative Tarjan for the rest, so large graphs cannot
    exhaust the stack.
    """
    n, adj = g.r_count, g.r_adj
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if root_of[root] != -1:
            continue
        for c in adj[root]:
            r2 = pair_c[c]
            if r2 != root and root_of[r2] == -1:
                break
        else:
            root_of[root] = root
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            r, it = work[-1]
            for c in it:
                r2 = pair_c[c]
                if root_of[r2] != -1:
                    continue  # outside the square part, or in a finished component
                if index[r2] == -1:
                    index[r2] = low[r2] = counter
                    counter += 1
                    stack.append(r2)
                    work.append((r2, iter(adj[r2])))
                    break
                if index[r2] < low[r]:
                    low[r] = index[r2]  # r2 is still on the stack
            else:
                work.pop()
                if work and low[r] < low[work[-1][0]]:
                    low[work[-1][0]] = low[r]
                if low[r] == index[r]:
                    while True:
                        x = stack.pop()
                        root_of[x] = r
                        if x == r:
                            break


def remove_redundant_edges(g: WeightedBigraph) -> ReducedGraph:
    """Classify every edge against matchings of size term_rank(g), drop the redundant ones, and label the components.

    One maximum matching, two alternating-path searches, one search of the
    H and V parts and one strongly connected component pass over the square
    part: O(V + E) beyond the matching.  The result does not depend on which
    maximum matching is found.
    """
    rank, pair_r, pair_c = _max_matching_pairs(g)
    in_h = _alternating_reach(g.r_adj, pair_r, pair_c)
    in_v = _alternating_reach(g.c_adj, pair_c, pair_r)
    root_of = _open_part_roots(g, pair_r, in_h, in_v)
    _square_part_cycles(g, pair_c, root_of)

    # Components are numbered by their first row, then one per column no edge reaches.
    label = [-1] * g.r_count  # by root row
    row_comp = [0] * g.r_count
    count = 0
    for r, root in enumerate(root_of):
        if label[root] == -1:
            label[root] = count
            count += 1
        row_comp[r] = label[root]
    c_adj = g.c_adj
    col_comp = [0] * g.c_count
    for c, r in enumerate(pair_c):
        if r == _UNMATCHED:  # a V column: every edge at it is kept
            if not c_adj[c]:
                col_comp[c] = count
                count += 1
                continue
            r = c_adj[c][0]
        col_comp[c] = row_comp[r]

    # An edge is kept exactly when it lies inside one block.  g.edges is sorted, so kept and removed are.
    kept: list[tuple[int, int, int]] = []
    removed: list[tuple[int, int, int]] = []
    for e in g.edges:
        if row_comp[e[0]] == col_comp[e[1]]:
            kept.append(e)
        else:
            removed.append(e)
    return ReducedGraph(g.r_count, g.c_count, tuple(kept), tuple(removed), rank, tuple(row_comp), tuple(col_comp))


def connected_components(rg: ReducedGraph) -> list[Component]:
    """Connected components of the reduced graph, isolated vertices included.

    Vertices are numbered rows first, then columns; components are returned
    ordered by their smallest vertex number, as ``rg`` labels them, and
    gathered in one pass over the rows, the columns and the kept edges.
    The records are then made in one pass at C level, with no Python frame
    per component: a pencil of decoupled modes has about one per state.
    """
    row_comp = rg.row_component
    count = max(max(row_comp, default=-1), max(rg.col_component, default=-1)) + 1
    rows: list[list[int]] = [[] for _ in range(count)]
    cols: list[list[int]] = [[] for _ in range(count)]
    heaviest = [0] * count
    for r, label in enumerate(row_comp):
        rows[label].append(r)
    for c, label in enumerate(rg.col_component):
        cols[label].append(c)
    for r, _, w in rg.edges:
        if w > heaviest[row_comp[r]]:
            heaviest[row_comp[r]] = w
    return list(map(tuple.__new__, repeat(Component, count), zip(map(tuple, rows), map(tuple, cols), heaviest)))
