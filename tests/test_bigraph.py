"""Graph construction, maximum matching, term rank, matching enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structctrl import (
    GuardLimitError,
    PolyPattern,
    build_graph,
    term_rank,
)
from structctrl.bigraph import _UNMATCHED, WeightedBigraph, _max_matching_pairs

from fixture_patterns import Matching, graph, matchings_of_size, max_matching, same_graph, wide_2x3
from test_patterns import patterns
from test_reduction import pencil_graphs, seeded_large_graphs, weighted_graphs


def brute_force_max_matching(g: WeightedBigraph) -> int:
    """Independent oracle: largest k over all injective row-to-column maps."""
    best = 0
    rows = range(g.r_count)
    edges = {(r, c) for r, c, _ in g.edges}
    for size in range(min(g.r_count, g.c_count), 0, -1):
        for row_subset in itertools.combinations(rows, size):
            for cols in itertools.permutations(range(g.c_count), size):
                if all((r, c) in edges for r, c in zip(row_subset, cols)):
                    return size
    return best


class TestBuildGraph:
    def test_wide_2x3(self):
        g = build_graph(wide_2x3())
        assert (g.r_count, g.c_count) == (2, 3)
        assert g.edges == ((0, 1, 1), (0, 2, 0), (1, 0, 2), (1, 1, 0), (1, 2, 1))

    def test_empty_pattern(self):
        g = build_graph(PolyPattern(2, 2, {}))
        assert g.edges == ()

    def test_diagonal_weights(self):
        g = build_graph(PolyPattern(3, 3, {(0, 0): 0, (1, 1): 1, (2, 2): 2}))
        assert g.edges == ((0, 0, 0), (1, 1, 1), (2, 2, 2))

    def test_edge_order_does_not_matter(self):
        edges = [(0, 1, 1), (1, 0, 0), (1, 2, 2)]
        assert graph(2, 3, edges) == graph(2, 3, list(reversed(edges)))


class TestMaxMatching:
    def test_wide_2x3_size_and_determinism(self):
        g = build_graph(wide_2x3())
        m = max_matching(g)
        assert len(m) == 2
        # ascending adjacency scan matches row 0 to column 1, then row 1 to column 0
        assert m.sorted_pairs() == ((0, 1), (1, 0))
        assert max_matching(g) == m

    def test_no_edges(self):
        assert len(max_matching(graph(2, 2, []))) == 0

    def test_full_4x4(self):
        pattern = PolyPattern(4, 4, {(i, j): 0 for i in range(4) for j in range(4)})
        g = build_graph(pattern)
        assert len(max_matching(g)) == 4
        assert brute_force_max_matching(g) == 4

    def test_matching_validation(self):
        with pytest.raises(ValueError, match="share a vertex"):
            Matching(frozenset({(0, 0), (0, 1)}))
        with pytest.raises(ValueError, match="share a vertex"):
            Matching(frozenset({(0, 0), (1, 0)}))

    def test_matching_vertex_sets(self):
        m = Matching(frozenset({(0, 2), (1, 0)}))
        assert m.r_set() == frozenset({0, 1})
        assert m.c_set() == frozenset({0, 2})
        assert len(m) == 2


class TestTermRank:
    def test_wide_2x3(self):
        assert term_rank(build_graph(wide_2x3())) == 2

    def test_no_edges(self):
        assert term_rank(graph(3, 3, [])) == 0

    def test_two_rows_one_column(self):
        assert term_rank(build_graph(PolyPattern(2, 1, {(0, 0): 0, (1, 0): 0}))) == 1


class TestMatchingEnumeration:
    def test_wide_2x3_has_exactly_four(self):
        g = build_graph(wide_2x3())
        ms = matchings_of_size(g, 2)
        assert [m.sorted_pairs() for m in ms] == [
            ((0, 1), (1, 0)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 0)),
            ((0, 2), (1, 1)),
        ]

    def test_size_zero(self):
        ms = matchings_of_size(graph(2, 2, []), 0)
        assert ms == [Matching(frozenset())]

    def test_diagonal_unique_perfect_matching(self):
        g = build_graph(PolyPattern(3, 3, {(0, 0): 0, (1, 1): 1, (2, 2): 2}))
        ms = matchings_of_size(g, 3)
        assert len(ms) == 1
        assert ms[0].sorted_pairs() == ((0, 0), (1, 1), (2, 2))

    def test_guard(self):
        g = graph(9, 2, [(0, 0, 0)])
        with pytest.raises(GuardLimitError):
            matchings_of_size(g, 1)
        assert matchings_of_size(g, 1, max_rows=9)  # guard is configurable

    def test_impossible_size(self):
        g = build_graph(wide_2x3())
        assert matchings_of_size(g, 3) == []


@st.composite
def small_graphs(draw):
    r = draw(st.integers(1, 5))
    c = draw(st.integers(1, 5))
    cells = [(i, j) for i in range(r) for j in range(c)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    return graph(r, c, [(i, j, 0) for i, j in chosen])


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_max_matching_equals_enumeration_maximum(g):
    size = len(max_matching(g))
    assert matchings_of_size(g, size), "claimed maximum size is not achievable"
    assert matchings_of_size(g, size + 1) == [], "a larger matching exists"


@settings(max_examples=200, deadline=None)
@given(patterns())
def test_build_graph_adjacency_follows_edges(p):
    g = build_graph(p)
    assert g.edges is p.entries
    assert same_graph(g, build_graph(PolyPattern(p.rows, p.cols, {(r, c): d for r, c, d in reversed(p.entries)})))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_term_rank_bounded_by_dimensions(g):
    assert 0 <= term_rank(g) <= min(g.r_count, g.c_count)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_term_rank_edge_monotonicity(g, rng):
    base = term_rank(g)
    edges = {(r, c) for r, c, _ in g.edges}
    free = [(i, j) for i in range(g.r_count) for j in range(g.c_count) if (i, j) not in edges]
    if free:
        extra = rng.choice(free)
        bigger = graph(g.r_count, g.c_count, list(g.edges) + [(extra[0], extra[1], 0)])
        assert term_rank(bigger) >= base
    if g.edges:
        dropped = rng.choice(g.edges)
        smaller = graph(g.r_count, g.c_count, [e for e in g.edges if e != dropped])
        assert term_rank(smaller) <= base


@settings(max_examples=300, deadline=None)
@given(st.one_of(weighted_graphs(), seeded_large_graphs(), pencil_graphs()))
def test_matching_is_maximum(g):
    """The mates are edges and agree, size counts them, and no augmenting path is left (Berge).

    Large graphs are needed: a search that stops after one phase, or keeps its
    visited columns across phases, still finds a maximum matching on almost
    every graph of up to 9x9.
    """
    size, pair_r, pair_c = _max_matching_pairs(g)
    pairs = [(r, c) for r, c in enumerate(pair_r) if c != _UNMATCHED]
    edges = {(r, c) for r, c, _ in g.edges}
    assert all((r, c) in edges and pair_c[c] == r for r, c in pairs)
    assert size == len(pairs) == sum(r != _UNMATCHED for r in pair_c)
    # Alternating search from the free rows: any edge to a column, then the column's mate.
    reached = [False] * g.c_count
    queue = [r for r, c in enumerate(pair_r) if c == _UNMATCHED]
    for r in queue:
        for c in g.r_adj[r]:
            if not reached[c]:
                reached[c] = True
                assert pair_c[c] != _UNMATCHED, f"augmenting path from a free row ends at free column {c}"
                queue.append(pair_c[c])
