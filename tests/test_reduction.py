"""Redundant-edge classification, reduction, and connected components."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structctrl import (
    PolyPattern,
    analyze,
    analyze_reduction,
    build_graph,
    connected_components,
    controllability_pencil,
    controller_canonical,
    gilbert_form,
    remove_redundant_edges,
    term_rank,
)
from structctrl import reduction
from structctrl.bigraph import WeightedBigraph

from fixture_patterns import (
    edge_is_redundant,
    graph,
    matchings_of_size,
    open_parts,
    planted_statespace,
    reduced_graph,
    reference_components,
    reference_reduction,
    reference_witness,
    same_graph,
    shared_drive_ss,
    starved_rows,
    wide_2x3,
)


class TestEdgeClassification:
    def test_starved_edge_is_redundant(self):
        g = build_graph(starved_rows())
        rank = term_rank(g)
        assert rank == 2
        # using (1,0) starves row 0, which depends on column 0 alone
        assert edge_is_redundant(g, (1, 0), rank) is True

    def test_perfect_matching_edge_is_not(self):
        g = build_graph(PolyPattern(2, 2, {(0, 0): 0, (1, 1): 0}))
        assert edge_is_redundant(g, (0, 0), 2) is False

    def test_wide_2x3_all_non_redundant(self):
        g = build_graph(wide_2x3())
        assert all(not edge_is_redundant(g, (r, c), 2) for r, c, _ in g.edges)

    def test_missing_edge_rejected(self):
        g = build_graph(wide_2x3())
        with pytest.raises(ValueError, match="not present"):
            edge_is_redundant(g, (0, 0), 2)


class TestRemoveRedundantEdges:
    def test_shared_drive_pencil_keeps_everything(self):
        g = build_graph(controllability_pencil(shared_drive_ss()))
        rg = remove_redundant_edges(g)
        assert rg.redundant == ()
        assert reduced_graph(rg) == g

    def test_starved_rows_drops_one_edge(self):
        rg = remove_redundant_edges(build_graph(starved_rows()))
        assert rg.redundant == ((1, 0, 0),)
        assert rg.base_rank == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_controller_canonical_keeps_everything(self, n):
        g = build_graph(controllability_pencil(controller_canonical(n)))
        rg = remove_redundant_edges(g)
        assert rg.redundant == ()

    def test_idempotent(self):
        rg = remove_redundant_edges(build_graph(starved_rows()))
        again = remove_redundant_edges(reduced_graph(rg))
        assert again == rg._replace(redundant=())

    def test_term_rank_preserved(self):
        g = build_graph(starved_rows())
        rg = remove_redundant_edges(g)
        assert term_rank(reduced_graph(rg)) == term_rank(g) == rg.base_rank

    def test_edge_list_order_is_irrelevant(self):
        edges = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)]
        rng = random.Random(7)
        baseline = remove_redundant_edges(graph(2, 3, edges))
        for _ in range(5):
            rng.shuffle(edges)
            assert remove_redundant_edges(graph(2, 3, edges)) == baseline

    def test_zero_rank_graph(self):
        rg = remove_redundant_edges(graph(2, 2, []))
        assert rg.base_rank == 0
        assert rg.edges == ()


class TestComponents:
    def test_block_diagonal(self):
        rg = remove_redundant_edges(build_graph(PolyPattern(2, 2, {(0, 0): 0, (1, 1): 0})))
        comps = connected_components(rg)
        assert [(c.rows, c.cols) for c in comps] == [((0,), (0,)), ((1,), (1,))]

    def test_wide_2x3_single_component(self):
        rg = remove_redundant_edges(build_graph(wide_2x3()))
        comps = connected_components(rg)
        assert len(comps) == 1
        assert comps[0].rows == (0, 1)
        assert comps[0].cols == (0, 1, 2)

    def test_zero_column_is_singleton(self):
        rg = remove_redundant_edges(build_graph(PolyPattern(2, 3, {(0, 0): 0, (1, 1): 0})))
        comps = connected_components(rg)
        assert ((), (2,)) in [(c.rows, c.cols) for c in comps]

    def test_vertices_partitioned(self):
        rg = remove_redundant_edges(build_graph(starved_rows()))
        comps = connected_components(rg)
        rows = sorted(r for c in comps for r in c.rows)
        cols = sorted(col for c in comps for col in c.cols)
        assert rows == [0, 1]
        assert cols == [0, 1, 2]

    def test_max_weight(self):
        rg = remove_redundant_edges(build_graph(wide_2x3()))
        assert connected_components(rg)[0].max_weight == 2


@st.composite
def weighted_graphs(draw, max_r=5, max_c=5):
    r = draw(st.integers(1, max_r))
    c = draw(st.integers(1, max_c))
    cells = [(i, j) for i in range(r) for j in range(c)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(chosen), max_size=len(chosen)))
    return graph(r, c, [(i, j, w) for (i, j), w in zip(chosen, weights)])


@settings(max_examples=200, deadline=None)
@given(weighted_graphs())
def test_classification_matches_enumeration_oracle(g):
    rank = term_rank(g)
    witnesses = matchings_of_size(g, rank)
    for r, c, _ in g.edges:
        in_some = any((r, c) in m.pairs for m in witnesses)
        assert edge_is_redundant(g, (r, c), rank) == (not in_some)


@st.composite
def seeded_large_graphs(draw):
    """Seeded sparse graphs of 20-60 rows by 20-80 columns: wide, tall or rank-deficient.

    The rank-deficient kind confines its first k rows to k // 2 columns, so
    Hall's condition fails and the term rank stays below min(rows, cols).
    """
    kind = draw(st.sampled_from(("wide", "tall", "deficient")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "wide":
        rows = rng.randint(20, 60)
        cols = rng.randint(rows + 1, 80)
    elif kind == "tall":
        cols = rng.randint(20, 59)
        rows = rng.randint(cols + 1, 60)
    else:
        rows = rng.randint(20, 60)
        cols = rng.randint(rows, 80)
    confined = rng.randint(4, rows // 2) if kind == "deficient" else 0
    edges = set()
    for r in range(rows):
        reach = confined // 2 if r < confined else cols
        edges.update((r, rng.randrange(reach)) for _ in range(rng.randint(1, 3)))
    return graph(rows, cols, [(r, c, rng.randint(0, 2)) for r, c in edges])


@st.composite
def singleton_mixes(draw):
    """Square parts of lone rows and short cycles, beside an optional H row and V column.

    Every row r holds the diagonal column r.  A lone row holds nothing else,
    so its only arc leads to itself.  A row of a 2- or 3-cycle holds one more
    column, the next row's diagonal one, so its single other arc leads to a
    row that reaches back to it: a cycle the lone-row rooting must not cut.
    A few one-way edges lead into other blocks, and the extra column (a V
    part) or row (an H part) makes some arcs lead to rows rooted before the
    square part is searched.
    """
    n = draw(st.integers(2, 30))
    order = draw(st.permutations(range(n)))
    edges = {(r, r) for r in range(n)}
    start = 0
    while start < n:
        cycle = order[start : start + draw(st.sampled_from((1, 1, 2, 3)))]
        edges.update((r, cycle[(k + 1) % len(cycle)]) for k, r in enumerate(cycle) if len(cycle) > 1)
        start += len(cycle)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges.update(draw(st.lists(pairs, max_size=3)))
    rows, cols = n + draw(st.integers(0, 1)), n + draw(st.integers(0, 1))
    if rows > n:
        edges.add((n, draw(st.integers(0, n - 1))))
    if cols > n:
        edges.add((draw(st.integers(0, n - 1)), n))
    return graph(rows, cols, [(r, c, draw(st.integers(0, 2))) for r, c in sorted(edges)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(weighted_graphs(), seeded_large_graphs(), singleton_mixes()))
def test_reduction_matches_per_edge_reference(g):
    assert remove_redundant_edges(g) == reference_reduction(g)


@settings(max_examples=200, deadline=None)
@given(st.one_of(weighted_graphs(), seeded_large_graphs()))
def test_reduced_graph_adjacency_follows_edges(g):
    rg = remove_redundant_edges(g)
    assert sorted(rg.edges + rg.redundant) == list(g.edges)
    assert same_graph(reduced_graph(rg), graph(g.r_count, g.c_count, list(reversed(rg.edges))))


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
def test_reduction_idempotent_and_rank_preserving(g):
    rg = remove_redundant_edges(g)
    reduced = reduced_graph(rg)
    assert term_rank(reduced) == rg.base_rank == term_rank(g)
    again = remove_redundant_edges(reduced)
    assert again == rg._replace(redundant=())


@st.composite
def pencil_graphs(draw):
    """Graphs of [sI - A  B] for controller_canonical, gilbert_form and seeded systems with a planted block.

    gilbert_form gives one square singleton component per unreachable
    state, each with a weighted edge; controller_canonical gives one
    component.  A planted block of unreachable states gives square blocks
    of one or more rows, the strongly connected parts of its A pattern,
    beside the input-connected part.  Isolated columns and the H part come
    from the other graph strategies.
    """
    n = draw(st.integers(2, 180))
    kind = draw(st.sampled_from(("canonical", "gilbert", "planted")))
    if kind == "canonical":
        ss = controller_canonical(n)
    elif kind == "gilbert":
        ss = gilbert_form(n)
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        ss = planted_statespace(rng, n, rng.randint(1, 3), rng.randint(1, max(1, n // 3)))
    return build_graph(controllability_pencil(ss))


@settings(max_examples=300, deadline=None)
@given(st.one_of(weighted_graphs(), seeded_large_graphs(), pencil_graphs(), singleton_mixes()))
def test_components_and_witness_match_union_find_reference(g):
    rg = remove_redundant_edges(g)
    expected = reference_components(rg)
    comps = connected_components(rg)
    assert comps == expected  # order, vertex tuples and largest weights
    assert [c.max_weight for c in comps] == [c.max_weight for c in expected]
    assert analyze_reduction(rg).witness == reference_witness(rg, expected)


@settings(max_examples=300, deadline=None)
@given(st.one_of(weighted_graphs(), seeded_large_graphs(), pencil_graphs()))
def test_square_components_are_the_square_part_blocks(g):
    """A component is square exactly when it lies in neither H nor V; the others lie wholly in one.

    H (rows reached from unmatched rows) and V (columns reached from
    unmatched columns) come from the test's own alternating search.  An H
    component has more rows than columns, a V component more columns than
    rows.
    """
    h_rows, h_cols, v_rows, v_cols = open_parts(g)
    assert not h_rows & v_rows and not h_cols & v_cols
    for comp in connected_components(remove_redundant_edges(g)):
        rows, cols = set(comp.rows), set(comp.cols)
        if len(rows) > len(cols):
            assert rows <= h_rows and cols <= h_cols
        elif len(rows) < len(cols):
            assert rows <= v_rows and cols <= v_cols
        else:
            assert not rows & (h_rows | v_rows) and not cols & (h_cols | v_cols)


def test_lone_rows_get_no_tarjan_frame(monkeypatch):
    """Each of gilbert_form's n - 2 singleton square blocks is rooted without the iterator of a Tarjan frame."""
    frames = []
    monkeypatch.setattr(reduction, "iter", lambda arcs: frames.append(arcs) or iter(arcs), raising=False)
    rg = remove_redundant_edges(build_graph(controllability_pencil(gilbert_form(40))))
    assert frames == []
    assert len(connected_components(rg)) == 39


@pytest.mark.parametrize(
    "pattern",
    [starved_rows(), wide_2x3(), controllability_pencil(gilbert_form(40)), PolyPattern(3, 4, {(0, 0): 1, (1, 0): 0, (2, 2): 0})],
)
def test_one_graph_per_analysis(monkeypatch, pattern):
    built = []
    new = WeightedBigraph.__new__

    def counting_new(cls, *args):
        built.append(args[:2])
        return new(cls, *args)

    monkeypatch.setattr(WeightedBigraph, "__new__", counting_new)
    analyze(pattern)
    assert built == [(pattern.rows, pattern.cols)]


def test_staircase_deep_augmenting_path():
    """A 20,000-row staircase that the matching can only complete by one augmenting path through every row.

    Rows i < n-1 hold columns i and i+1, row n-1 only column 0, all of degree
    0.  Each row i < n-1 first takes column i, so row n-1 must shift the whole
    chain by one column; the only perfect matching leaves the n-1 diagonal
    edges redundant and every vertex pair its own component.  A recursive
    search, or a recursive strongly connected component pass over the chain,
    would exhaust the stack.
    """
    n = 20_000
    entries = {(i, i): 0 for i in range(n - 1)} | {(i, i + 1): 0 for i in range(n - 1)} | {(n - 1, 0): 0}
    report = analyze(PolyPattern(n, n, entries))
    assert report.term_rank == n
    assert report.controllable
    assert len(report.components) == n
    assert len(report.redundant_edges) == n - 1
    # One more row, on column n-1 alone: the last phase, which finds no
    # augmenting path, descends from it through every row of the chain.
    assert term_rank(build_graph(PolyPattern(n + 1, n, entries | {(n, n - 1): 0}))) == n
