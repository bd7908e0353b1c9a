"""First-order systems: pencil construction, connectivity criterion, generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structctrl import (
    CONTROLLABLE,
    UNCONTROLLABLE,
    PolyPattern,
    StateSpacePattern,
    analyze,
    analyze_statespace,
    build_graph,
    connected_components,
    controllability_pencil,
    controller_canonical,
    gilbert_form,
    kalman_controllable,
    kalman_deficiencies,
    oracle,
    remove_redundant_edges,
    siso_interconnection,
)

from fixture_patterns import chain_ss, integrator_ss, planted_statespace, random_statespace, relay_ss, shared_drive_ss

SEEDS = (0, 1, 2, 3, 4)


class TestPencil:
    def test_shared_drive(self):
        pencil = controllability_pencil(shared_drive_ss())
        assert pencil == PolyPattern(
            3, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 0, (2, 1): 0, (1, 3): 0}
        )

    def test_integrator(self):
        assert controllability_pencil(integrator_ss()) == PolyPattern(1, 2, {(0, 0): 1, (0, 1): 0})

    def test_relay(self):
        pencil = controllability_pencil(relay_ss())
        assert pencil == PolyPattern(
            3, 4, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 0, (2, 0): 0, (1, 3): 0}
        )

    def test_diagonal_a_entries_fold_into_derivative_term(self):
        ss = StateSpacePattern(2, 1, frozenset({(0, 0), (0, 1)}), frozenset({(1, 0)}))
        pencil = controllability_pencil(ss)
        assert pencil.entries == ((0, 0, 1), (0, 1, 0), (1, 1, 1), (1, 2, 0))

    def test_no_inputs(self):
        ss = StateSpacePattern(2, 0, frozenset({(0, 1)}), frozenset())
        assert controllability_pencil(ss).cols == 2


@st.composite
def statespace_systems(draw):
    """Systems from random_statespace and from the controller_canonical and gilbert_form families."""
    kind = draw(st.sampled_from(("random", "canonical", "gilbert")))
    if kind == "random":
        return random_statespace(random.Random(draw(st.integers(0, 2**32))), max_n=8, max_m=3)
    n = draw(st.integers(2, 60))
    return controller_canonical(n) if kind == "canonical" else gilbert_form(n)


@settings(max_examples=200, deadline=None)
@given(statespace_systems())
def test_pencil_equals_checked_constructor(ss):
    """The pencil, built without checks, is the value the checking constructor builds from its positions."""
    entries = {}
    for i in range(ss.n):
        for j in range(ss.n):
            if i == j:
                entries[(i, j)] = 1
            elif (i, j) in ss.a_entries:
                entries[(i, j)] = 0
        for k in range(ss.m):
            if (i, k) in ss.b_entries:
                entries[(i, ss.n + k)] = 0
    expected = PolyPattern(ss.n, ss.n + ss.m, entries)
    pencil = controllability_pencil(ss)
    assert pencil == expected and hash(pencil) == hash(expected)
    assert pencil.entries == expected.entries
    with pytest.raises(TypeError):
        pencil.entries[(0, 0)] = 5


class TestAnalyzeStatespace:
    def test_relay_controllable(self):
        rep = analyze_statespace(relay_ss())
        assert rep.base.verdict == CONTROLLABLE
        assert rep.state_connectivity == (True, True, True)
        assert rep.base.redundant_edges == ()

    def test_chain_controllable(self):
        rep = analyze_statespace(chain_ss())
        assert rep.base.verdict == CONTROLLABLE
        assert rep.state_connectivity == (True, True, True)

    def test_detached_state(self):
        ss = StateSpacePattern(2, 1, frozenset(), frozenset({(0, 0)}))
        rep = analyze_statespace(ss)
        assert rep.base.verdict == UNCONTROLLABLE
        assert rep.state_connectivity == (True, False)
        comp = rep.base.components[rep.base.witness.component]
        assert comp.rows == (1,) and comp.cols == (1,)
        assert rep.base.witness.weight == 1  # the derivative (parallel) edge

    def test_no_inputs_uncontrollable(self):
        ss = StateSpacePattern(2, 0, frozenset({(0, 1), (1, 0)}), frozenset())
        rep = analyze_statespace(ss)
        assert rep.base.verdict == UNCONTROLLABLE
        assert rep.state_connectivity == (False, False)

    def test_verdict_iff_all_states_connected(self):
        rng = random.Random(31)
        for _ in range(120):
            rep = analyze_statespace(random_statespace(rng))
            assert rep.controllable == all(rep.state_connectivity)


class TestGenerators:
    def test_controller_canonical_shape(self):
        ss = controller_canonical(3)
        assert ss.a_entries == frozenset({(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)})
        assert ss.b_entries == frozenset({(2, 0)})

    def test_controller_canonical_order_one(self):
        ss = controller_canonical(1)
        assert ss.a_entries == frozenset({(0, 0)})
        assert ss.b_entries == frozenset({(0, 0)})

    def test_controller_canonical_analysis(self):
        rep = analyze_statespace(controller_canonical(2))
        assert rep.base.verdict == CONTROLLABLE
        assert rep.base.redundant_edges == ()

    def test_controller_canonical_rejects_zero(self):
        with pytest.raises(ValueError):
            controller_canonical(0)

    def test_gilbert_shape(self):
        ss = gilbert_form(3)
        assert ss.a_entries == frozenset({(0, 0), (1, 1), (2, 2), (0, 1)})
        assert ss.b_entries == frozenset({(1, 0)})

    def test_gilbert_three_states_uncontrollable(self):
        # state 3 has no path to the input: its component is the lone pair
        # (equation 3, state 3) joined by the weight-1 derivative edge
        rep = analyze_statespace(gilbert_form(3))
        assert rep.base.verdict == UNCONTROLLABLE
        assert rep.state_connectivity == (True, True, False)
        assert kalman_controllable(gilbert_form(3), SEEDS) is False

    def test_gilbert_two_states_controllable(self):
        ss = gilbert_form(2)
        assert ss.a_entries == frozenset({(0, 0), (1, 1), (0, 1)})
        rep = analyze_statespace(ss)
        assert rep.base.verdict == CONTROLLABLE
        assert kalman_controllable(ss, SEEDS) is True

    def test_gilbert_rejects_small(self):
        with pytest.raises(ValueError):
            gilbert_form(1)


class TestInterconnections:
    def test_series_shape(self):
        assert siso_interconnection("series", 2, 3) == PolyPattern(
            2, 3, {(0, 0): 1, (0, 1): 2, (1, 1): 2, (1, 2): 3}
        )

    def test_feedback_shape(self):
        assert siso_interconnection("feedback", 1, 1) == PolyPattern(
            3, 4, {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 0): 1, (1, 1): 0, (2, 0): 0, (2, 2): 1}
        )

    def test_parallel_shape(self):
        p = siso_interconnection("parallel", 2, 2)
        assert p.rows == 3 and p.cols == 4
        assert {(0, 0, 2), (0, 2, 1), (2, 3, 0)} <= set(p.entries)

    @pytest.mark.parametrize("kind", ["series", "parallel", "feedback"])
    @pytest.mark.parametrize("orders", [(1, 1), (2, 3), (4, 2)])
    def test_always_controllable_no_redundancy(self, kind, orders):
        report = analyze(siso_interconnection(kind, *orders))
        assert report.verdict == CONTROLLABLE
        assert report.redundant_edges == ()

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            siso_interconnection("cascade", 1, 1)

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            siso_interconnection("series", 0, 1)


class TestStructuralProperties:
    def test_parallel_edges_survive_reduction(self):
        rng = random.Random(55)
        for _ in range(80):
            ss = random_statespace(rng)
            rg = remove_redundant_edges(build_graph(controllability_pencil(ss)))
            kept = {(r, c) for r, c, _ in rg.edges}
            assert all((i, i) in kept for i in range(ss.n)), "derivative edge was removed"

    def test_component_input_count(self):
        # per component of the reduced pencil graph, the column surplus
        # equals the number of input vertices it contains
        rng = random.Random(56)
        for _ in range(80):
            ss = random_statespace(rng)
            rg = remove_redundant_edges(build_graph(controllability_pencil(ss)))
            for comp in connected_components(rg):
                inputs = sum(1 for c in comp.cols if c >= ss.n)
                assert len(comp.cols) - len(comp.rows) == inputs


def _benchmark_size_systems() -> list[StateSpacePattern]:
    """controller_canonical and gilbert_form at n = 40, 120, 180, then seeded planted systems up to n = 120.

    Under this seed single seeds over-count on three of them (n = 60, m = 1:
    [18, 18, 18, 18, 20]; n = 80, m = 1: [22, 21, 19, 20, 19]), so the
    minimum matters.
    """
    systems = [make(n) for n in (40, 120, 180) for make in (controller_canonical, gilbert_form)]
    rng = random.Random(20_261_030)
    for n, m in ((10, 1), (10, 3), (20, 1), (20, 2), (30, 2), (40, 3), (60, 1), (60, 3), (80, 1), (80, 2), (100, 3), (120, 2)):
        systems.append(planted_statespace(rng, n, m, rng.randint(1, n // 3)))
    return systems


@pytest.mark.parametrize("ss", _benchmark_size_systems(), ids=lambda ss: f"n{ss.n}m{ss.m}e{len(ss.a_entries)}")
def test_unconnected_states_count_the_uncontrollable_subspace(monkeypatch, ss):
    """The states not connected to an input number n - generic rank [B, AB, ..., A^(n-1) B] of (A with a full diagonal, B).

    In the pencil every diagonal entry of sI - A is a generic degree-1
    polynomial, which is the classical pattern with every diagonal position
    of A present; the generic dimension of its uncontrollable subspace is
    the count (Hosoe 1980).  Each seed's rank mod q only bounds the generic
    rank from below, so a single seed may over-count: the count must equal
    the least deficiency over the seeds.  The Kalman guard is lifted to n
    for this algebraic check at benchmark sizes.
    """
    monkeypatch.setattr(oracle, "KALMAN_MAX_STATES", ss.n)
    filled = StateSpacePattern(ss.n, ss.m, ss.a_entries | {(i, i) for i in range(ss.n)}, ss.b_entries)
    assert analyze_statespace(ss).state_connectivity.count(False) == min(kalman_deficiencies(filled, SEEDS))
