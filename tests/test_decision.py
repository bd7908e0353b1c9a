"""Verdicts of ``analyze``: against the subset criterion, the exact oracle, and the square-case determinant (nonsingular, unimodular)."""

import random

import pytest

from structctrl import (
    CONTROLLABLE,
    UNCONTROLLABLE,
    GuardLimitError,
    PolyPattern,
    ZeroTermRankError,
    analyze,
    instantiate,
    siso_interconnection,
    term_rank,
    build_graph,
    zero_set_empty,
)

from fixture_patterns import (
    criteria_equivalent,
    forced_block,
    forced_subset_criterion,
    minor_determinant,
    random_pattern,
)

SEEDS = (0, 1, 2, 3, 4)


def full_term_rank(p: PolyPattern) -> bool:
    return term_rank(build_graph(p)) == p.rows


def determinant_degrees(p: PolyPattern) -> set[int]:
    """The degree of a square pattern's exact determinant at each seed, -1 where it vanishes."""
    sel = range(p.rows)
    return {minor_determinant(instantiate(p, seed), sel, sel).degree for seed in SEEDS}


class TestGenericNonsingular:
    """A square pattern is generically nonsingular exactly when its term rank is full."""

    def test_diagonal(self):
        assert full_term_rank(PolyPattern(3, 3, {(0, 0): 0, (1, 1): 1, (2, 2): 2}))

    def test_empty_column(self):
        assert not full_term_rank(PolyPattern(2, 2, {(0, 0): 0, (1, 0): 0}))

    def test_wide_2x3_right_columns(self):
        # restriction of the 2x3 fixture to its last two columns
        p = PolyPattern(2, 2, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1})
        assert full_term_rank(p)


class TestGenericUnimodular:
    """A square pattern's generic determinant is a nonzero constant exactly when its term rank is full and `analyze` calls it controllable."""

    def test_all_constant_full(self):
        p = PolyPattern(2, 2, {(i, j): 0 for i in range(2) for j in range(2)})
        assert full_term_rank(p) and analyze(p).controllable
        assert determinant_degrees(p) == {0}

    def test_degree_one_determinant(self):
        p = PolyPattern(1, 1, {(0, 0): 1})
        assert full_term_rank(p) and not analyze(p).controllable
        assert determinant_degrees(p) == {1}

    def test_heavy_entry_off_the_unique_matching(self):
        p = PolyPattern(2, 2, {(0, 0): 0, (0, 1): 3, (1, 1): 0})
        assert full_term_rank(p) and analyze(p).controllable
        # exact cross-check: the instantiated determinant is a nonzero constant
        assert determinant_degrees(p) == {0}

    def test_singular_is_not_unimodular(self):
        p = PolyPattern(2, 2, {(0, 0): 0, (1, 0): 0})
        assert not full_term_rank(p)
        assert determinant_degrees(p) == {-1}


class TestForcedSubsetCriterion:
    def test_two_generic_entries_single_row(self):
        assert forced_subset_criterion(PolyPattern(1, 2, {(0, 0): 2, (0, 1): 3}))

    def test_single_weighted_entry_single_row(self):
        assert not forced_subset_criterion(PolyPattern(1, 1, {(0, 0): 2}))

    def test_forced_block(self):
        assert not forced_subset_criterion(forced_block())

    def test_guard(self):
        p = PolyPattern(9, 9, {(i, i): 0 for i in range(9)})
        with pytest.raises(GuardLimitError):
            forced_subset_criterion(p)

    def test_requires_full_row_rank(self):
        with pytest.raises(ValueError, match="full row term rank"):
            forced_subset_criterion(PolyPattern(2, 2, {(0, 0): 0, (1, 0): 0}))


class TestAnalyze:
    def test_series_interconnection(self):
        report = analyze(siso_interconnection("series", 1, 1))
        assert report.verdict == CONTROLLABLE
        assert report.redundant_edges == ()

    def test_single_autonomous_equation(self):
        report = analyze(PolyPattern(1, 1, {(0, 0): 1}))
        assert report.verdict == UNCONTROLLABLE
        assert report.witness is not None
        assert report.witness.edge == (0, 0)
        assert report.witness.weight == 1

    def test_unhealthy_component_beats_healthy_one(self):
        p = PolyPattern(2, 3, {(0, 0): 1, (1, 1): 0, (1, 2): 0})
        report = analyze(p)
        assert report.verdict == UNCONTROLLABLE
        comp = report.components[report.witness.component]
        assert comp.rows == (0,) and comp.cols == (0,)
        # exact cross-check on random instances: the minors share a degree-1 factor
        assert zero_set_empty(p, SEEDS) is False

    def test_zero_term_rank_is_diagnostic(self):
        with pytest.raises(ZeroTermRankError):
            analyze(PolyPattern(2, 2, {}))

    def test_tall_pattern_same_code_path(self):
        report = analyze(PolyPattern(2, 1, {(0, 0): 1, (1, 0): 1}))
        assert report.verdict == CONTROLLABLE  # generically coprime column entries
        assert not report.minimal
        assert report.term_rank == 1

    def test_rank_deficient_uses_max_matching_size(self):
        p = PolyPattern(2, 3, {(0, 0): 1, (1, 0): 1})
        report = analyze(p)
        assert report.term_rank == 1
        assert not report.minimal

    def test_witness_none_iff_controllable(self):
        rng = random.Random(99)
        for _ in range(100):
            try:
                report = analyze(random_pattern(rng))
            except ZeroTermRankError:
                continue
            assert (report.witness is None) == report.controllable
            if report.witness is not None:
                comp = report.components[report.witness.component]
                assert len(comp.rows) == len(comp.cols)
                assert report.witness.weight >= 1


class TestCriteriaEquivalence:
    def test_wide_all_degree_one(self):
        p = PolyPattern(2, 3, {(0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1})
        assert criteria_equivalent(p)

    def test_single_constant(self):
        assert criteria_equivalent(PolyPattern(1, 1, {(0, 0): 0}))

    def test_forced_block(self):
        assert criteria_equivalent(forced_block())
        assert analyze(forced_block()).verdict == UNCONTROLLABLE

    def test_seeded_family(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 150:
            p = random_pattern(rng)
            if term_rank(build_graph(p)) != p.rows:
                continue
            assert criteria_equivalent(p)
            checked += 1


class TestReportInvariants:
    def test_permutation_invariance(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_pattern(rng)
            rows = list(range(p.rows))
            cols = list(range(p.cols))
            rng.shuffle(rows)
            rng.shuffle(cols)
            permuted = PolyPattern(
                p.rows, p.cols, {(rows[i], cols[j]): d for i, j, d in p.entries}
            )
            a, b = analyze(p), analyze(permuted)
            assert a.verdict == b.verdict
            assert a.term_rank == b.term_rank
            summary = lambda rep: sorted((len(c.rows), len(c.cols), c.max_weight) for c in rep.components)
            assert summary(a) == summary(b)

    def test_full_rank_square_controllable_iff_unimodular(self):
        rng = random.Random(7)
        for _ in range(150):
            p = random_pattern(rng, max_rows=4, max_cols=4)
            if p.rows != p.cols or not full_term_rank(p):
                continue
            assert analyze(p).controllable == (determinant_degrees(p) == {0})

    def test_singular_square_pattern_can_still_be_controllable(self):
        # A zero row contributes the equation 0 = 0: the matrix is singular,
        # hence never unimodular, yet its rank never falls anywhere, so the
        # zero set is empty and the behavior controllable.  The exact oracle
        # agrees with analyze; unimodularity is the strictly stronger notion.
        p = PolyPattern(2, 2, {(1, 0): 0, (1, 1): 0})
        assert analyze(p).controllable
        assert zero_set_empty(p, SEEDS)
        assert not full_term_rank(p)
        assert determinant_degrees(p) == {-1}

    def test_verdict_matches_oracle_smoke(self):
        rng = random.Random(8)
        for _ in range(60):
            p = random_pattern(rng)
            assert analyze(p).controllable == zero_set_empty(p, SEEDS)
