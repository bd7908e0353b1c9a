"""Exact polynomial arithmetic, determinants, gcd, and the zero-set oracles."""

import random
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structctrl import (
    ExactMatrix,
    GuardLimitError,
    PolyPattern,
    StateSpacePattern,
    ZeroTermRankError,
    analyze,
    controllability_pencil,
    controller_canonical,
    gilbert_form,
    instantiate,
    kalman_controllable,
    kalman_deficiencies,
    minor_gcd,
    zero_set_empty,
    zero_set_gcd_degrees,
)

from structctrl import cli, oracle

from fixture_patterns import (
    ExactPoly,
    chain_ss,
    dense_grid,
    det_bareiss,
    integrator_ss,
    minor_determinant,
    monic_mod_q,
    poly_exact_div,
    random_pattern,
    reference_kalman_controllable,
    reference_poly_gcd,
    relay_ss,
    shared_drive_ss,
    true_pencil,
    wide_2x3,
)

SEEDS = (0, 1, 2, 3, 4)
Q = oracle._PRIME


def P(*coeffs):
    return ExactPoly(coeffs)


def gcd(a, b) -> tuple[int, ...] | None:
    """Gcd of two stripped coefficient sequences, taken by minor_gcd as the 1x1 minors of the 1x2 matrix [a b]."""
    return minor_gcd(ExactMatrix(1, 2, tuple((0, j, tuple(cs)) for j, cs in enumerate((a, b)) if cs)), 1)


def divides_mod_q(g, a) -> bool:
    """Does the monic residue sequence g divide the integer coefficients a mod q?  Schoolbook long division."""
    r = [c % Q for c in a]
    while len(r) >= len(g):
        top, shift = r.pop(), len(r) + 1 - len(g)
        for i, c in enumerate(g[:-1]):
            r[shift + i] = (r[shift + i] - top * c) % Q
        while r and r[-1] == 0:
            r.pop()
    return not r


def naive_cofactor_det(matrix: ExactMatrix, rows, cols) -> ExactPoly:
    """Reference determinant: plain unmemoized cofactor expansion."""
    grid = dense_grid(matrix)

    def det(rows, cols):
        if not rows:
            return ExactPoly.constant(1)
        total = ExactPoly()
        sign = 1
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1 :])
            total = total + sign * (grid[rows[0]][c] * sub)
            sign = -sign
        return total

    return det(sorted(rows), sorted(cols))


class TestExactPoly:
    def test_normalization(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).is_zero
        assert P().degree == -1

    def test_degree_and_lead(self):
        assert P(3, 0, 5).degree == 2
        assert P(3, 0, 5).lead == 5
        with pytest.raises(ValueError):
            P().lead

    def test_arithmetic(self):
        a, b = P(1, 1), P(-1, 1)  # 1+s, -1+s
        assert a * b == P(-1, 0, 1)
        assert a + b == P(0, 2)
        assert a - a == P()
        assert 3 * a == P(3, 3)

    def test_primitive_part(self):
        assert P(6, -4, 2).primitive_part() == P(3, -2, 1)


class TestPolyGcd:
    def test_common_linear_factor(self):
        assert gcd((-1, 0, 1), (-1, 1)) == monic_mod_q(P(-1, 1)) == (Q - 1, 1)  # gcd(s^2-1, s-1) = s-1

    def test_constant_against_poly(self):
        assert gcd((7,), (3, 1, 4)) == (1,)

    def test_one_zero(self):
        assert gcd((), (2, 4)) == monic_mod_q(P(1, 2))

    def test_random_cubics_generically_coprime(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            a = [rng.choice((1, -1)) * rng.randint(1, 99) for _ in range(4)]
            b = [rng.choice((1, -1)) * rng.randint(1, 99) for _ in range(4)]
            assert gcd(a, b) == (1,)

    def test_constant_ends_the_gcd_without_division(self, monkeypatch):
        def no_division(*args):
            raise AssertionError("divided by a constant")

        monkeypatch.setattr(oracle, "_rem", no_division)
        assert gcd((1,) * 2001, (-6,)) == (1,)
        assert gcd((3,), (2, 0, 4)) == (1,)

    def test_minor_vanishing_mod_q_is_skipped(self):
        assert gcd((Q, Q), (1, 1)) == (1, 1)  # q(1+s) reduces to zero; 1+s alone sets the gcd

    def test_no_minor_keeping_its_degree_mod_q_raises(self):
        # 1+qs reduces to the constant 1, but the true gcd is 1+qs itself
        with pytest.raises(GuardLimitError, match="lower the coefficient bound"):
            gcd((1, Q), (1, Q))


@st.composite
def nonzero_polys(draw, max_degree=4, bound=20):
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=max_degree + 1))
    coeffs = coeffs if any(coeffs) else [1]
    return ExactPoly(coeffs)


@settings(max_examples=150)
@given(nonzero_polys(), nonzero_polys())
def test_gcd_divides_both_and_is_symmetric(a, b):
    g = gcd(a.coeffs, b.coeffs)
    assert g[-1] == 1
    assert divides_mod_q(g, a.coeffs) and divides_mod_q(g, b.coeffs)
    assert gcd(b.coeffs, a.coeffs) == g


@settings(max_examples=100)
@given(nonzero_polys(), nonzero_polys(), st.integers(1, 9))
def test_gcd_degree_scale_invariant(a, b, k):
    assert len(gcd((a * k).coeffs, b.coeffs)) == len(gcd(a.coeffs, b.coeffs))


@settings(max_examples=200, deadline=None)
@given(nonzero_polys(bound=99), nonzero_polys(bound=99), st.one_of(st.none(), nonzero_polys(max_degree=3, bound=9)))
def test_gcd_matches_fraction_reference(a, b, common):
    if common is not None:  # plant a common factor
        a, b = a * common, b * common
    assert gcd(a.coeffs, b.coeffs) == monic_mod_q(reference_poly_gcd(a, b))


class TestExactDiv:
    def test_exact(self):
        assert poly_exact_div(P(-1, 0, 1), P(-1, 1)) == P(1, 1)

    def test_not_divisible(self):
        with pytest.raises(ValueError):
            poly_exact_div(P(1, 0, 1), P(-1, 1))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_exact_div(P(1), P())


def matrix_of(grid):
    """The sparse matrix of a grid of reference polynomials."""
    triples = tuple((i, j, e.coeffs) for i, row in enumerate(grid) for j, e in enumerate(row) if e)
    return ExactMatrix(len(grid), len(grid[0]), triples)


class TestDeterminants:
    def test_single_entry(self):
        m = matrix_of([[P(1, 3)]])
        assert minor_determinant(m, [0], [0]) == P(1, 3)

    def test_diagonal(self):
        m = matrix_of([[P(0, 1), P()], [P(), P(-2, 1)]])
        assert minor_determinant(m, [0, 1], [0, 1]) == P(0, -2, 1)  # s^2 - 2s

    def test_three_routes_agree_on_random_4x4(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            grid = [
                [ExactPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]) for _ in range(4)]
                for _ in range(4)
            ]
            m = matrix_of(grid)
            sel = range(4)
            d1 = minor_determinant(m, sel, sel)
            d2 = det_bareiss(m)
            d3 = naive_cofactor_det(m, list(sel), list(sel))
            assert d1 == d2 == d3

    def test_bareiss_singular(self):
        row = [P(1), P(2)]
        m = matrix_of([row, row])
        assert det_bareiss(m).is_zero


class TestInstantiate:
    def test_constant_entry(self):
        m = instantiate(PolyPattern(1, 1, {(0, 0): 0}), seed=3)
        ((i, j, coeffs),) = m.entries
        assert (i, j) == (0, 0) and len(coeffs) == 1 and 1 <= abs(coeffs[0]) <= 99

    def test_degree_two_entry(self):
        m = instantiate(PolyPattern(1, 1, {(0, 0): 2}), seed=5)
        ((_, _, coeffs),) = m.entries
        assert len(coeffs) == 3
        assert all(1 <= abs(c) <= 99 for c in coeffs)

    def test_absent_entries_are_zero(self):
        m = instantiate(PolyPattern(2, 2, {(0, 0): 0}), seed=0)
        assert [(i, j) for i, j, _ in m.entries] == [(0, 0)]

    def test_deterministic(self):
        p = PolyPattern(2, 3, {(0, 1): 2, (1, 0): 1})
        assert instantiate(p, seed=11) == instantiate(p, seed=11)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError, match=r"^entry \(2,0\) outside 2x3$"):
            ExactMatrix(2, 3, ((0, 0, (1,)), (2, 0, (1,))))
        with pytest.raises(ValueError, match=r"^entry \(0,-1\) outside 2x3$"):
            ExactMatrix(2, 3, ((0, -1, (1,)),))

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda: ExactMatrix(1.5, 1, []), r"matrix dimensions must be positive ints, got 1.5x1", id="float-rows"),
            pytest.param(lambda: ExactMatrix(1, 1, [(0, 0.0, (1,))]), r"entry \(0, 0.0, \(1,\)\): indices", id="float-index"),
            pytest.param(
                lambda: minor_gcd(ExactMatrix(1, 1, [(0, 0, (1.5,))]), 1), r"entry \(0,0\) has coefficients \(1.5,\); coefficients", id="float-coefficient"
            ),
            pytest.param(lambda: ExactMatrix(1, 1, [(0, 0, (True,))]), r"coefficients must be ints", id="bool-coefficient"),
        ],
    )
    def test_refuses_values_that_are_not_ints(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    # Literal draws, taken from the dense-grid instantiate that preceded the
    # sparse triples.  Gcd degrees do not notice a change of draw order;
    # these do.
    @pytest.mark.parametrize(
        "seed, entries",
        [
            (0, ((0, 1, (-98, -6)), (0, 2, (-66,)), (1, 0, (-52, -62, -75)), (1, 1, (65,)), (1, 2, (37, 97)))),
            (1, ((0, 1, (73, 33)), (0, 2, (64,)), (1, 0, (-61, -27, 63)), (1, 1, (50,)), (1, 2, (-78, 90)))),
        ],
    )
    def test_pinned_draws_wide_2x3(self, seed, entries):
        assert instantiate(wide_2x3(), seed).entries == entries

    @pytest.mark.parametrize("seed", range(4))
    def test_triples_in_any_order_make_one_matrix(self, seed):
        m = instantiate(PolyPattern(3, 4, {(i, j): (i + j) % 3 for i in range(3) for j in range(4) if i != j}), seed)
        shuffled = list(m.entries)
        random.Random(seed).shuffle(shuffled)
        again = ExactMatrix(3, 4, shuffled)
        assert again == m and again.entries == tuple(sorted(shuffled))
        assert minor_gcd(again, 3) == minor_gcd(m, 3)
        assert minor_gcd(ExactMatrix(3, 4, m.entries[::-1]), 2) == minor_gcd(m, 2)


def stdlib_nonzero_ints(seed: int, bound: int, count: int) -> list[int]:
    """Reference draws: the stdlib formula that oracle._nonzero_ints reproduces from getrandbits alone."""
    rng = random.Random(seed)
    return [rng.choice((1, -1)) * rng.randint(1, bound) for _ in range(count)]


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 7, 8, 99, 1024, 2**61])
def test_draws_follow_the_stdlib_formula(bound):
    # the same stream as choice((1, -1)) * randint(1, bound): a change to either rejection loop shifts every later draw
    for seed in range(50):
        draw = oracle._nonzero_ints(seed, bound)
        assert [draw() for _ in range(20)] == stdlib_nonzero_ints(seed, bound, 20)


# Where the coefficient bound enters, it is an int >= 1; bool is not taken as 1.
BOUND_ENTRY_POINTS = [
    pytest.param(lambda bound: instantiate(wide_2x3(), 0, bound), id="instantiate"),
    pytest.param(lambda bound: zero_set_empty(wide_2x3(), [0], bound), id="zero_set_empty"),
    pytest.param(lambda bound: zero_set_gcd_degrees(wide_2x3(), [0], bound), id="zero_set_gcd_degrees"),
    pytest.param(lambda bound: kalman_controllable(controller_canonical(3), [0], bound), id="kalman_controllable"),
    pytest.param(lambda bound: kalman_deficiencies(controller_canonical(3), [0], bound), id="kalman_deficiencies"),
]


@pytest.mark.parametrize("bound", [0, -2, 1.5, True], ids=["zero", "negative", "float", "bool"])
@pytest.mark.parametrize("call", BOUND_ENTRY_POINTS)
def test_coefficient_bound_is_an_int_at_least_one(call, bound):
    with pytest.raises(ValueError, match=rf"^coefficient bound must be an int >= 1, got {bound!r}$"):
        call(bound)
    call(1)


# Where the seeds enter, an empty collection is refused rather than answered
# without a seed; an iterator is read once and gives the list's answers.
SEED_ENTRY_POINTS = [
    pytest.param(lambda seeds: zero_set_empty(wide_2x3(), seeds), True, id="zero_set_empty"),
    pytest.param(lambda seeds: zero_set_gcd_degrees(wide_2x3(), seeds), [0, 0], id="zero_set_gcd_degrees"),
    pytest.param(lambda seeds: kalman_controllable(controller_canonical(3), seeds), True, id="kalman_controllable"),
    pytest.param(lambda seeds: kalman_deficiencies(controller_canonical(3), seeds), [0, 0], id="kalman_deficiencies"),
]


@pytest.mark.parametrize("call, answer", SEED_ENTRY_POINTS)
def test_seeds_are_a_nonempty_collection(call, answer):
    for empty in ([], (), iter([]), range(0)):
        with pytest.raises(ValueError, match=r"^seeds must hold at least one seed, got an empty collection$"):
            call(empty)
    assert call([0, 1]) == call(iter([0, 1])) == call(x for x in (0, 1)) == answer


class TestZeroSet:
    def test_two_generic_polys_coprime(self):
        p = PolyPattern(1, 2, {(0, 0): 2, (0, 1): 3})
        assert zero_set_empty(p, SEEDS) is True

    def test_single_degree_one_entry(self):
        p = PolyPattern(1, 1, {(0, 0): 1})
        assert zero_set_empty(p, SEEDS) is False
        assert zero_set_gcd_degrees(p, SEEDS) == [1] * 5

    def test_shared_drive_modes_differ(self):
        ss = shared_drive_ss()
        assert zero_set_empty(controllability_pencil(ss), SEEDS) is True
        # with A_11 = A_33 = 0 exactly, all maximal minors of the true pencil share the factor s
        assert kalman_deficiencies(ss, SEEDS) == [1] * 5

    def test_guards(self):
        with pytest.raises(ValueError, match="term rank 0"):
            zero_set_empty(PolyPattern(2, 2, {}), SEEDS)
        big = PolyPattern(7, 7, {(i, i): 0 for i in range(7)})
        with pytest.raises(GuardLimitError, match="guarded at dimension 6, pattern is 7x7"):
            zero_set_empty(big, SEEDS)
        at_guard = PolyPattern(6, 6, {(i, i): 0 for i in range(6)})
        assert zero_set_empty(at_guard, (0,)) is True

    def test_empty_pattern_raises_the_analysis_error_type(self):
        empty = PolyPattern(2, 2, {})
        with pytest.raises(ZeroTermRankError):
            analyze(empty)
        for check in (zero_set_empty, zero_set_gcd_degrees):
            with pytest.raises(ZeroTermRankError, match="^pattern has term rank 0; zero-set test undefined$"):
                check(empty, [0])

    def test_guards_run_before_the_matching(self, monkeypatch):
        def no_matching(*args):
            raise AssertionError("matching ran before the guard")

        monkeypatch.setattr(oracle, "build_graph", no_matching)
        with pytest.raises(ValueError, match="term rank 0"):
            zero_set_empty(PolyPattern(40_000, 40_000, {}), SEEDS)
        big = PolyPattern(40_000, 40_000, {(i, i): 0 for i in range(0, 40_000, 100)})
        with pytest.raises(GuardLimitError, match="guarded at dimension 6, pattern is 40000x40000"):
            zero_set_empty(big, SEEDS)
        high = PolyPattern(40_000, 2, {(0, 0): 10**9, (1, 1): 0})
        with pytest.raises(GuardLimitError, match="guarded at 25000 coefficients, pattern draws 1000000002"):
            zero_set_empty(high, SEEDS)

    def test_coefficient_guard(self):
        assert oracle.ZERO_SET_MAX_COEFFS == 25_000
        # the sum of degree + 1 over the entries: 24,998 + 1 + 0 + 1 at the cap
        assert zero_set_gcd_degrees(PolyPattern(1, 2, {(0, 0): 24_998, (0, 1): 0}), (0,)) == [0]
        # two high-degree minors: Euclid runs all the way down
        assert zero_set_gcd_degrees(PolyPattern(1, 2, {(0, 0): 300, (0, 1): 300}), (0,)) == [0]
        with pytest.raises(GuardLimitError, match="guarded at 25000 coefficients, pattern draws 25001"):
            zero_set_gcd_degrees(PolyPattern(1, 2, {(0, 0): 24_999, (0, 1): 0}), (0,))

    def test_minor_count_guard(self):
        assert oracle.ZERO_SET_MAX_MINORS == 10_000
        # 6x26 at term rank 6: C(26, 6) = 230,230 maximal minors
        wide = PolyPattern(6, 26, {(i, j): 0 for i in range(6) for j in range(26)})
        with pytest.raises(GuardLimitError, match="guarded at 10000 minors, pattern is 6x26 with 230230 minors of order 6"):
            zero_set_gcd_degrees(wide, SEEDS)
        # 6x16: C(16, 6) = 8,008 minors, under the cap; term rank 2 of a 6x26: 15 * 325 = 4,875
        assert zero_set_empty(PolyPattern(6, 16, {(i, i): 0 for i in range(6)}), (0,)) is True
        low_rank = PolyPattern(6, 26, {(i, j): 0 for i in range(6) for j in range(2)})
        assert zero_set_gcd_degrees(low_rank, (0,)) == [0]

    def test_euclid_guard(self, monkeypatch):
        assert oracle.ZERO_SET_MAX_EUCLID == 2_000_000
        # a row of k entries of degree d: k - 1 gcds of at most (d + 1)^2 products each
        at_cap = PolyPattern(1, 129, {(0, j): 124 for j in range(129)})  # 128 * 125^2 = 2,000,000
        assert zero_set_gcd_degrees(at_cap, (0,)) == [0]
        # one constant minor: the second largest minor degree is 0, whatever the first
        assert oracle._euclid_work(PolyPattern(1, 2, {(0, 0): 24_998, (0, 1): 0}), 1, 2) == (24_999, 24_998, 0)
        # one minor alone can be nonzero: no gcd step at all
        assert oracle._euclid_work(PolyPattern(2, 2, {(0, 0): 6_000, (1, 1): 6_000}), 2, 1) == (0, 12_000, -1)

        def no_minor(*args):
            raise AssertionError("a minor was computed past the guard")

        monkeypatch.setattr(oracle, "minor_gcd", no_minor)
        past_cap = PolyPattern(1, 130, {(0, j): 124 for j in range(130)})  # 129 * 125^2
        with pytest.raises(GuardLimitError, match=r"pattern is 1x130 with 130 minors of degree up to 124 \(all but one up to 124\): 2015625$"):
            zero_set_gcd_degrees(past_cap, (0,))
        # two coprime minors of degree 12,499: about 95 s per seed of quadratic Euclid
        full_row = PolyPattern(1, 2, {(0, 0): 12_499, (0, 1): 12_499})
        with pytest.raises(GuardLimitError, match="gcd guarded at 2000000 coefficient products per seed"):
            zero_set_empty(full_row, SEEDS)

    def test_minor_gcd_none_when_rank_collapses(self):
        zero = ExactPoly()
        m = matrix_of([[P(1), zero], [P(1), zero]])
        assert minor_gcd(m, 2) is None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
def test_zero_set_empty_stops_at_first_certifying_seed(pattern_seed, seeds):
    pattern = random_pattern(random.Random(pattern_seed), max_rows=6, max_cols=6, max_edges=18)
    degrees = zero_set_gcd_degrees(pattern, seeds)
    tried = []

    def counting_instantiate(p, seed, *args):
        tried.append(seed)
        return instantiate(p, seed, *args)

    with patch.object(oracle, "instantiate", counting_instantiate):
        empty = zero_set_empty(pattern, seeds)
    assert empty == (0 in degrees)
    assert tried == seeds[: degrees.index(0) + 1 if empty else len(seeds)]


def reference_minor_gcd(matrix: ExactMatrix, size: int) -> tuple[int, ...] | None:
    """Monic image mod q of the gcd of every size-by-size minor, each expanded on its own; None if all vanish."""
    acc = ExactPoly()
    for rows in combinations(range(matrix.rows), size):
        for cols in combinations(range(matrix.cols), size):
            d = minor_determinant(matrix, rows, cols)
            if not d.is_zero:
                acc = reference_poly_gcd(d, acc)
                if acc.degree == 0:
                    return monic_mod_q(acc)  # a constant divides every later minor too
    return None if acc.is_zero else monic_mod_q(acc)


@st.composite
def oracle_patterns(draw):
    """Patterns up to 8x8: tall, wide and square; some have rows starved of columns,
    which makes the term rank, and so the largest nonzero minor, smaller than min(p, v)."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    allowed = [[True] * cols for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        starved = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=rows, unique=True))
        kept = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=len(starved) - 1, unique=True))
        for i in starved:
            allowed[i] = [j in kept for j in range(cols)]
    cells = [(i, j) for i in range(rows) for j in range(cols) if allowed[i][j]]
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=min(len(cells), 20), unique=True))
    return PolyPattern(rows, cols, {cell: draw(st.integers(0, 2)) for cell in chosen})


@settings(max_examples=200, deadline=None)
@given(oracle_patterns(), st.integers(0, 2**32), st.sampled_from((1, 2, 99)))
def test_minor_gcd_matches_per_minor_reference(pattern, seed, coeff_bound):
    # coefficient bound 1 or 2 makes cancelling minors and shared factors likely
    matrix = instantiate(pattern, seed, coeff_bound=coeff_bound)
    for k in range(1, min(pattern.rows, pattern.cols) + 1):
        assert minor_gcd(matrix, k) == reference_minor_gcd(matrix, k)



BIG = 2**80


@st.composite
def big_matrices(draw):
    """Matrices up to 3x4 and 4x3, tall, wide and square, whose entries have degree up to 12 and
    signed coefficients up to 2^80 in magnitude, the leading one included."""
    rows, cols = draw(st.sampled_from([(r, c) for r in range(1, 5) for c in range(1, 5) if r * c <= 12]))
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), min_size=1, max_size=6, unique=True))
    coeff = st.one_of(st.integers(-BIG, BIG), st.sampled_from((-BIG, BIG)))
    lead = st.one_of(st.integers(-BIG, -1), st.integers(1, BIG), st.sampled_from((-BIG, BIG)))
    entries = []
    for i, j in sorted(cells):
        coeffs = draw(st.lists(coeff, max_size=12)) + [draw(lead)]
        entries.append((i, j, tuple(coeffs)))
    return ExactMatrix(rows, cols, tuple(entries))


def degree_drops_mod_q(matrix: ExactMatrix, size: int) -> bool:
    """True when some size-by-size minor is nonzero and every nonzero one has a leading coefficient divisible by q."""
    leads = [
        d.lead
        for rows in combinations(range(matrix.rows), size)
        for cols in combinations(range(matrix.cols), size)
        if not (d := minor_determinant(matrix, rows, cols)).is_zero
    ]
    return bool(leads) and all(lead % Q == 0 for lead in leads)


@settings(max_examples=200, deadline=None)
@given(big_matrices())
@example(ExactMatrix(1, 1, ((0, 0, (-Q,)),)))
@example(ExactMatrix(1, 2, ((0, 0, (5, 2 * Q)), (0, 1, (Q,)))))
def test_minor_gcd_unpacks_large_signed_coefficients(matrix):
    # each polynomial is packed into one integer; a slot too narrow for a minor's coefficients corrupts the gcd.
    # Coefficients up to 2^80 can be multiples of q; when every nonzero minor loses its degree mod q the oracle refuses.
    for k in range(1, min(matrix.rows, matrix.cols) + 1):
        if degree_drops_mod_q(matrix, k):
            with pytest.raises(GuardLimitError, match="lower the coefficient bound"):
                minor_gcd(matrix, k)
        else:
            assert minor_gcd(matrix, k) == reference_minor_gcd(matrix, k)


@st.composite
def packable(draw):
    """A slot width w and a coefficient list whose last entry is nonzero and every entry below 2^(w-1) in size."""
    width = draw(st.integers(2, 100))
    bound = 2 ** (width - 1) - 1
    coeff = st.one_of(st.integers(-bound, bound), st.sampled_from((-bound, bound)))
    lead = st.one_of(st.integers(-bound, -1), st.integers(1, bound), st.sampled_from((-bound, bound)))
    return width, draw(st.lists(coeff, max_size=12)) + [draw(lead)]


@settings(max_examples=300, deadline=None)
@given(packable())
@example((2, [1]))
@example((2, [-1]))
@example((2, [1, -1, 1, -1]))
@example((64, [-(2**63 - 1)] * 5))
def test_unpack_reads_exactly_deg_plus_one_digits(case):
    # minor_gcd unpacks x.bit_length() // w + 1 digits and takes the last as the leading coefficient
    width, coeffs = case
    x = oracle._pack(coeffs, width)
    digits: list[int] = []
    oracle._unpack(x, width, x.bit_length() // width + 1, digits)
    assert digits == coeffs


@pytest.mark.parametrize("rows, cols, degree", [(1, 1, 0), (2, 2, 0), (3, 3, 0), (1, 3, 2), (3, 2, 1), (2, 3, 3), (2, 2, 5)])
def test_minor_gcd_at_the_coefficient_bound(rows, cols, degree):
    # every coefficient is +-2^80: a diagonal of + signs makes a minor's coefficient
    # equal the slot bound itself, the product of the rows' l1 sums
    diagonal = ExactMatrix(rows, cols, tuple((i, i, (BIG,) * (degree + 1)) for i in range(min(rows, cols))))
    rng = random.Random(rows * 100 + cols * 10 + degree)
    signs = [[[rng.choice((BIG, -BIG)) for _ in range(degree + 1)] for _ in range(cols)] for _ in range(rows)]
    full = ExactMatrix(rows, cols, tuple((i, j, tuple(signs[i][j])) for i in range(rows) for j in range(cols)))
    for matrix in (diagonal, full):
        for k in range(1, min(rows, cols) + 1):
            assert minor_gcd(matrix, k) == reference_minor_gcd(matrix, k)


def test_full_2x2_of_high_degree_matches_reference():
    matrix = instantiate(PolyPattern(2, 2, {(i, j): 400 for i in range(2) for j in range(2)}), 0)
    assert minor_gcd(matrix, 2) == reference_minor_gcd(matrix, 2)


def test_one_expansion_per_call(monkeypatch):
    # the first row holds one entry, of degree 1: it divides every maximal minor, so every seed scans them all
    pattern = PolyPattern(3, 4, {(0, 0): 1, (1, 1): 0, (1, 2): 1, (1, 3): 0, (2, 1): 1, (2, 2): 0, (2, 3): 1})
    plans, states, seen = [], [], []

    class CountingPlan(oracle._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

        def _state(self, *args):
            states.append(args)
            return super()._state(*args)

    real_minor_gcd = oracle.minor_gcd

    def spying_minor_gcd(matrix, size, plan=None):
        seen.append(plan)
        return real_minor_gcd(matrix, size, plan)

    monkeypatch.setattr(oracle, "_Plan", CountingPlan)
    monkeypatch.setattr(oracle, "minor_gcd", spying_minor_gcd)
    assert zero_set_gcd_degrees(pattern, (0,)) == [1]
    one_seed = len(states)
    assert zero_set_gcd_degrees(pattern, SEEDS) == [1] * 5
    # the second call plans afresh, once for its five seeds, and expands each minor once
    assert len(plans) == 2 and plans[1] is not plans[0]
    assert len(states) == 2 * one_seed
    assert seen == [plans[0]] + [plans[1]] * 5


def perfect_matching_exists(cells, rows, cols) -> bool:
    """Reference: can every row of ``rows`` be matched to its own column of ``cols`` through ``cells``?  Kuhn's augmenting paths."""
    mate: dict[int, int] = {}

    def augment(r, seen) -> bool:
        for c in cols:
            if (r, c) in cells and c not in seen:
                seen.add(c)
                if c not in mate or augment(mate[c], seen):
                    mate[c] = r
                    return True
        return False

    return all(augment(r, set()) for r in rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(1, 9), st.data())
def test_plan_yields_exactly_the_minors_with_a_perfect_matching(rows, cols, data):
    kept = data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    cells = {divmod(k, cols) for k, keep in enumerate(kept) if keep}
    size = data.draw(st.integers(1, min(rows, cols)))
    plan = oracle._Plan(rows, cols, [(i, j, 0) for i, j in sorted(cells)], size)
    # the plan expands a tall matrix as its transpose
    n_rows, n_cols, arcs = (rows, cols, cells) if rows <= cols else (cols, rows, {(j, i) for i, j in cells})
    want = [
        (sum(1 << i for i in r), sum(1 << j for j in c))
        for r in combinations(range(n_rows), size)
        for c in combinations(range(n_cols), size)
        if perfect_matching_exists(arcs, r, c)
    ]
    states = list(plan)
    masks = {state: (key >> plan.shift, key & (1 << plan.shift) - 1) for key, state in plan.index.items() if state > 1}
    assert [masks[state] for state in states] == want
    assert list(plan) == states  # a second pass replays the minors found


# The rank-5 6x9 oracle-crosscheck pattern small-6x9-99: its 13 (row, column, degree) entries, 1-based as in its file.
SMALL_6X9_99_ENTRIES = [
    (1, 1, 1), (1, 4, 1), (1, 8, 0), (2, 7, 1), (3, 5, 1), (3, 8, 1), (4, 2, 0),
    (4, 5, 0), (4, 6, 1), (5, 7, 1), (6, 1, 1), (6, 3, 0), (6, 4, 0),
]
SMALL_6X9_99 = PolyPattern(6, 9, {(i - 1, j - 1): d for i, j, d in SMALL_6X9_99_ENTRIES})


# Work-counter ceilings: the plan's index size on fixed inputs.  A scan or a
# recursion that plans minors with a row or a column that meets none of the
# other side grows the index past them (1,325, 18,494 and 19,801 states when
# every minor the scan meets is planned), on any machine.
@pytest.mark.parametrize(
    "pattern, degrees, ceiling",
    [
        pytest.param(SMALL_6X9_99, [0] * 5, 305, id="small-6x9-99"),
        pytest.param(cli._random_pattern(16, 18, 48, 2, 0), [15] * 5, 2683, id="random-16x18-seed0"),
        pytest.param(cli._random_pattern(16, 18, 48, 2, 3), [6] * 5, 2069, id="random-16x18-seed3"),
    ],
)
def test_plan_index_ceiling(monkeypatch, pattern, degrees, ceiling):
    plans = []

    class RecordingPlan(oracle._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(oracle, "_Plan", RecordingPlan)
    monkeypatch.setattr(oracle, "ZERO_SET_MAX_DIM", 16)
    assert zero_set_gcd_degrees(pattern, SEEDS) == degrees
    (plan,) = plans
    assert len(plan.index) <= ceiling


class TestKalman:
    def test_controller_canonical(self):
        assert kalman_controllable(controller_canonical(3), SEEDS) is True

    def test_shared_drive(self):
        assert kalman_controllable(shared_drive_ss(), SEEDS) is False

    def test_unreachable_state(self):
        ss = StateSpacePattern(2, 1, frozenset(), frozenset({(0, 0)}))
        assert kalman_controllable(ss, SEEDS) is False

    def test_no_inputs(self):
        ss = StateSpacePattern(2, 0, frozenset({(0, 1)}), frozenset())
        assert kalman_controllable(ss, SEEDS) is False

    def test_guard(self):
        ss = StateSpacePattern(13, 1, frozenset(), frozenset({(0, 0)}))
        with pytest.raises(GuardLimitError):
            kalman_controllable(ss, SEEDS)

    @pytest.mark.parametrize(
        "ss",
        [
            shared_drive_ss(),
            relay_ss(),
            chain_ss(),
            integrator_ss(),
            controller_canonical(4),
            gilbert_form(3),
        ],
    )
    def test_agrees_with_strict_zero_set(self, ss):
        assert_pbh(ss, SEEDS, 99)


def assert_pbh(ss, seeds, coeff_bound):
    """PBH, seed by seed: the true pencil's maximal-minor gcd has degree n - rank [B, AB, ..., A^(n-1) B].

    Both sides are exact over F_q at the same draws, so the identity holds
    at every seed, not only generically.
    """
    degrees = [len(minor_gcd(true_pencil(ss, seed, coeff_bound), ss.n)) - 1 for seed in seeds]
    assert kalman_deficiencies(ss, seeds, coeff_bound) == degrees
    assert kalman_controllable(ss, seeds, coeff_bound) == (0 in degrees)


@st.composite
def kalman_systems(draw, max_n=12):
    """Systems with n <= max_n and m <= 3: some with every diagonal entry of A set,
    some with a planted block of states that neither B nor the other states reach."""
    n, m = draw(st.integers(1, max_n)), draw(st.integers(0, 3))
    a_cells = [(i, j) for i in range(n) for j in range(n)]
    a = set(draw(st.lists(st.sampled_from(a_cells), max_size=3 * n, unique=True)))
    if draw(st.booleans()):
        a |= {(i, i) for i in range(n)}
    b = set(draw(st.lists(st.sampled_from([(i, k) for i in range(n) for k in range(m)]), max_size=2 * n, unique=True)) if m else ())
    if n > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, n - 1))  # states cut.. are unreachable
        a = {(i, j) for i, j in a if i < cut or j >= cut}
        b = {(i, k) for i, k in b if i < cut}
    return StateSpacePattern(n, m, frozenset(a), frozenset(b))


@settings(max_examples=200, deadline=None)
@given(kalman_systems(), st.lists(st.integers(0, 2**32), min_size=1, max_size=3), st.sampled_from((1, 2, 99)))
@example(controller_canonical(12), [0, 1], 99)  # full rank only after all n - 1 products of A
@example(gilbert_form(12), [0, 1], 99)
@example(StateSpacePattern(3, 0, frozenset({(0, 1), (1, 2), (2, 2)}), frozenset()), [0], 99)  # no inputs
def test_kalman_matches_dense_reference(ss, seeds, coeff_bound):
    # coefficient bound 1 makes rank drops at single seeds likely
    for seed in seeds:
        assert kalman_controllable(ss, [seed], coeff_bound) == reference_kalman_controllable(ss, [seed], coeff_bound)


@settings(max_examples=200, deadline=None)
@given(kalman_systems(6), st.lists(st.integers(0, 2**32), min_size=1, max_size=3), st.sampled_from((1, 2, 99)))
def test_kalman_deficiencies_are_true_pencil_gcd_degrees(ss, seeds, coeff_bound):
    # coefficient bound 1 makes rank drops, hence gcd factors, at single seeds likely
    assert_pbh(ss, seeds, coeff_bound)
