"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Criterion 9 duplicates rows.  In a pattern every entry is an independent
generic parameter, so a duplicated row is a new equation with the same
support: a09 checks what the pattern model promises for such a copy, split
by whether it preserves or raises the term rank.  The companion test right
after it checks the exact-arithmetic form, where a duplicated row really is
the same equation twice.
"""

import itertools
import json
import random
import time
from pathlib import Path

from structctrl import (
    CONTROLLABLE,
    PolyPattern,
    analyze,
    analyze_reduction,
    analyze_statespace,
    build_graph,
    connected_components,
    controllability_pencil,
    controller_canonical,
    instantiate,
    kalman_controllable,
    kalman_deficiencies,
    minor_gcd,
    parse_pattern,
    remove_redundant_edges,
    siso_interconnection,
    term_rank,
    zero_set_empty,
)
from structctrl.cli import main as cli_main
from structctrl.oracle import ExactMatrix

from fixture_patterns import (
    chain_ss,
    criteria_equivalent,
    forced_block,
    matchings_of_size,
    minor_determinant,
    random_pattern,
    random_statespace,
    reference_reduction,
    relay_ss,
    shared_drive_ss,
    starved_rows,
    wide_2x3,
)

REPO = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2, 3, 4)
FAMILY_SEED = 20260808


def _line(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _pattern_family(count: int = 500):
    rng = random.Random(FAMILY_SEED)
    return [random_pattern(rng, max_rows=4, max_cols=5, max_edges=12, max_degree=2) for _ in range(count)]


def test_a01_wide_2x3_matchings_rank_and_redundancy():
    start = time.perf_counter()
    pattern = wide_2x3()
    g = build_graph(pattern)
    found = {m.sorted_pairs() for m in matchings_of_size(g, 2)}
    expected = {
        ((0, 1), (1, 0)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 1)),
        ((0, 2), (1, 0)),
    }
    assert found == expected
    assert term_rank(g) == 2
    assert remove_redundant_edges(g).redundant == ()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _line(1, True, f"4 saturating matchings, term rank 2, no redundant edges ({elapsed:.3f}s)")


def test_a02_analyze_agrees_with_zero_set_oracle():
    start = time.perf_counter()
    family = _pattern_family()
    disagreements = [
        p for p in family if analyze(p).controllable != zero_set_empty(p, SEEDS)
    ]
    elapsed = time.perf_counter() - start
    assert disagreements == []
    assert elapsed < 60.0
    _line(2, True, f"500 patterns, verdict == oracle on every one ({elapsed:.1f}s)")


def test_a03_subset_criterion_equals_component_verdict():
    family = [p for p in _pattern_family() if term_rank(build_graph(p)) == p.rows]
    failures = [p for p in family if not criteria_equivalent(p)]
    assert failures == []
    _line(3, True, f"subset criterion == component verdict on {len(family)} full-row-rank patterns")


def test_a04_nonsingular_and_unimodular_against_determinant_oracle():
    rng = random.Random(404)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        p = random_pattern(rng, max_rows=n, max_cols=n)
        if p.rows != p.cols:
            continue
        checked += 1
        sel = range(p.rows)
        det_constant = any(
            minor_determinant(instantiate(p, seed), sel, sel).degree == 0 for seed in SEEDS
        )
        # the square case of the component test: full term rank and controllable iff the determinant is constant
        assert (term_rank(build_graph(p)) == p.rows and analyze(p).controllable) == det_constant
    _line(4, True, "200 square patterns, full term rank and verdict match the exact determinant")


def test_a05_three_state_examples_controllable():
    for ss in (relay_ss(), chain_ss()):
        rep = analyze_statespace(ss)
        assert rep.base.verdict == CONTROLLABLE
        assert rep.state_connectivity == (True, True, True)
    _line(5, True, "both 3-state examples controllable with every state connected")


def test_a06_connectivity_criterion_equivalence():
    rng = random.Random(606)
    for _ in range(300):
        ss = random_statespace(rng, max_n=6, max_m=2)
        rep = analyze_statespace(ss)
        assert rep.controllable == all(rep.state_connectivity)
        rg = remove_redundant_edges(build_graph(controllability_pencil(ss)))
        kept = {(r, c) for r, c, _ in rg.edges}
        assert all((i, i) in kept for i in range(ss.n))
        for comp in connected_components(rg):
            inputs = sum(1 for c in comp.cols if c >= ss.n)
            assert len(comp.cols) - len(comp.rows) == inputs
    _line(6, True, "300 systems: connectivity == verdict, derivative edges kept, column surplus == inputs")


def test_a07_interconnections_controllable_without_redundancy():
    cases = 0
    for kind in ("series", "parallel", "feedback"):
        for n1, n2 in itertools.product(range(1, 6), range(1, 6)):
            report = analyze(siso_interconnection(kind, n1, n2))
            assert report.verdict == CONTROLLABLE
            assert report.redundant_edges == ()
            cases += 1
    _line(7, True, f"{cases} interconnection cases all controllable with no redundant edges")


def test_a08_controller_canonical_family():
    for n in range(1, 11):
        ss = controller_canonical(n)
        report = analyze(controllability_pencil(ss))
        assert report.verdict == CONTROLLABLE
        assert report.redundant_edges == ()
        assert kalman_controllable(ss, SEEDS) is True
    _line(8, True, "companion forms n=1..10: no redundant edges, controllable, rank test agrees")


def _duplicate_row(p: PolyPattern, row: int) -> PolyPattern:
    entries = {(i, j): d for i, j, d in p.entries}
    entries.update({(p.rows, j): d for i, j, d in p.entries if i == row})
    return PolyPattern(p.rows + 1, p.cols, entries)


def test_a09_row_duplication_keeps_verdict_and_rank():
    """Duplicate each row of every controllable fixture and check what the
    pattern model promises for the copy.

    A duplicated row of a pattern is a new equation with the same support
    but its own generic parameters, so two cases arise:

    * Structurally redundant copy (the doubled pattern keeps term rank r).
      Its r-by-r minors include every maximal minor of the original, so
      their gcd divides the original gcd.  A controllable original (constant
      gcd) therefore stays controllable; the doubled description is
      rank-deficient, so ``minimal`` is False; the term rank is unchanged.
    * Independent copy (the term rank grows).  The copy adds a matched row,
      so the term rank is r + 1 and ``minimal`` keeps the original's value;
      the verdict may change and is checked against the exact oracle
      wherever it reaches (min(rows, cols) <= 6).

    Only controllable originals are checked: the minors argument only
    transfers a constant gcd.  An uncontrollable original can turn
    controllable under a rank-preserving copy: the 1x1 degree-1 pattern is
    uncontrollable, while its copy (2x1, two independent degree-1 entries)
    has coprime maximal minors.
    """
    fixtures = [wide_2x3(), starved_rows()]
    fixtures += [controllability_pencil(ss) for ss in (relay_ss(), chain_ss())]
    fixtures += [
        siso_interconnection(kind, n1, n2)
        for kind in ("series", "parallel", "feedback")
        for n1 in range(1, 6)
        for n2 in range(1, 6)
    ]
    fixtures += [controllability_pencil(controller_canonical(n)) for n in range(1, 11)]
    fixtures += _pattern_family()

    violations = []
    redundant = independent = oracle_checked = 0
    for p in fixtures:
        original = analyze(p)
        if not original.controllable:
            continue
        for row in range(p.rows):
            pattern = _duplicate_row(p, row)
            copied = [(j, d) for i, j, d in pattern.entries if i == p.rows]
            assert copied == [(j, d) for i, j, d in p.entries if i == row], f"row {row} of a {p.rows}x{p.cols} pattern not copied"
            doubled = analyze(pattern)
            if term_rank(build_graph(pattern)) == original.term_rank:
                redundant += 1
                ok = (doubled.verdict, doubled.minimal, doubled.term_rank) == (
                    original.verdict,
                    False,
                    original.term_rank,
                )
            else:
                independent += 1
                ok = doubled.term_rank == original.term_rank + 1 and doubled.minimal == original.minimal
                if ok and min(pattern.rows, pattern.cols) <= 6:
                    oracle_checked += 1
                    ok = doubled.controllable == zero_set_empty(pattern, SEEDS)
            if not ok:
                violations.append((p.rows, p.cols, row, doubled.verdict, doubled.minimal, doubled.term_rank))
    ok = not violations and redundant > 0
    _line(
        9,
        ok,
        f"{len(violations)} of {redundant + independent} row duplications violate the claim "
        f"({redundant} rank-preserving, {independent} rank-raising, {oracle_checked} oracle-checked)",
    )
    assert redundant > 0, "no rank-preserving duplication was checked"
    assert not violations, (
        f"{len(violations)} duplicated-row cases contradict the pattern model "
        f"(rows, cols, row, verdict, minimal, term rank); first few: {violations[:5]}"
    )


def test_a09_companion_exact_duplicate_is_rank_deficient():
    """Exact-arithmetic version of the duplicated-equation statement: repeat a
    row of the instantiated matrix literally (same coefficients).  The
    description is then genuinely rank-deficient, its rank stays at the
    original term rank, and the maximal-minor gcd is unchanged: constant
    exactly when ``analyze`` calls the pattern controllable, for the
    controllable fixtures and the uncontrollable ``forced_block`` alike.
    """
    fixtures = (
        wide_2x3(),
        controllability_pencil(relay_ss()),
        siso_interconnection("feedback", 2, 1),
        forced_block(),
    )
    for p in fixtures:
        rank = term_rank(build_graph(p))
        controllable = analyze(p).controllable
        for seed in SEEDS[:2]:
            matrix = instantiate(p, seed)
            for row in range(p.rows):
                copy = tuple((p.rows, j, coeffs) for i, j, coeffs in matrix.entries if i == row)
                doubled = ExactMatrix(p.rows + 1, p.cols, matrix.entries + copy)
                assert minor_gcd(doubled, rank + 1) is None  # every larger minor vanishes
                g_orig = minor_gcd(matrix, rank)
                g_doubled = minor_gcd(doubled, rank)
                assert g_orig is not None and g_doubled is not None
                assert len(g_orig) == len(g_doubled)
                assert (len(g_doubled) == 1) == controllable


def test_a10_shared_drive_two_conventions_study():
    ss = shared_drive_ss()
    pencil = controllability_pencil(ss)

    assert kalman_controllable(ss, SEEDS) is False
    assert 0 not in kalman_deficiencies(ss, SEEDS)  # the true pencil's zero set, by PBH
    assert zero_set_empty(pencil, SEEDS) is True
    assert analyze(pencil).verdict == CONTROLLABLE

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for token in ("ss_shared_drive", "forced-monomial", "structurally controllable", "deficient"):
        assert token in readme, f"README does not document the study (missing {token!r})"
    _line(10, True, "all four cross-checks reproduced and documented in README")


def test_a11_bench_ladder_under_budget_with_identical_verdicts(capsys):
    assert cli_main(["bench", "--sizes", "50,100,200,400", "--json"]) == 0
    ladder = json.loads(capsys.readouterr().out)

    assert [row["p"] for row in ladder] == [50, 100, 200, 400]
    for row in ladder:
        p = row["p"]
        assert row["edge_count"] == 3 * p
        assert row["total_seconds"] < 10.0
        assert row["status"] == "ok"
        # bench row p uses the seed 1_000_003 * seed + p, with the default seed 0
        gen = ["gen", "random", "--rows", str(p), "--cols", str(p), "--density-edges", str(3 * p), "--seed", str(p)]
        assert cli_main(gen) == 0
        g = build_graph(parse_pattern(capsys.readouterr().out))
        assert analyze_reduction(reference_reduction(g)).verdict == row["verdict"]
    worst = max(row["total_seconds"] for row in ladder)
    _line(11, True, f"ladder done, slowest row {worst:.2f}s, verdicts identical to the per-edge reference")
