"""Command-line interface: verdict lines, exit codes, JSON schema, generators, bench."""

import json
import random
from pathlib import Path

import pytest

from structctrl import PolyPattern, cli, decision, emit_pattern, oracle, parse_pattern, parse_statespace, patterns, statespace
from structctrl.cli import _build_parser, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# States 1-5 chained from 20 inputs, state 6 unreached: the 6x26 pencil has
# C(26, 6) = 230,230 maximal minors, past the oracle's minor-count guard.
WIDE_INPUTS = "statespace 6 20\n" + "".join(f"a {i + 1} {i}\n" for i in range(1, 5)) + "".join(f"b 1 {k}\n" for k in range(1, 21))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_controllable_fixture(self, capsys):
        code, out, _ = run(capsys, "analyze", str(FIXTURES / "wide_2x3.txt"))
        assert code == 0
        assert out.splitlines()[0] == "structurally controllable"
        assert "term rank: 2" in out
        assert "redundant edges: none" in out

    def test_uncontrollable_fixture(self, capsys):
        code, out, _ = run(capsys, "analyze", str(FIXTURES / "autonomous_1x1.txt"))
        assert code == 1
        assert out.splitlines()[0] == "structurally uncontrollable"
        assert "witness: component 0, edge (1,1), weight 1" in out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("pattern 2 2\nentry 5 5 0\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "error:" in err and "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/nowhere.txt")
        assert code == 2
        assert "error:" in err

    def test_huge_header_exits_2(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("pattern 100000000 1\n")
        code, out, err = run(capsys, "analyze", str(f))
        assert (code, out) == (2, "")
        assert err == "error: line 1: 100000000x1 pattern has 100000001 vertices, guarded at 1000000\n"

    def test_empty_pattern_is_diagnostic(self, tmp_path, capsys):
        f = tmp_path / "empty.txt"
        f.write_text("pattern 2 2\n")
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 2
        assert "no entries" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "analyze", "--json", str(FIXTURES / "wide_2x3.txt"))
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["verdict", "minimal", "term_rank", "redundant_edges", "components", "witness"]
        assert obj["verdict"] == "structurally controllable"
        assert obj["minimal"] is True
        assert obj["term_rank"] == 2
        assert obj["redundant_edges"] == []
        assert obj["components"] == [{"rows": [1, 2], "cols": [1, 2, 3], "max_weight": 2}]
        assert obj["witness"] is None

    def test_json_witness(self, capsys):
        _, out, _ = run(capsys, "analyze", "--json", str(FIXTURES / "autonomous_1x1.txt"))
        obj = json.loads(out)
        assert obj["witness"] == {"component": 0, "edge": [1, 1], "weight": 1}

    def test_json_verdict_matches_plain_first_line(self, capsys):
        for fixture in ("wide_2x3.txt", "autonomous_1x1.txt"):
            _, plain, _ = run(capsys, "analyze", str(FIXTURES / fixture))
            _, as_json, _ = run(capsys, "analyze", "--json", str(FIXTURES / fixture))
            assert json.loads(as_json)["verdict"] == plain.splitlines()[0]

    def test_quiet(self, capsys):
        _, out, _ = run(capsys, "analyze", "--quiet", str(FIXTURES / "wide_2x3.txt"))
        assert out == "structurally controllable\n"

    def test_golden_stability(self, capsys):
        first = run(capsys, "analyze", "--json", str(FIXTURES / "wide_2x3.txt"))
        second = run(capsys, "analyze", "--json", str(FIXTURES / "wide_2x3.txt"))
        assert first == second

    def test_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("pattern 1 1\nentry 1 1 0\n"))
        code, out, _ = run(capsys, "analyze", "-")
        assert code == 0
        assert out.splitlines()[0] == "structurally controllable"


class TestStatespace:
    def test_relay(self, capsys):
        code, out, _ = run(capsys, "statespace", str(FIXTURES / "ss_relay.txt"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "structurally controllable"
        assert "state 1: connected" in lines
        assert "state 2: connected" in lines
        assert "state 3: connected" in lines
        assert "note:" not in out

    def test_chain(self, capsys):
        code, out, _ = run(capsys, "statespace", str(FIXTURES / "ss_chain.txt"))
        assert code == 0
        assert out.count(": connected") == 3

    def test_shared_drive_prints_two_conventions_note(self, capsys):
        code, out, _ = run(capsys, "statespace", str(FIXTURES / "ss_shared_drive.txt"))
        assert code == 0  # structural verdict: controllable
        assert out.splitlines()[0] == "structurally controllable"
        assert "note: fixed-coefficient cross-checks disagree" in out
        assert "controllability-matrix rank over random integer instances: deficient" in out
        assert "zero set empty, generic coefficients: yes" in out
        assert "zero set empty, forced-monomial diagonal: no" in out

    def test_uncontrollable_exit_code(self, tmp_path, capsys):
        f = tmp_path / "ss.txt"
        f.write_text("statespace 2 1\nb 1 1\n")
        code, out, _ = run(capsys, "statespace", str(f))
        assert code == 1
        assert "state 2: NOT connected" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "statespace", "--json", str(FIXTURES / "ss_shared_drive.txt"))
        obj = json.loads(out)
        assert obj["verdict"] == "structurally controllable"
        assert obj["state_connectivity"] == [True, True, True]
        assert obj["cross_check_disagreement"]["kalman_rank_full"] is False

    def test_reports_zero_set_disagreement_when_kalman_agrees(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "ss.txt"
        f.write_text("statespace 2 1\na 1 1\na 1 2\na 2 2\nb 2 1\n")  # full diagonal, controllable
        monkeypatch.setattr(cli, "zero_set_empty", lambda *args: False)
        code, out, _ = run(capsys, "statespace", "--json", str(f))
        assert code == 0  # the structural verdict still sets the exit code
        assert json.loads(out)["cross_check_disagreement"] == {
            "kalman_rank_full": True,
            "zero_set_empty_generic": False,
            "zero_set_empty_strict": True,  # the true pencil's answer is the Krylov rank's (PBH)
        }

    FULL_DIAGONAL = "statespace 2 1\na 1 1\na 1 2\na 2 2\nb 2 1\n"  # no zero diagonal entry, controllable
    UNEXPLAINED = "  no modeling convention explains this disagreement; it points at a fault in the oracle or the analysis."

    @pytest.mark.parametrize("patched", ["zero_set_empty", "kalman_controllable"])
    def test_full_diagonal_disagreement_blames_no_convention(self, tmp_path, capsys, monkeypatch, patched):
        f = tmp_path / "ss.txt"
        f.write_text(self.FULL_DIAGONAL)
        monkeypatch.setattr(cli, patched, lambda *args: False)
        code, out, _ = run(capsys, "statespace", str(f))
        assert code == 0
        note = out.splitlines()[out.splitlines().index("note: fixed-coefficient cross-checks disagree with the structural verdict.") :]
        assert note[-1] == self.UNEXPLAINED
        assert "convention" not in "\n".join(note[:-1])
        assert ("deficient" in note[1]) == (patched == "kalman_controllable")

    def test_generic_zero_set_disagreement_blames_no_convention(self, capsys, monkeypatch):
        # shared drive has zero diagonal entries, but a generic zero set that
        # disagrees with the verdict is no matter of conventions
        monkeypatch.setattr(cli, "zero_set_empty", lambda *args: False)
        code, out, _ = run(capsys, "statespace", str(FIXTURES / "ss_shared_drive.txt"))
        assert code == 0
        assert out.splitlines()[-1] == self.UNEXPLAINED
        assert "zero set empty, generic coefficients: no" in out

    def test_shared_drive_note_text(self, capsys):
        _, out, _ = run(capsys, "statespace", str(FIXTURES / "ss_shared_drive.txt"))
        note = out[out.index("note:") :]
        assert note == (
            "note: fixed-coefficient cross-checks disagree with the structural verdict.\n"
            "  controllability-matrix rank over random integer instances: deficient\n"
            "  zero set empty, generic coefficients: yes\n"
            "  zero set empty, forced-monomial diagonal: no\n"
            "  the structural model treats every diagonal derivative term as an arbitrary\n"
            "  degree-1 polynomial; with zero diagonal entries in the state matrix the true\n"
            "  pencil can lose rank at s = 0. see README, 'When the two conventions disagree'.\n"
        )

    def test_minor_count_guard_leaves_zero_set_out(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "ss.txt"
        f.write_text(WIDE_INPUTS)

        def no_minors(*args):
            raise AssertionError("a minor was enumerated past the guard")

        monkeypatch.setattr(oracle, "minor_gcd", no_minors)
        code, out, _ = run(capsys, "statespace", "--json", str(f))
        assert code == 1
        obj = json.loads(out)
        assert obj["state_connectivity"] == [True] * 5 + [False]
        assert obj["cross_check_disagreement"] is None
        # a disagreeing Kalman check shows which checks ran: the generic zero set
        # did not, and the forced-monomial one is the Kalman answer (PBH)
        monkeypatch.setattr(cli, "kalman_controllable", lambda *args: True)
        code, out, _ = run(capsys, "statespace", "--json", str(f))
        assert code == 1
        assert json.loads(out)["cross_check_disagreement"] == {"kalman_rank_full": True, "zero_set_empty_strict": True}

    # 7 states all driven through state 2, one input into it: past the generic
    # zero set's dimension guard, inside Kalman's
    SHARED_DRIVE_7 = "statespace 7 1\n" + "".join(f"a {i} 2\n" for i in range(1, 8)) + "b 2 1\n"

    def test_zero_set_guard_keeps_the_forced_monomial_answer(self, tmp_path, capsys):
        f = tmp_path / "ss.txt"
        f.write_text(self.SHARED_DRIVE_7)
        code, out, _ = run(capsys, "statespace", "--json", str(f))
        assert code == 0
        assert json.loads(out)["cross_check_disagreement"] == {"kalman_rank_full": False, "zero_set_empty_strict": False}
        code, out, _ = run(capsys, "statespace", str(f))
        assert code == 0
        assert out[out.index("note:") :] == (
            "note: fixed-coefficient cross-checks disagree with the structural verdict.\n"
            "  controllability-matrix rank over random integer instances: deficient\n"
            "  zero set empty, forced-monomial diagonal: no\n"
            "  the structural model treats every diagonal derivative term as an arbitrary\n"
            "  degree-1 polynomial; with zero diagonal entries in the state matrix the true\n"
            "  pencil can lose rank at s = 0. see README, 'When the two conventions disagree'.\n"
        )
        # the same answer as the true pencil's gcd degrees: 7 - Krylov rank 2
        code, out, _ = run(capsys, "oracle", "--mode", "statespace_strict", "--json", str(f))
        assert code == 1
        assert json.loads(out)["seed_gcd_degrees"] == [5] * 5

    def test_one_pencil_per_op(self, capsys, monkeypatch):
        calls = {"controllability_pencil": 0, "build_graph": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def count(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, count)

        for module in (statespace, cli):
            counting(module, "controllability_pencil")
        for module in (decision, oracle, cli):
            counting(module, "build_graph")
        code, _, _ = run(capsys, "statespace", "--json", str(FIXTURES / "ss_chain.txt"))
        assert code == 0
        # the analysis builds the one pencil and its graph; the generic zero-set
        # call builds a graph for its term rank, and the strict answer is Kalman's
        assert calls == {"controllability_pencil": 1, "build_graph": 2}

    def test_json_quiet_runs_the_cross_checks(self, capsys):
        # --quiet trims text only; the JSON report is the same with or without it
        path = str(FIXTURES / "ss_shared_drive.txt")
        _, full, _ = run(capsys, "statespace", "--json", path)
        code, quiet, _ = run(capsys, "statespace", "--json", "--quiet", path)
        assert code == 0 and quiet == full
        assert json.loads(quiet)["cross_check_disagreement"] == {
            "kalman_rank_full": False,
            "zero_set_empty_generic": True,
            "zero_set_empty_strict": False,
        }
        _, text, _ = run(capsys, "statespace", "--quiet", path)
        assert text == "structurally controllable\n"

    def test_huge_header_exits_2(self, tmp_path, capsys):
        f = tmp_path / "ss.txt"
        f.write_text("statespace 1 100000000\n")
        code, out, err = run(capsys, "statespace", str(f))
        assert (code, out) == (2, "")
        assert err == "error: line 1: pencil of n=1, m=100000000 has 100000002 vertices, guarded at 1000000\n"

    def test_rejects_pattern_file(self, capsys):
        code, _, err = run(capsys, "statespace", str(FIXTURES / "wide_2x3.txt"))
        assert code == 2
        assert "error:" in err


class TestOracle:
    def test_pattern_generic(self, capsys):
        code, out, _ = run(capsys, "oracle", str(FIXTURES / "wide_2x3.txt"))
        assert code == 0
        assert "seed 0: gcd degree 0" in out
        assert out.splitlines()[-1] == "zero set generically empty: yes"

    def test_autonomous(self, capsys):
        code, out, _ = run(capsys, "oracle", str(FIXTURES / "autonomous_1x1.txt"))
        assert code == 1
        assert out.splitlines()[-1] == "zero set generically empty: no"

    def test_statespace_strict_vs_generic(self, capsys):
        path = str(FIXTURES / "ss_shared_drive.txt")
        code_g, out_g, _ = run(capsys, "oracle", "--mode", "generic", path)
        code_s, out_s, _ = run(capsys, "oracle", "--mode", "statespace_strict", path)
        assert code_g == 0 and out_g.splitlines()[-1].endswith("yes")
        assert code_s == 1 and out_s.splitlines()[-1].endswith("no")

    def test_strict_requires_statespace(self, capsys):
        code, _, err = run(capsys, "oracle", "--mode", "statespace_strict", str(FIXTURES / "wide_2x3.txt"))
        assert code == 2
        assert "statespace" in err

    def test_seed_list(self, capsys):
        _, out, _ = run(capsys, "oracle", "--seeds", "7,9", str(FIXTURES / "wide_2x3.txt"))
        assert "seed 7:" in out and "seed 9:" in out

    def test_negative_seeds(self, capsys):
        code, out, _ = run(capsys, "oracle", "--seeds=-3,0", str(FIXTURES / "wide_2x3.txt"))
        assert code == 0
        assert "seed -3: gcd degree 0" in out and "seed 0:" in out

    def test_coefficient_guard_exits_2(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("pattern 1 1\nentry 1 1 1000000000\n")
        code, out, err = run(capsys, "oracle", str(f))
        assert (code, out) == (2, "")
        assert err == "error: instantiation guarded at 25000 coefficients, pattern draws 1000000001\n"

    def test_minor_count_guard_exits_2(self, tmp_path, capsys):
        f = tmp_path / "ss.txt"
        f.write_text(WIDE_INPUTS)
        code, out, err = run(capsys, "oracle", str(f))
        assert (code, out) == (2, "")
        assert err == "error: minor enumeration guarded at 10000 minors, pattern is 6x26 with 230230 minors of order 6\n"

    def test_euclid_guard_exits_2(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("pattern 1 2\nentry 1 1 12499\nentry 1 2 12499\n")
        code, out, err = run(capsys, "oracle", "--json", str(f))
        assert (code, out) == (2, "")
        assert err == (
            "error: gcd guarded at 2000000 coefficient products per seed, pattern is 1x2 "
            "with 2 minors of degree up to 12499 (all but one up to 12499): 156250000\n"
        )

    def test_strict_past_the_zero_set_guard_takes_the_krylov_rank(self, tmp_path, capsys):
        f = tmp_path / "ss.txt"
        f.write_text(WIDE_INPUTS)
        code, out, _ = run(capsys, "oracle", "--json", "--mode", "statespace_strict", str(f))
        assert code == 1  # state 6 is unreached: one uncontrollable mode per seed
        assert json.loads(out) == {"mode": "statespace_strict", "seed_gcd_degrees": [1, 1, 1, 1, 1], "zero_set_empty": False}

    def test_strict_guard_is_the_kalman_guard(self, tmp_path, capsys):
        f = tmp_path / "ss.txt"
        f.write_text("statespace 13 1\nb 1 1\n")
        code, out, err = run(capsys, "oracle", "--mode", "statespace_strict", str(f))
        assert (code, out) == (2, "")
        assert err == "error: controllability-matrix test guarded at 12 states, got 13\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "oracle", "--json", str(FIXTURES / "autonomous_1x1.txt"))
        obj = json.loads(out)
        assert obj == {"mode": "generic", "seed_gcd_degrees": [1, 1, 1, 1, 1], "zero_set_empty": False}

    GOLDEN = {
        ("wide_2x3.txt", "generic", 0): "seed 0: gcd degree 0\nseed 1: gcd degree 0\n"
        "seed 2: gcd degree 0\nseed 3: gcd degree 0\nseed 4: gcd degree 0\n"
        "zero set generically empty: yes\n",
        ("autonomous_1x1.txt", "generic", 1): "seed 0: gcd degree 1\nseed 1: gcd degree 1\n"
        "seed 2: gcd degree 1\nseed 3: gcd degree 1\nseed 4: gcd degree 1\n"
        "zero set generically empty: no\n",
        ("ss_shared_drive.txt", "statespace_strict", 1): "seed 0: gcd degree 1\nseed 1: gcd degree 1\n"
        "seed 2: gcd degree 1\nseed 3: gcd degree 1\nseed 4: gcd degree 1\n"
        "zero set generically empty: no\n",
    }

    @pytest.mark.parametrize("fixture,mode,expected_code", sorted(k for k in GOLDEN))
    def test_golden_outputs(self, capsys, fixture, mode, expected_code):
        code, out, _ = run(capsys, "oracle", "--mode", mode, str(FIXTURES / fixture))
        assert code == expected_code
        assert out == self.GOLDEN[(fixture, mode, expected_code)]


    # `oracle --json` output and exit code for every fixture, recorded before the
    # oracle's shared-memo expansion replaced one expansion per minor.
    GOLDEN_JSON = {
        ("autonomous_1x1.txt", "generic"): (
            1,
            '{"mode": "generic", "seed_gcd_degrees": [1, 1, 1, 1, 1], "zero_set_empty": false}\n',
        ),
        ("ss_chain.txt", "generic"): (
            0,
            '{"mode": "generic", "seed_gcd_degrees": [0, 0, 0, 0, 0], "zero_set_empty": true}\n',
        ),
        ("ss_relay.txt", "generic"): (
            0,
            '{"mode": "generic", "seed_gcd_degrees": [0, 0, 0, 0, 0], "zero_set_empty": true}\n',
        ),
        ("ss_shared_drive.txt", "generic"): (
            0,
            '{"mode": "generic", "seed_gcd_degrees": [0, 0, 0, 0, 0], "zero_set_empty": true}\n',
        ),
        ("ss_shared_drive.txt", "statespace_strict"): (
            1,
            '{"mode": "statespace_strict", "seed_gcd_degrees": [1, 1, 1, 1, 1], "zero_set_empty": false}\n',
        ),
        ("wide_2x3.txt", "generic"): (
            0,
            '{"mode": "generic", "seed_gcd_degrees": [0, 0, 0, 0, 0], "zero_set_empty": true}\n',
        ),
    }

    def test_golden_json_covers_every_fixture(self):
        assert {f for f, _ in self.GOLDEN_JSON} == {path.name for path in FIXTURES.glob("*.txt")}

    @pytest.mark.parametrize("fixture,mode", sorted(GOLDEN_JSON))
    def test_golden_json(self, capsys, fixture, mode):
        code, out, _ = run(capsys, "oracle", "--json", "--mode", mode, str(FIXTURES / fixture))
        assert (code, out) == self.GOLDEN_JSON[(fixture, mode)]


class TestGen:
    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "gen", "canonical", "--n", "3")
        assert code == 0
        assert out == "statespace 3 1\na 1 2\na 2 3\na 3 1\na 3 2\na 3 3\nb 3 1\n"

    def test_gilbert(self, capsys):
        _, out, _ = run(capsys, "gen", "gilbert", "--n", "3")
        assert out == "statespace 3 1\na 1 1\na 1 2\na 2 2\na 3 3\nb 2 1\n"

    def test_feedback(self, capsys):
        _, out, _ = run(capsys, "gen", "feedback", "--n1", "1", "--n2", "1")
        assert out == (
            "pattern 3 4\n"
            "entry 1 2 0\nentry 1 3 0\nentry 1 4 0\n"
            "entry 2 1 1\nentry 2 2 0\n"
            "entry 3 1 0\nentry 3 3 1\n"
        )

    def test_random_deterministic(self, capsys):
        args = ("gen", "random", "--rows", "4", "--cols", "6", "--density-edges", "12",
                "--max-degree", "2", "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert first.count("entry") == 12

    @pytest.mark.parametrize("rows, cols, edges, seed", [(4, 6, 12, 7), (30, 45, 200, 3), (400, 400, 1200, 400)])
    def test_random_same_pattern_as_full_cell_list(self, capsys, rows, cols, edges, seed):
        # The construction before the generator sampled cell indices: every cell listed.
        rng = random.Random(seed)
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        chosen = rng.sample(cells, edges)
        expected = PolyPattern(rows, cols, {cell: rng.randint(0, 2) for cell in chosen})
        _, out, _ = run(capsys, "gen", "random", "--rows", str(rows), "--cols", str(cols),
                        "--density-edges", str(edges), "--seed", str(seed))
        assert out == emit_pattern(expected)

    def test_random_huge_header_few_entries(self, capsys):
        code, out, _ = run(capsys, "gen", "random", "--rows", "100000", "--cols", "100000",
                           "--density-edges", "10")
        assert code == 0
        pattern = parse_pattern(out)
        assert (pattern.rows, pattern.cols, len(pattern.entries)) == (100000, 100000, 10)

    def test_random_past_the_vertex_guard_writes_nothing(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--rows", "1500000", "--cols", "1", "--density-edges", "1")
        assert (code, out) == (2, "")
        assert "1500000x1 pattern has 1500001 vertices, guarded at 1000000" in err

    def test_statespace_past_the_vertex_guard_writes_nothing(self, capsys, monkeypatch):
        # a lowered cap keeps the pencil small: canonical n has 2n + 1 vertices
        monkeypatch.setattr(patterns, "MAX_VERTICES", 100)
        code, out, err = run(capsys, "gen", "canonical", "--n", "50")
        assert (code, out) == (2, "")
        assert "pencil of n=50, m=1 has 101 vertices, guarded at 100" in err
        code, out, _ = run(capsys, "gen", "canonical", "--n", "49")
        assert code == 0
        assert parse_statespace(out).n == 49

    @pytest.mark.parametrize("kind", ["canonical", "gilbert"])
    def test_statespace_size_checked_before_the_system_is_built(self, capsys, monkeypatch, kind):
        def no_system(*args):
            raise AssertionError("a system was built past the vertex guard")

        monkeypatch.setattr(patterns, "MAX_VERTICES", 100)
        monkeypatch.setattr(statespace, "StateSpacePattern", no_system)
        code, out, err = run(capsys, "gen", kind, "--n", "50")
        assert (code, out) == (2, "")
        assert err == "error: pencil of n=50, m=1 has 101 vertices, guarded at 100\n"

    def test_random_size_checked_before_the_pattern_is_sampled(self, capsys, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("a pattern was sampled past the vertex guard")

        monkeypatch.setattr(cli, "_random_pattern", no_sampling)
        # too many edges for the shape as well: the vertex refusal comes first
        code, out, err = run(capsys, "gen", "random", "--rows", "1500000", "--cols", "1", "--density-edges", "2000000")
        assert (code, out) == (2, "")
        assert err == "error: 1500000x1 pattern has 1500001 vertices, guarded at 1000000\n"

    def test_random_too_many_edges(self, capsys):
        code, _, err = run(capsys, "gen", "random", "--rows", "2", "--cols", "2",
                           "--density-edges", "5")
        assert code == 2

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "gen", "canonical")
        assert code == 2
        assert "--n" in err

    def test_generated_files_parse_back(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "series", "--n1", "2", "--n2", "3")
        f = tmp_path / "series.txt"
        f.write_text(out)
        code, verdict_out, _ = run(capsys, "analyze", str(f))
        assert code == 0
        assert verdict_out.splitlines()[0] == "structurally controllable"


class TestBench:
    def test_small_ladder_table(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "6,8", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p\tv\tedges\treduce_s\ttotal_s\tverdict\tstatus"
        assert len(lines) == 3
        for line, p in zip(lines[1:], (6, 8)):
            cells = line.split("\t")
            assert cells[0] == str(p)
            assert cells[2] == str(3 * p)  # default edges factor
            assert cells[6] == "ok"

    def test_edges_factor(self, capsys):
        _, out, _ = run(capsys, "bench", "--sizes", "6", "--edges-factor", "4")
        assert out.splitlines()[1].split("\t")[2] == "24"

    def test_edges_factor_above_smallest_size(self, capsys):
        # rejected before any row runs, so no partial table is printed
        code, out, err = run(capsys, "bench", "--sizes", "4,2", "--edges-factor", "3")
        assert (code, out) == (2, "")
        assert err == "error: --edges-factor 3 exceeds the smallest --sizes entry 2\n"
        code, out, _ = run(capsys, "bench", "--sizes", "4,2", "--edges-factor", "2")
        assert code == 0 and out.splitlines()[2].split("\t")[2] == "4"  # a full 2x2 pattern

    def test_json(self, capsys):
        _, out, _ = run(capsys, "bench", "--sizes", "5", "--json")
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["p"] == 5 and rows[0]["edge_count"] == 15


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    BAD_OPTIONS = [
        (["statespace", "--coeff-range", "0", str(FIXTURES / "ss_chain.txt")], "--coeff-range", "must be at least 1, got 0"),
        (["oracle", "--coeff-range", "-3", str(FIXTURES / "wide_2x3.txt")], "--coeff-range", "must be at least 1, got -3"),
        (
            ["gen", "random", "--rows", "3", "--cols", "3", "--density-edges", "2", "--max-degree", "-1"],
            "--max-degree",
            "must be at least 0, got -1",
        ),
        (["bench", "--sizes", "5", "--max-degree", "-1"], "--max-degree", "must be at least 0, got -1"),
        (["bench", "--sizes", "5,x"], "--sizes", "invalid int value: 'x'"),
        (["bench", "--sizes", "0"], "--sizes", "must be at least 1, got 0"),
        (["bench", "--sizes", ""], "--sizes", "expected comma-separated integers, got ''"),
        (["bench", "--sizes", "5", "--edges-factor", "0"], "--edges-factor", "must be at least 1, got 0"),
        (["bench", "--sizes", "5", "--edges-factor", "-1"], "--edges-factor", "must be at least 1, got -1"),
        (["oracle", "--seeds", "x,y", str(FIXTURES / "wide_2x3.txt")], "--seeds", "invalid int value: 'x'"),
        (["oracle", "--seeds", "", str(FIXTURES / "wide_2x3.txt")], "--seeds", "expected comma-separated integers, got ''"),
        (["statespace", "--seeds", "x,y", str(FIXTURES / "ss_chain.txt")], "--seeds", "invalid int value: 'x'"),
        (["statespace", "--seeds", "", str(FIXTURES / "ss_chain.txt")], "--seeds", "expected comma-separated integers, got ''"),
        (["gen", "random", "--rows", "-1", "--cols", "5", "--density-edges", "0"], "--rows", "must be at least 1, got -1"),
        (["gen", "random", "--rows", "0", "--cols", "5", "--density-edges", "0"], "--rows", "must be at least 1, got 0"),
        (["gen", "random", "--rows", "3", "--cols", "0", "--density-edges", "0"], "--cols", "must be at least 1, got 0"),
        (["gen", "random", "--rows", "3", "--cols", "x", "--density-edges", "0"], "--cols", "invalid int value: 'x'"),
    ]

    # Ids name the argv and the option only, as they did before each case pinned its message.
    @pytest.mark.parametrize(
        "argv, option, message", BAD_OPTIONS, ids=[f"argv{i}-{case[1]}" for i, case in enumerate(BAD_OPTIONS)]
    )
    def test_bad_numeric_option_names_it(self, capsys, argv, option, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: {message}\n" in err
        assert "randrange" not in err and "int()" not in err


class TestSharedParser:
    """main builds its parser once per process; no call may see state left by an earlier one."""

    def lone(self, capsys, argv):
        _build_parser.cache_clear()
        return run(capsys, *argv)

    @pytest.mark.parametrize(
        "first, second",
        [
            (["analyze", "--json", str(FIXTURES / "wide_2x3.txt")], ["analyze", str(FIXTURES / "wide_2x3.txt")]),
            (
                ["statespace", "--seeds", "1", "--quiet", str(FIXTURES / "ss_shared_drive.txt")],
                ["statespace", str(FIXTURES / "ss_shared_drive.txt")],
            ),
        ],
    )
    def test_calls_match_lone_calls(self, capsys, first, second):
        expected = [self.lone(capsys, first), self.lone(capsys, second)]
        _build_parser.cache_clear()
        assert [run(capsys, *first), run(capsys, *second)] == expected
        assert _build_parser.cache_info().misses == 1

    def test_bad_usage_after_good_call(self, capsys):
        assert run(capsys, "analyze", str(FIXTURES / "wide_2x3.txt"))[0] == 0
        for argv in (["analyze"], ["statespace", "--coeff-range", "0", str(FIXTURES / "ss_chain.txt")]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert run(capsys, "analyze", "--quiet", str(FIXTURES / "wide_2x3.txt"))[1] == "structurally controllable\n"
