"""Command-line interface: verdict lines, exit codes, JSON schema, generators, bench."""

import contextlib
import io
import json
import os
import random
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structctrl import PolyPattern, cli, decision, emit_pattern, emit_statespace, oracle, parse_pattern, parse_statespace, patterns, statespace
from structctrl.cli import _build_parser, main

from test_patterns import decorated
from test_patterns import patterns as small_patterns
from test_patterns import statespaces

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
        assert err == "error: [Errno 2] No such file or directory: '/nonexistent/nowhere.txt'\n"
        assert run(capsys, "analyze", str(FIXTURES)) == (2, "", f"error: [Errno 21] Is a directory: '{FIXTURES}'\n")

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

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"pattern 1 1\nentry 1 1 0\n"), encoding="utf-8"))
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
        for module in (statespace, decision, oracle, cli):
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

    def test_strict_mode_reports_a_parse_error_first(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("# two rows\npattern 2 2\nentry 5 5 0\n")
        code, out, err = run(capsys, "oracle", "--mode", "statespace_strict", str(f))
        assert (code, out) == (2, "")
        assert err == "error: line 3: entry (5,5) out of range for 2x2 pattern\n"

    def test_strict_builds_no_pencil(self, capsys, monkeypatch):
        def no_pencil(ss):
            raise AssertionError("statespace_strict read a pencil")

        monkeypatch.setattr(cli, "controllability_pencil", no_pencil)
        code, out, _ = run(capsys, "oracle", "--mode", "statespace_strict", str(FIXTURES / "ss_shared_drive.txt"))
        assert (code, out) == (1, self.GOLDEN[("ss_shared_drive.txt", "statespace_strict", 1)])

    def test_seed_list(self, capsys):
        _, out, _ = run(capsys, "oracle", "--seeds", "7,9", str(FIXTURES / "wide_2x3.txt"))
        assert "seed 7:" in out and "seed 9:" in out

    def test_seed_with_every_minor_zero(self, tmp_path, capsys):
        # with coefficients +-1, seed 3 makes the full 2x2 pattern's one maximal minor vanish
        f = tmp_path / "full.txt"
        f.write_text("pattern 2 2\nentry 1 1 0\nentry 1 2 0\nentry 2 1 0\nentry 2 2 0\n")
        code, out, _ = run(capsys, "oracle", "--coeff-range", "1", "--seeds", "3", str(f))
        assert code == 1
        assert out == "seed 3: all maximal minors zero\nzero set generically empty: no\n"

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


class TestByteOrderMark:
    """A UTF-8 byte-order mark in front of a fixture changes no command's output, read from a file or from stdin."""

    @pytest.mark.parametrize("command", ["analyze", "statespace", "oracle"])
    @pytest.mark.parametrize("fixture", sorted(path.name for path in FIXTURES.glob("*.txt")))
    def test_same_output_as_the_plain_fixture(self, tmp_path, capsys, monkeypatch, command, fixture):
        marked = tmp_path / fixture
        marked.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / fixture).read_bytes())
        expected = run(capsys, command, str(FIXTURES / fixture))
        assert run(capsys, command, str(marked)) == expected
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(marked.read_bytes()), encoding="utf-8"))
        assert run(capsys, command, "-") == expected


class TestStdinEncoding:
    """Stdin is decoded as strict UTF-8, as a file is, whatever encoding the interpreter gives the stream."""

    def cli(self, tmp_path, data: bytes, *, stdin: bool):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "latin-1"}
        argv = [sys.executable, "-m", "structctrl.cli", "analyze", "-" if stdin else str(path), "--quiet"]
        proc = subprocess.run(argv, input=data if stdin else None, capture_output=True, env=env, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"\xef\xbb\xbfpattern 1 1\nentry 1 1 0\n", (0, b"structurally controllable\n", b"")),
            (b"pattern 1 1\nentry 1 1 \xff\n", (2, b"", b"error: line 2: invalid UTF-8 byte 0xff (invalid start byte)\n")),
            # lines are numbered as str.splitlines numbers them, as the parser does: CRLF is one break, NEL (U+0085) another
            (b"pattern 1 1\r\n# \xc2\x85entry 1 1 0 \xc3\n", (2, b"", b"error: line 3: invalid UTF-8 byte 0xc3 (invalid continuation byte)\n")),
        ],
    )
    def test_stdin_reads_as_the_file_does(self, tmp_path, data, expected):
        assert self.cli(tmp_path, data, stdin=False) == expected
        assert self.cli(tmp_path, data, stdin=True) == expected


class TestClosedStdout:
    """A reader that closes stdout early, as `head -1` does, changes no exit status and leaves stderr empty."""

    @staticmethod
    def cli(argv: list[str], limit: int) -> tuple[int, bytes, bytes]:
        """Exit code, the first line read and stderr of ``structctrl argv`` run in a subprocess.

        The reader takes at most ``limit`` bytes of the first line, as
        ``head -c`` would, then closes stdout.  The subprocess gets the
        default buffered stdout: under PYTHONUNBUFFERED a write that the
        closed pipe cuts short returns its partial count instead of failing.
        """
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, "-m", "structctrl.cli", *argv]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline(limit) if limit else b""
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=60), first, err

    # Each report is over 150 kB, so the writer is still blocked on the full pipe when the reader closes it.
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize(
        "ss, verdict, code",
        [
            (statespace.gilbert_form(5000), decision.UNCONTROLLABLE, 1),
            (statespace.controller_canonical(10000), decision.CONTROLLABLE, 0),
        ],
    )
    def test_verdict_keeps_its_status_after_the_first_line(self, tmp_path, ss, verdict, code, json_flag):
        path = tmp_path / "ss.txt"
        path.write_text(emit_statespace(ss), encoding="utf-8")
        first = f'{{"verdict": "{verdict}"' if json_flag else verdict + "\n"
        assert self.cli(["statespace", str(path), *json_flag], len(first)) == (code, first.encode(), b"")

    @pytest.mark.parametrize(
        "argv",
        [
            ["statespace", str(FIXTURES / "ss_chain.txt")],
            ["analyze", str(FIXTURES / "wide_2x3.txt"), "--json"],
            ["oracle", str(FIXTURES / "ss_relay.txt")],
            ["bench", "--sizes", "20"],
        ],
    )
    def test_reader_that_closes_at_once(self, argv):
        assert self.cli(argv, 0) == (0, b"", b"")

    def test_gen_exits_0(self):
        assert self.cli(["gen", "gilbert", "--n", "20000"], 100) == (0, b"statespace 20000 1\n", b"")


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

    def test_random_entries_guarded_before_sampling(self, capsys):
        # 10^11 sampled cells would exhaust memory; the refusal allocates nothing
        argv = ["gen", "random", "--rows", "500000", "--cols", "500000", "--density-edges", "100000000000"]
        assert run(capsys, *argv) == (2, "", "error: edge count 100000000000 guarded at 1000000\n")

    def test_random_too_many_edges(self, capsys):
        code, _, err = run(capsys, "gen", "random", "--rows", "2", "--cols", "2",
                           "--density-edges", "5")
        assert code == 2

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "gen", "canonical")
        assert code == 2
        assert "--n" in err
        assert run(capsys, "gen", "series", "--n1", "2") == (2, "", "error: gen series requires --n1 and --n2\n")
        assert run(capsys, "gen", "random", "--cols", "3", "--density-edges", "2") == (
            2,
            "",
            "error: gen random requires --rows, --cols and --density-edges\n",
        )

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

    @pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
    def test_timeout_must_be_positive(self, capsys, timeout):
        # refused before any row runs: a NaN budget used to mark every row a timeout
        code, out, err = run(capsys, "bench", "--sizes", "3", "--timeout", timeout)
        assert (code, out) == (2, "")
        assert err == f"error: --timeout must be a positive number of seconds, got {float(timeout)}\n"

    def test_sizes_past_the_vertex_guard_exit_2(self, capsys):
        # refused before the ladder runs, so not even the small size is printed
        expected = (2, "", "error: 600000x600000 pattern has 1200000 vertices, guarded at 1000000\n")
        assert run(capsys, "bench", "--sizes", "50,600000") == expected

    def test_entries_past_the_guard_exit_2(self, capsys):
        assert run(capsys, "bench", "--sizes", "400000") == (2, "", "error: edge count 1200000 guarded at 1000000\n")

    def test_json(self, capsys):
        _, out, _ = run(capsys, "bench", "--sizes", "5", "--json")
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["p"] == 5 and rows[0]["edge_count"] == 15
        assert list(rows[0]) == ["p", "v", "edge_count", "reduce_seconds", "total_seconds", "verdict", "status"]


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_runs_as_a_script(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["structctrl", "analyze", str(FIXTURES / "wide_2x3.txt"), "--quiet"])
        # the package import has already loaded structctrl.cli, so runpy warns before running it again
        with pytest.warns(RuntimeWarning, match="found in sys.modules"), pytest.raises(SystemExit) as exc:
            runpy.run_module("structctrl.cli", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out == "structurally controllable\n"

    def test_readme_cli_examples_run(self, capsys, monkeypatch):
        """Each `structctrl ...` line of the code block under README "CLI" runs from the repo root."""
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("structctrl ")]
        assert examples
        monkeypatch.chdir(FIXTURES.parent)
        for argv in examples:
            code, _, err = run(capsys, *argv)
            assert code in (0, 1) and err == "", argv

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


# Every option and positional of each subcommand. A new entry is a new knob:
# it lands only with an edit here and a line in CHANGES.md saying why.
OPTION_SURFACE = {
    "analyze": ["--help", "--json", "--quiet", "-h", "file"],
    "statespace": ["--coeff-range", "--help", "--json", "--quiet", "--seeds", "-h", "file"],
    "oracle": ["--coeff-range", "--help", "--json", "--mode", "--quiet", "--seeds", "-h", "file"],
    "gen": ["--cols", "--density-edges", "--help", "--max-degree", "--n", "--n1", "--n2", "--rows", "--seed", "-h", "kind"],
    "bench": ["--edges-factor", "--help", "--json", "--max-degree", "--seed", "--sizes", "--timeout", "-h"],
}


def test_option_surface_is_pinned():
    (commands,) = [action for action in _build_parser()._actions if action.choices and action.dest == "command"]
    surface = {
        name: sorted(string for action in sub._actions for string in action.option_strings or [action.dest])
        for name, sub in commands.choices.items()
    }
    assert surface == OPTION_SURFACE
    assert sorted(s for action in _build_parser()._actions for s in action.option_strings) == ["--help", "-h"]


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


def reference_report_json(report: decision.AnalysisReport) -> dict:
    """The report as one dict, in key order, 1-based: the JSON writer must print exactly ``json.dumps`` of it."""
    return {
        "verdict": report.verdict,
        "minimal": report.minimal,
        "term_rank": report.term_rank,
        "redundant_edges": [[r + 1, c + 1] for r, c in report.redundant_edges],
        "components": [
            {
                "rows": [r + 1 for r in comp.rows],
                "cols": [c + 1 for c in comp.cols],
                "max_weight": comp.max_weight,
            }
            for comp in report.components
        ],
        "witness": None
        if report.witness is None
        else {
            "component": report.witness.component,
            "edge": [report.witness.edge[0] + 1, report.witness.edge[1] + 1],
            "weight": report.witness.weight,
        },
    }


def reference_print_report(report: decision.AnalysisReport, quiet: bool = False, state_connectivity=()):
    """The text report printed one line at a time, then a ``state i`` line per state: the text writer must print exactly these lines."""
    print(report.verdict)
    if quiet:
        return
    print(f"term rank: {report.term_rank}")
    print(f"minimal: {'yes' if report.minimal else 'no'}")
    if report.redundant_edges:
        listed = " ".join(f"({r + 1},{c + 1})" for r, c in report.redundant_edges)
        print(f"redundant edges: {listed}")
    else:
        print("redundant edges: none")
    print(f"components: {len(report.components)}")
    for idx, comp in enumerate(report.components):
        rows = " ".join(str(r + 1) for r in comp.rows)
        cols = " ".join(str(c + 1) for c in comp.cols)
        print(f"  component {idx}: rows [{rows}] cols [{cols}] max weight {comp.max_weight}")
    if report.witness is not None:
        w = report.witness
        print(f"witness: component {w.component}, edge ({w.edge[0] + 1},{w.edge[1] + 1}), weight {w.weight}")
    for i, ok in enumerate(state_connectivity):
        print(f"state {i + 1}: {'connected' if ok else 'NOT connected'}")


def _printed(*args, **kwargs) -> str:
    """What ``reference_print_report`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        reference_print_report(*args, **kwargs)
    return out.getvalue()


def _stdout(argv: list[str], text: str) -> str:
    """The stdout of ``main(argv)`` with ``text`` on stdin; the exit status must be a verdict's."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) in (0, 1)
    finally:
        sys.stdin = stdin
    return out.getvalue()


def _json_output(command: str, text: str) -> str:
    return _stdout([command, "--json", "-"], text)


@st.composite
def sparse_headers(draw):
    """Up to 40x40 headers with at most six entries: most rows and columns are isolated vertices."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)), min_size=1, max_size=6, unique=True))
    return PolyPattern(rows, cols, {cell: draw(st.integers(0, 3)) for cell in cells})


@settings(max_examples=150, deadline=None)
@given(small_patterns().filter(lambda p: p.entries) | sparse_headers())
@example(PolyPattern(6, 9, {(2, 4): 1}))
@example(statespace.controllability_pencil(statespace.gilbert_form(50)))
def test_analyze_json_is_the_reference_dict_byte_for_byte(pattern):
    expected = json.dumps(reference_report_json(decision.analyze(pattern))) + "\n"
    assert _json_output("analyze", emit_pattern(pattern)) == expected


@settings(max_examples=100, deadline=None)
@given(statespaces())
@example(statespace.gilbert_form(50))
@example(statespace.controller_canonical(4))
def test_statespace_json_is_the_reference_dict_and_extra_keys_byte_for_byte(ss):
    out = _json_output("statespace", emit_statespace(ss))
    extra = {key: json.loads(out)[key] for key in ("state_connectivity", "cross_check_disagreement")}
    assert out == json.dumps(reference_report_json(statespace.analyze_statespace(ss).base) | extra) + "\n"


@settings(max_examples=150, deadline=None)
@given(small_patterns().filter(lambda p: p.entries) | sparse_headers(), st.booleans())
@example(PolyPattern(6, 9, {(2, 4): 1}), False)
@example(statespace.controllability_pencil(statespace.gilbert_form(50)), False)
def test_analyze_text_is_the_reference_print_loop(pattern, quiet):
    expected = _printed(decision.analyze(pattern), quiet)
    assert _stdout(["analyze", *(["--quiet"] if quiet else []), "-"], emit_pattern(pattern)) == expected


@settings(max_examples=100, deadline=None)
@given(statespaces())
@example(statespace.gilbert_form(50))
@example(statespace.controller_canonical(4))
def test_statespace_text_is_the_reference_print_loop(ss):
    rep = statespace.analyze_statespace(ss)
    expected = _printed(rep.base, state_connectivity=rep.state_connectivity)
    out = _stdout(["statespace", "-"], emit_statespace(ss))
    # a cross-check disagreement adds its note last; the golden strings pin its text
    assert out == expected or out.startswith(expected + "note: fixed-coefficient cross-checks disagree")


@settings(max_examples=100, deadline=None)
@given(st.data(), small_patterns().filter(lambda p: p.entries), statespaces())
def test_oracle_reads_the_header_as_the_parsers_do(data, pattern, ss):
    for text in (emit_pattern(pattern), emit_statespace(ss)):
        assert _json_output("oracle", data.draw(decorated(text))[0]) == _json_output("oracle", text)
