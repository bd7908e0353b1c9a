"""Pattern data model and text formats."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structctrl import (
    PatternFormatError,
    PolyPattern,
    StateSpacePattern,
    build_graph,
    emit_pattern,
    emit_statespace,
    parse_pattern,
    parse_statespace,
)
from structctrl.patterns import MAX_VERTICES

from fixture_patterns import wide_2x3


class TestParsePattern:
    def test_wide_2x3(self):
        text = "pattern 2 3\nentry 1 2 1\nentry 1 3 0\nentry 2 1 2\nentry 2 2 0\nentry 2 3 1"
        assert parse_pattern(text) == wide_2x3()

    def test_smallest_pattern(self):
        assert parse_pattern("pattern 1 1\nentry 1 1 0") == PolyPattern(1, 1, {(0, 0): 0})

    def test_duplicate_entry_rejected(self):
        with pytest.raises(PatternFormatError, match="duplicate entry"):
            parse_pattern("pattern 2 2\nentry 1 1 1\nentry 1 1 2")

    def test_out_of_range_rejected(self):
        with pytest.raises(PatternFormatError, match="out of range"):
            parse_pattern("pattern 2 2\nentry 3 1 0")

    def test_negative_degree_rejected(self):
        with pytest.raises(PatternFormatError, match="negative degree"):
            parse_pattern("pattern 2 2\nentry 1 1 -1")

    def test_error_carries_line_number(self):
        try:
            parse_pattern("pattern 2 2\n# comment\n\nentry 1 1 0\nentry 9 9 0")
        except PatternFormatError as exc:
            assert exc.lineno == 5
        else:
            pytest.fail("expected a format error")

    def test_bad_header(self):
        with pytest.raises(PatternFormatError, match="header"):
            parse_pattern("entry 1 1 0")

    def test_bad_keyword(self):
        with pytest.raises(PatternFormatError):
            parse_pattern("pattern 2 2\nedge 1 1 0")

    def test_nonpositive_dims(self):
        with pytest.raises(PatternFormatError, match="positive"):
            parse_pattern("pattern 0 3")

    def test_non_integer_token(self):
        with pytest.raises(PatternFormatError, match="expected integer"):
            parse_pattern("pattern 2 x")

    def test_empty_input(self):
        with pytest.raises(PatternFormatError, match="empty input"):
            parse_pattern("# only a comment\n")

    def test_comments_and_blanks_ignored(self):
        text = "# degrees chosen by hand\n\npattern 1 2\n# the entry\nentry 1 2 3\n"
        assert parse_pattern(text) == PolyPattern(1, 2, {(0, 1): 3})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# c\n\n  pattern 2 x\n", "line 3: expected integer column count, got 'x'"),
            ("\n#\npattern 2\n", "line 3: expected header 'pattern <p> <v>'"),
            ("pattern 0 -1\n", "line 1: dimensions must be positive, got 0 -1"),
            ("pattern 2 2\n\n#entry 9 9 9\nentry 1 1 0 0\n", "line 4: expected 'entry <i> <j> <degree>'"),
            ("pattern 2 2\nentry 1 x y\n", "line 2: expected integer column index, got 'x'"),
            ("pattern 2 2\nentry 1 1 z\n", "line 2: expected integer degree, got 'z'"),
            ("pattern 2 2\nentry 0 1 0\n", "line 2: entry (0,1) out of range for 2x2 pattern"),
            (" \t\n", "empty input, expected 'pattern <p> <v>' header"),
            # a comment takes a whole line; a '#' after an entry or header is a token
            ("pattern 2 2\nentry 1 1 0  # note\n", "line 2: expected 'entry <i> <j> <degree>'"),
            ("pattern 1 2 # x\n", "line 1: expected header 'pattern <p> <v>'"),
            ("# c\npattern 100000000 1\n", "line 2: 100000000x1 pattern has 100000001 vertices, guarded at 1000000"),
        ],
    )
    def test_error_message_and_line(self, text, message):
        with pytest.raises(PatternFormatError) as exc:
            parse_pattern(text)
        assert str(exc.value) == message

    def test_vertex_guard_boundary(self):
        assert MAX_VERTICES == 1_000_000
        assert parse_pattern("pattern 999999 1\nentry 1 1 0\n").rows == 999_999
        with pytest.raises(PatternFormatError, match="line 1: 999999x2 pattern has 1000001 vertices"):
            parse_pattern("pattern 999999 2\nentry 1 1 0\n")


class TestParseStatespace:
    def test_three_state_example(self):
        text = "statespace 3 1\na 1 2\na 2 2\na 3 2\nb 2 1"
        ss = parse_statespace(text)
        assert ss == StateSpacePattern(3, 1, frozenset({(0, 1), (1, 1), (2, 1)}), frozenset({(1, 0)}))

    def test_integrator(self):
        ss = parse_statespace("statespace 1 1\nb 1 1")
        assert ss.a_entries == frozenset()
        assert ss.b_entries == frozenset({(0, 0)})

    def test_out_of_range_a(self):
        with pytest.raises(PatternFormatError, match="out of range"):
            parse_statespace("statespace 2 1\na 1 5")

    def test_out_of_range_b(self):
        with pytest.raises(PatternFormatError, match="out of range"):
            parse_statespace("statespace 2 1\nb 1 2")

    def test_zero_inputs_allowed(self):
        ss = parse_statespace("statespace 2 0\na 1 2")
        assert ss.m == 0

    def test_duplicate_rejected(self):
        with pytest.raises(PatternFormatError, match="duplicate"):
            parse_statespace("statespace 2 1\na 1 2\na 1 2")

    def test_bad_keyword(self):
        with pytest.raises(PatternFormatError):
            parse_statespace("statespace 2 1\nc 1 1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input, expected 'statespace <n> <m>' header"),
            ("# only\n\n", "empty input, expected 'statespace <n> <m>' header"),
            ("pattern 2 1\n", "line 1: expected header 'statespace <n> <m>'"),
            ("\nstatespace 2 1 0\n", "line 2: expected header 'statespace <n> <m>'"),
            ("statespace x 1\n", "line 1: expected integer state count, got 'x'"),
            ("statespace 2 y\n", "line 1: expected integer input count, got 'y'"),
            ("# c\nstatespace 0 1\n", "line 2: state count must be positive, got 0"),
            ("statespace 2 -1\n", "line 1: input count must be non-negative, got -1"),
            ("statespace 2 1\na x 1\n", "line 2: expected integer row index, got 'x'"),
            ("statespace 2 1\na x y\n", "line 2: expected integer row index, got 'x'"),
            ("statespace 2 1\na 1 y\n", "line 2: expected integer column index, got 'y'"),
            ("statespace 2 1\nb x 1\n", "line 2: expected integer row index, got 'x'"),
            ("statespace 2 1\nb 1 y\n", "line 2: expected integer input index, got 'y'"),
            ("statespace 2 1\n# c\n\na 1 5\n", "line 4: A entry (1,5) out of range for n=2"),
            ("statespace 2 1\na 0 1\n", "line 2: A entry (0,1) out of range for n=2"),
            ("statespace 2 1\nb 3 1\n", "line 2: B entry (3,1) out of range for n=2, m=1"),
            ("statespace 2 0\nb 1 1\n", "line 2: B entry (1,1) out of range for n=2, m=0"),
            ("statespace 2 1\na 1 2\nb 1 1\na 1 2\n", "line 4: duplicate A entry (1,2)"),
            ("statespace 2 1\nb 2 1\n\nb 2 1\n", "line 4: duplicate B entry (2,1)"),
            ("statespace 2 1\na 1 2\nc 1 1\n", "line 3: expected 'a <i> <j>' or 'b <i> <k>'"),
            ("statespace 2 1\na 1\n", "line 2: expected 'a <i> <j>' or 'b <i> <k>'"),
            ("statespace 2 1\nb 1 1 1\n", "line 2: expected 'a <i> <j>' or 'b <i> <k>'"),
            ("statespace 2 1\nA 1 1\n", "line 2: expected 'a <i> <j>' or 'b <i> <k>'"),
            ("statespace 1 100000000\n", "line 1: pencil of n=1, m=100000000 has 100000002 vertices, guarded at 1000000"),
        ],
    )
    def test_error_message_and_line(self, text, message):
        with pytest.raises(PatternFormatError) as exc:
            parse_statespace(text)
        assert str(exc.value) == message

    def test_vertex_guard_boundary(self):
        # the pencil [sI - A  B] has n rows and n + m columns
        assert parse_statespace("statespace 2 999996\nb 1 1\n").m == 999_996
        with pytest.raises(PatternFormatError, match="line 1: pencil of n=2, m=999997 has 1000001 vertices"):
            parse_statespace("statespace 2 999997\nb 1 1\n")


class TestEmit:
    def test_single_entry(self):
        assert emit_pattern(PolyPattern(1, 1, {(0, 0): 0})) == "pattern 1 1\nentry 1 1 0\n"

    def test_empty_pattern(self):
        assert emit_pattern(PolyPattern(2, 2, {})) == "pattern 2 2\n"

    def test_row_major_order(self):
        text = emit_pattern(wide_2x3())
        assert text == (
            "pattern 2 3\nentry 1 2 1\nentry 1 3 0\nentry 2 1 2\nentry 2 2 0\nentry 2 3 1\n"
        )

    def test_round_trip_wide(self):
        assert parse_pattern(emit_pattern(wide_2x3())) == wide_2x3()

    def test_statespace_round_trip(self):
        ss = StateSpacePattern(3, 2, frozenset({(2, 0), (0, 1)}), frozenset({(1, 1)}))
        assert parse_statespace(emit_statespace(ss)) == ss


class TestConstructors:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            PolyPattern(0, 1, {})

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            PolyPattern(2, 2, {(2, 0): 0})

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            PolyPattern(2, 2, {(0, 0): -1})

    def test_statespace_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            StateSpacePattern(2, 1, frozenset({(0, 2)}), frozenset())
        with pytest.raises(ValueError):
            StateSpacePattern(2, 1, frozenset(), frozenset({(0, 1)}))


class TestImmutable:
    def test_entries_read_only(self):
        p = wide_2x3()
        with pytest.raises(TypeError):
            p.entries[(0, 0)] = 3
        with pytest.raises(TypeError):
            del p.entries[(0, 1)]
        assert p == wide_2x3()

    def test_entries_are_a_private_copy(self):
        given = {(0, 0): 1}
        p = PolyPattern(1, 2, given)
        given[(0, 1)] = 0
        assert p.entries == ((0, 0, 1),)

    def test_hash_follows_equality(self):
        a = PolyPattern(2, 2, {(1, 0): 0, (0, 1): 2})
        b = PolyPattern(2, 2, {(0, 1): 2, (1, 0): 0})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, PolyPattern(2, 2, {(0, 1): 1, (1, 0): 0})}) == 2

    def test_pickle_and_deepcopy_round_trip(self):
        p = wide_2x3()
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert q == p and hash(q) == hash(p)
            with pytest.raises(TypeError):
                q.entries[(0, 0)] = 1

    def test_sorted_entries_stored_once(self):
        p = wide_2x3()
        assert isinstance(p.entries, tuple) and list(p.entries) == sorted(p.entries)
        assert build_graph(p).edges is p.entries


@st.composite
def patterns(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    degrees = draw(st.lists(st.integers(0, 4), min_size=len(chosen), max_size=len(chosen)))
    return PolyPattern(rows, cols, dict(zip(chosen, degrees)))


@st.composite
def statespaces(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 3))
    a_cells = [(i, j) for i in range(n) for j in range(n)]
    b_cells = [(i, k) for i in range(n) for k in range(m)]
    a = draw(st.lists(st.sampled_from(a_cells), unique=True, max_size=len(a_cells)))
    b = draw(st.lists(st.sampled_from(b_cells), unique=True, max_size=len(b_cells))) if b_cells else []
    return StateSpacePattern(n, m, frozenset(a), frozenset(b))


@settings(max_examples=200)
@given(patterns())
def test_pattern_round_trip(pattern):
    assert parse_pattern(emit_pattern(pattern)) == pattern


@settings(max_examples=200)
@given(patterns(), patterns())
def test_pattern_hash_pickle_and_order(p, q):
    assert list(p.entries) == sorted(p.entries)
    assert pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)
    assert hash(p) == hash((p.rows, p.cols, p.entries))
    if p == q:
        assert hash(p) == hash(q)
    assert (p == q) == ((p.rows, p.cols, p.entries) == (q.rows, q.cols, q.entries))


@settings(max_examples=200)
@given(statespaces())
def test_statespace_round_trip(ss):
    assert parse_statespace(emit_statespace(ss)) == ss
