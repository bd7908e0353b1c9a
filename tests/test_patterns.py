"""Pattern data model and text formats."""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structctrl import (
    ExactMatrix,
    PatternFormatError,
    PolyPattern,
    StateSpacePattern,
    build_graph,
    controller_canonical,
    emit_pattern,
    emit_statespace,
    gilbert_form,
    parse_pattern,
    parse_statespace,
)
from structctrl.patterns import MAX_VERTICES

import reference_parsers
from fixture_patterns import chain_ss, relay_ss, shared_drive_ss, wide_2x3

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


class TestByteOrderMark:
    """One U+FEFF at the very start of the text is dropped; anywhere else it is an ordinary character."""

    def test_both_parsers_accept_a_leading_mark(self):
        assert parse_pattern("\ufeff" + emit_pattern(wide_2x3())) == wide_2x3()
        assert parse_statespace("\ufeff# comment\n" + emit_statespace(chain_ss())) == chain_ss()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\ufeff\ufeffpattern 1 1\nentry 1 1 0\n", "line 1: expected header 'pattern <p> <v>'"),
            ("\n\ufeffpattern 1 1\nentry 1 1 0\n", "line 2: expected header 'pattern <p> <v>'"),
            ("pattern 1 1\n\ufeffentry 1 1 0\n", "line 2: expected 'entry <i> <j> <degree>'"),
            ("\ufeff", "empty input, expected 'pattern <p> <v>' header"),
        ],
    )
    def test_a_mark_past_the_first_character_is_content(self, text, message):
        with pytest.raises(PatternFormatError) as exc:
            parse_pattern(text)
        assert str(exc.value) == message


@pytest.mark.parametrize("text, message", reference_parsers.SPELLINGS)
def test_positions_compare_by_value_as_in_the_reference_loops(text, message):
    """A position spelled two ways (``1`` and ``01``, ``١`` and ``+1``) is refused the second time, as the reference loops refuse it."""
    assert reference_parsers.mismatches(text, message) == []


def test_fixture_builders_match_their_files():
    """Each state-space builder is its namesake file; ``wide_2x3()`` has the file's positions, two of them with degree 0 for 1."""
    builders = {"ss_shared_drive.txt": shared_drive_ss, "ss_relay.txt": relay_ss, "ss_chain.txt": chain_ss}
    assert {path.name for path in FIXTURES.glob("ss_*.txt")} == set(builders)
    for name, build in builders.items():
        assert parse_statespace((FIXTURES / name).read_text(encoding="utf-8")) == build(), name
    built, read = wide_2x3(), parse_pattern((FIXTURES / "wide_2x3.txt").read_text(encoding="utf-8"))
    assert (built.rows, built.cols) == (read.rows, read.cols)
    assert [e[:2] for e in built.entries] == [e[:2] for e in read.entries]
    assert {e[:2]: (e[2], f[2]) for e, f in zip(built.entries, read.entries) if e != f} == {(0, 2): (0, 1), (1, 1): (0, 1)}


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
        with pytest.raises(ValueError, match="state count must be positive, got 0"):
            StateSpacePattern(0, 1)
        with pytest.raises(ValueError, match="input count must be non-negative, got -1"):
            StateSpacePattern(1, -1)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValueError):
            PolyPattern(2, 2, {(2, 0): 0})

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            PolyPattern(2, 2, {(0, 0): -1})

    def test_statespace_rejects_bad_entries(self):
        with pytest.raises(ValueError, match=r"^A entry \(0,2\) outside 2x2$"):
            StateSpacePattern(2, 1, frozenset({(0, 2)}), frozenset())
        with pytest.raises(ValueError, match=r"^B entry \(0,1\) outside 2x1$"):
            StateSpacePattern(2, 1, frozenset(), frozenset({(0, 1)}))


class TestRecordRules:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: PolyPattern(1, 1, {(0, 0): 1.5}), id="pattern-float-degree"),
            pytest.param(lambda: PolyPattern(1, 1, {(0, 0): True}), id="pattern-bool-degree"),
            pytest.param(lambda: PolyPattern(2, 2, [(0, 1.0, 0)]), id="pattern-float-index"),
            pytest.param(lambda: PolyPattern(1.0, 1, {}), id="pattern-float-rows"),
            pytest.param(lambda: PolyPattern(True, 1, {}), id="pattern-bool-rows"),
            pytest.param(lambda: StateSpacePattern(2.5, 1, (), {(0, 0)}), id="statespace-float-n"),
            pytest.param(lambda: StateSpacePattern(2, False), id="statespace-bool-m"),
            pytest.param(lambda: StateSpacePattern(2, 1, {(0, 1.0)}), id="statespace-float-a-index"),
            pytest.param(lambda: StateSpacePattern(2, 1, (), {(True, 0)}), id="statespace-bool-b-index"),
        ],
    )
    def test_refuses_values_that_are_not_ints(self, make):
        with pytest.raises(ValueError, match="must be .*ints"):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda: PolyPattern(1, 1, {0: 1}), "position 0 is not 2 values", id="pattern-int-position"),
            pytest.param(lambda: StateSpacePattern(2, 1, [0]), "A entry 0 is not 2 values", id="statespace-int-entry"),
            pytest.param(lambda: PolyPattern(1, 1, [(0, 0)]), r"entry \(0, 0\) is not 3 values", id="pattern-short-triple"),
            pytest.param(
                lambda: StateSpacePattern(2, 1, [(0, 0, 0)]), r"A entry \(0, 0, 0\) is not 2 values", id="statespace-long-pair"
            ),
        ],
    )
    def test_refuses_malformed_entries_by_name(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_pattern_rebuilds_from_its_own_fields(self):
        p = wide_2x3()
        assert PolyPattern(p.rows, p.cols, p.entries) == p
        assert p._replace(cols=3) == p
        wider = p._replace(cols=4)
        assert (wider.rows, wider.cols, wider.entries) == (2, 4, p.entries)
        assert PolyPattern(2, 3, [[1, 2, 0], [0, 0, 1]]).entries == ((0, 0, 1), (1, 2, 0))
        with pytest.raises(ValueError, match=r"^entry \(0,2\) outside 2x2$"):
            p._replace(cols=2)
        with pytest.raises(ValueError, match=r"^entry \(0,2\) outside 2x2$"):
            PolyPattern._make((2, 2, p.entries))
        with pytest.raises(ValueError, match=r"^duplicate entry \(0,0\)$"):
            PolyPattern(2, 3, [(0, 0, 1), (1, 1, 0), (0, 0, 2)])
        ss = gilbert_form(3)
        assert ss._replace(m=2) == StateSpacePattern(3, 2, ss.a_entries, ss.b_entries)


# One position rule for every record: the same malformed entries, each
# extended to the record's arity, and the same non-positive sizes.
RECORDS = [
    pytest.param(lambda n, entries: PolyPattern(n, n, [(*e, 0) for e in entries]), id="PolyPattern"),
    pytest.param(lambda n, entries: StateSpacePattern(n, 1, entries), id="StateSpacePattern-A"),
    pytest.param(lambda n, entries: StateSpacePattern(n, n, (), entries), id="StateSpacePattern-B"),
    pytest.param(lambda n, entries: ExactMatrix(n, n, [(*e, (1,)) for e in entries]), id="ExactMatrix"),
]


@pytest.mark.parametrize("make", RECORDS)
@pytest.mark.parametrize(
    "n, entries",
    [
        pytest.param(2, [(0, 0), (1, 1), (0, 0)], id="repeated-position"),
        pytest.param(2, [(0, 1), (2, 0)], id="row-outside"),
        pytest.param(2, [(0, -1)], id="negative-column"),
        pytest.param(2, [(0, 1.0)], id="float-index"),
        pytest.param(2, [(True, 0)], id="bool-index"),
        pytest.param(2, [(0, 0, 0)], id="one-value-too-many"),
        pytest.param(2, [(0,)], id="one-value-too-few"),
        pytest.param(0, [], id="zero-size"),
        pytest.param(-1, [], id="negative-size"),
    ],
)
def test_one_position_rule_for_every_record(make, n, entries):
    make(2, [(0, 0), (1, 1), (0, 1)])  # well-formed entries pass
    with pytest.raises(ValueError):
        make(n, entries)


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

    def test_statespace_freezes_the_sets_it_is_given(self):
        a, b = {(0, 1)}, {(1, 0)}
        made = [StateSpacePattern(2, 1, a, b), parse_statespace("statespace 2 1\na 1 2\nb 2 1\n")]
        made += [controller_canonical(3), gilbert_form(3)]
        a.add((1, 1))
        for ss in made:
            assert type(ss.a_entries) is frozenset and type(ss.b_entries) is frozenset
        assert made[0] == made[1] and len(set(made)) == 3


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


# Every break str.splitlines honours, and whitespace that str.split drops but that breaks no line.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACE = " \t\x1f\xa0"
NOT_A_BREAK = st.characters(blacklist_categories=("Cs",), blacklist_characters="".join(LINE_BREAKS))


@st.composite
def decorated(draw, text: str, bad_line: str | None = None):
    """``text`` with blank and comment lines between its lines, whitespace runs for its spaces and mixed line breaks.

    With ``bad_line``, that line is planted somewhere after the header.
    Returns the text and the planted line's 1-based number.
    """
    lines, header = [], None
    for line in text.splitlines():
        for _ in range(draw(st.integers(0, 2))):
            pad = draw(st.text(SPACE, max_size=3))
            lines.append(pad + "#" + draw(st.text(NOT_A_BREAK, max_size=6)) if draw(st.booleans()) else pad)
        header = len(lines) if header is None else header
        runs = [draw(st.text(SPACE, min_size=1, max_size=3)) for _ in line.split(" ")[1:]]
        body = "".join(token + run for token, run in zip(line.split(" "), runs + [""]))
        lines.append(draw(st.text(SPACE, max_size=2)) + body + draw(st.text(SPACE, max_size=2)))
    planted = None
    if bad_line is not None:
        planted = draw(st.integers(header + 1, len(lines)))
        lines.insert(planted, bad_line)
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in lines]
    for k in range(len(lines) - 1):
        if breaks[k] == "\r" and lines[k + 1] == "" and breaks[k + 1].startswith("\n"):
            breaks[k] = "\r\n"  # "\r" + "" + "\n" would read as one break
    if not draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks)), None if planted is None else planted + 1


@settings(max_examples=150)
@given(st.data(), patterns(), statespaces())
def test_reader_skips_blank_and_comment_lines_and_numbers_every_break(data, pattern, ss):
    cases = [(emit_pattern(pattern), parse_pattern, pattern, "edge 1 1 0"), (emit_statespace(ss), parse_statespace, ss, "c 1 1")]
    for text, parse, record, bad_line in cases:
        assert parse(data.draw(decorated(text))[0]) == record
        planted, lineno = data.draw(decorated(text, bad_line))
        with pytest.raises(PatternFormatError, match="^line [0-9]+: expected '") as exc:
            parse(planted)
        assert exc.value.lineno == lineno


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


# Ints mixed with values an emitter cannot write as ints, or writes as ones that parse back different.
MIXED = st.one_of(st.integers(-1, 4), st.booleans(), st.floats(-1, 4), st.sampled_from(["1", None, Fraction(1), Decimal(2)]))


def _all_ints(*values) -> bool:
    return all(type(v) is int for v in values)


@settings(max_examples=300)
@given(MIXED, MIXED, st.lists(st.tuples(MIXED, MIXED, MIXED), max_size=4), st.booleans())
def test_pattern_constructor_accepts_only_what_parses_back(rows, cols, triples, as_mapping):
    given_entries = {(i, j): d for i, j, d in triples} if as_mapping else triples
    try:
        p = PolyPattern(rows, cols, given_entries)
    except ValueError:
        return
    assert _all_ints(p.rows, p.cols, *[x for t in p.entries for x in t])
    assert parse_pattern(emit_pattern(p)) == p


@settings(max_examples=300)
@given(MIXED, MIXED, st.frozensets(st.tuples(MIXED, MIXED), max_size=4), st.frozensets(st.tuples(MIXED, MIXED), max_size=4))
def test_statespace_constructor_accepts_only_what_parses_back(n, m, a, b):
    try:
        ss = StateSpacePattern(n, m, a, b)
    except ValueError:
        return
    assert _all_ints(ss.n, ss.m, *[x for e in ss.a_entries | ss.b_entries for x in e])
    assert parse_statespace(emit_statespace(ss)) == ss


def assert_same_fields(made, built):
    """Equal field by field, each of the same type: the parsers' records against the constructor's."""
    for name in built._fields:
        a, b = getattr(made, name), getattr(built, name)
        assert type(a) is type(b) and a == b, name


@settings(max_examples=200)
@given(patterns(), statespaces())
def test_parsed_records_match_constructed_ones_field_by_field(pattern, ss):
    parsed = parse_pattern(emit_pattern(pattern))
    assert_same_fields(parsed, pattern)
    assert all(type(t) is tuple and _all_ints(*t) and len(t) == 3 for t in parsed.entries)
    assert_same_fields(parse_statespace(emit_statespace(ss)), ss)
