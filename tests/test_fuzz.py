"""The parsers and the verdict commands on text drawn from a token alphabet.

Texts are lines of keywords, comment marks and integers (signed, huge, and
spelled in non-ASCII digits), split by spaces, tabs, form feeds, NEL
(U+0085), NUL and the three line endings.  A parser either returns a value
or raises PatternFormatError; a verdict command exits 0, 1 or 2 and never
raises.  Header counts are either small (at most about 200 vertices) or past
MAX_VERTICES: a header just under the guard is admitted and costs seconds.
"""

import contextlib
import io
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from structctrl.cli import main
from structctrl.errors import PatternFormatError
from structctrl.patterns import MAX_VERTICES, PolyPattern, StateSpacePattern, parse_pattern, parse_statespace

import reference_parsers

KEYWORDS = ("pattern", "statespace", "entry", "a", "b", "A", "#", "#entry", "\x00")
SEPARATORS = (" ", "  ", "\t", "\x0c", "\x85", "\x00")
LINE_ENDS = ("\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x85")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
COMMANDS = (["analyze"], ["statespace"], ["oracle"], ["oracle", "--mode", "statespace_strict"])

ARITY = {"pattern": 2, "statespace": 2, "entry": 3, "a": 2, "b": 2}
BODY = {"pattern": ("entry", "entry", "#"), "statespace": ("a", "b", "#"), "#": ("pattern", "statespace", "#")}
ODD_NUMBERS = ("+1", "-0", "1_0", "0x1", "1.0", "", "１２")


@st.composite
def numbers(draw) -> str:
    """Mostly an index that fits a small header; else signed, huge, non-ASCII or not quite an integer."""
    kind = draw(st.integers(0, 9))
    if kind < 6:
        return str(draw(st.integers(1, 6)))
    if kind == 6:
        return str(draw(st.integers(-2, 66)))
    value = draw(st.integers(MAX_VERTICES, 10**40)) * draw(st.sampled_from((1, -1)))
    if kind == 7:
        return str(value)
    if kind == 8:
        return str(draw(st.sampled_from((value, draw(st.integers(0, 66)))))).translate(ARABIC_INDIC)
    return draw(st.sampled_from(ODD_NUMBERS))


@st.composite
def texts(draw) -> str:
    """A header-like line, then up to eight lines.

    A tame text keeps to its header's keywords, single spaces, header counts
    4-8 and other numbers 1-4, so it often parses; a wild one draws from the
    whole alphabet.
    """
    wild = draw(st.booleans())
    number = numbers() if wild else st.integers(1, 4).map(str)
    header = draw(st.sampled_from(("pattern", "statespace", "#")))
    keyword = st.sampled_from(KEYWORDS if wild else BODY[header])
    lines = [header] + draw(st.lists(keyword, max_size=8))
    out = []
    for i, first in enumerate(lines):
        if first in ARITY and (i == 0 or not wild or draw(st.integers(0, 3))):
            count = number if wild or first not in ("pattern", "statespace") else st.integers(4, 8).map(str)
            line = [first] + [draw(count) for _ in range(ARITY[first])]
        else:
            line = [first] + draw(st.lists(number | st.sampled_from(KEYWORDS), max_size=4))
        for token in line:
            out += [token, draw(st.sampled_from(SEPARATORS)) if wild else " "]
        out.append(draw(st.sampled_from(LINE_ENDS)))
    return "".join(out)


def _exit_code(argv: list[str], text: str) -> int:
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)
    finally:
        sys.stdin = stdin


@settings(max_examples=200, deadline=None)
@given(texts())
def test_arbitrary_text_parses_or_is_refused(text):
    for parse, kind in ((parse_pattern, PolyPattern), (parse_statespace, StateSpacePattern)):
        try:
            assert isinstance(parse(text), kind)
        except PatternFormatError:
            pass
    for command in COMMANDS:
        assert _exit_code([*command, "-"], text) in (0, 1, 2)


RESPELLINGS = (str, "0{}".format, "+{}".format, lambda t: t.translate(ARABIC_INDIC))
ASCII_INTEGER = re.compile(r"(?<!\S)[0-9]+(?!\S)")


@settings(max_examples=300, deadline=None)
@given(texts(), st.data())
def test_parsers_match_the_reference_loops(text, data):
    """Each parser returns the record the reference loop returns, or refuses with its message and line number.

    The text is checked as drawn and with some integer tokens spelled another way, which makes
    lines that name one position in two spellings.
    """
    respelled = ASCII_INTEGER.sub(lambda token: data.draw(st.sampled_from(RESPELLINGS))(token[0]), text)
    for got, want in reference_parsers.outcomes(text) + reference_parsers.outcomes(respelled):
        assert got == want
