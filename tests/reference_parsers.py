"""Reference parse loops for the pattern and statespace text formats.

These are the loops the package's parsers ran before they kept a per-call
map of token -> int: every index and degree token goes through ``int()``,
and a pattern keys each position by its (row, col) tuple.  The package's
``parse_pattern`` and ``parse_statespace`` must return the same record, or
refuse with the same ``PatternFormatError`` message (line number included),
on every text.  Both sides share the header reader ``patterns._read``, so
the content-line rule stays one rule.

Run as a script, the module compares both parsers on the fixtures and on
``SPELLINGS``, with no test framework installed:

    PYTHONPATH=src python tests/reference_parsers.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from structctrl import patterns
from structctrl.errors import PatternFormatError
from structctrl.patterns import PolyPattern, StateSpacePattern, _check_vertices, _parse_int, _read, _record

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# One position spelled two ways is one position: the later line is a duplicate.
SPELLINGS = [
    ("pattern 2 2\nentry 1 1 0\nentry 01 1 2\n", "line 3: duplicate entry (1,1)"),
    ("pattern 2 2\nentry ١ 2 0\nentry +1 2 0\n", "line 3: duplicate entry (1,2)"),
    ("pattern 12 12\nentry 1_2 3 0\n# c\nentry 12 0_3 1\n", "line 4: duplicate entry (12,3)"),
    ("pattern 2 2\nentry 2 ２ 0\nentry 2 2 -0\n", "line 3: duplicate entry (2,2)"),
    ("statespace 2 1\na 1 2\na 01 2\n", "line 3: duplicate A entry (1,2)"),
    ("statespace 2 1\nb ١ 1\nb +1 1\n", "line 3: duplicate B entry (1,1)"),
    ("statespace 2 1\na 2 1\nb 2 1\na ٢ 01\n", "line 4: duplicate A entry (2,1)"),
    # a spelling seen before is no licence for a bad token after it
    ("pattern 2 2\nentry 1 1 0\nentry 1 1 x\n", "line 3: expected integer degree, got 'x'"),
    ("pattern 2 2\nentry 01 2 0\nentry 2 2 0\nentry 1 02 0\n", "line 4: duplicate entry (1,2)"),
    ("pattern 2 2\nentry 01 2 0\nentry 2 01 0\nentry 1 1 00\n", None),
]


def parse_pattern(text: str) -> PolyPattern:
    header, rows, cols, lines = _read(text, "pattern <p> <v>", "row count", "column count")
    if rows < 1 or cols < 1:
        raise PatternFormatError(f"dimensions must be positive, got {rows} {cols}", header)
    _check_vertices(f"{rows}x{cols} pattern", rows + cols, header)

    entries: dict[tuple[int, int], int] = {}
    for lineno, tokens in lines:
        if tokens[0] != "entry" or len(tokens) != 4:
            raise PatternFormatError("expected 'entry <i> <j> <degree>'", lineno)
        i = _parse_int(tokens[1], "row index", lineno)
        j = _parse_int(tokens[2], "column index", lineno)
        d = _parse_int(tokens[3], "degree", lineno)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise PatternFormatError(f"entry ({i},{j}) out of range for {rows}x{cols} pattern", lineno)
        if d < 0:
            raise PatternFormatError(f"negative degree {d}", lineno)
        if (i - 1, j - 1) in entries:
            raise PatternFormatError(f"duplicate entry ({i},{j})", lineno)
        entries[(i - 1, j - 1)] = d
    return _record(PolyPattern, rows, cols, tuple(sorted([(i, j, d) for (i, j), d in entries.items()])))


def parse_statespace(text: str) -> StateSpacePattern:
    header, n, m, lines = _read(text, "statespace <n> <m>", "state count", "input count")
    if n < 1:
        raise PatternFormatError(f"state count must be positive, got {n}", header)
    if m < 0:
        raise PatternFormatError(f"input count must be non-negative, got {m}", header)
    _check_vertices(f"pencil of n={n}, m={m}", 2 * n + m, header)

    a_entries: set[tuple[int, int]] = set()
    b_entries: set[tuple[int, int]] = set()
    for lineno, tokens in lines:
        kind = tokens[0]
        if len(tokens) != 3 or kind not in ("a", "b"):
            raise PatternFormatError("expected 'a <i> <j>' or 'b <i> <k>'", lineno)
        i = _parse_int(tokens[1], "row index", lineno)
        j = _parse_int(tokens[2], "column index" if kind == "a" else "input index", lineno)
        if kind == "a":
            seen, cols = a_entries, n
        else:
            seen, cols = b_entries, m
        if not (1 <= i <= n and 1 <= j <= cols):
            raise PatternFormatError(f"{kind.upper()} entry ({i},{j}) out of range for n={n}" + (f", m={m}" if kind == "b" else ""), lineno)
        if (i - 1, j - 1) in seen:
            raise PatternFormatError(f"duplicate {kind.upper()} entry ({i},{j})", lineno)
        seen.add((i - 1, j - 1))
    return _record(StateSpacePattern, n, m, frozenset(a_entries), frozenset(b_entries))


def _outcome(parse, text: str):
    """("record", the parsed record) or ("refused", message, line number)."""
    try:
        return ("record", parse(text))
    except PatternFormatError as exc:
        return ("refused", str(exc), exc.lineno)


def outcomes(text: str) -> list[tuple]:
    """(package outcome, reference outcome) of the pattern parser, then of the statespace parser, on ``text``."""
    pairs = ((patterns.parse_pattern, parse_pattern), (patterns.parse_statespace, parse_statespace))
    return [(_outcome(package, text), _outcome(reference, text)) for package, reference in pairs]


def mismatches(text: str, message: str | None = None) -> list[str]:
    """Where the package's parsers differ from the reference loops on ``text``, or a refusal other than ``message`` is given."""
    found = [f"{got!r} != reference {want!r}" for got, want in outcomes(text) if got != want]
    if message is not None and not any(got[0] == "refused" and got[1] == message for got, _ in outcomes(text)):
        found.append(f"no parser refused with {message!r}")
    return found


def main() -> int:
    cases = [(path.read_text(encoding="utf-8"), None) for path in sorted(FIXTURES.glob("*.txt"))] + SPELLINGS
    failed = 0
    for text, message in cases:
        for problem in mismatches(text, message):
            failed += 1
            print(f"{text!r}: {problem}", file=sys.stderr)
    print(f"{len(cases)} texts, {failed} mismatches, Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
