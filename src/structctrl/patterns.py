"""Sparsity-and-degree patterns of polynomial matrices, and their text formats.

A pattern records, for a p-by-v matrix of univariate polynomials, which
entries are nonzero and the degree of each nonzero entry.  Degree 0 means
"nonzero constant"; an absent entry means "identically zero".  The two are
deliberately distinct: a constant still couples an equation to a variable.

Text formats (UTF-8, LF line endings, indices 1-based; blank lines and
whole-line comments, whose first token starts with '#', are ignored; a '#'
later in a line is an ordinary token, so it makes a wrong token count):

    pattern <p> <v>          statespace <n> <m>
    entry <i> <j> <degree>   a <i> <j>
    ...                      b <i> <k>

Index and degree tokens are read by ``int()`` (a sign, '_' between digits
and Unicode decimal digits pass), and positions compare by value, so
``entry 01 1 0`` repeats ``entry 1 1 0``.

A header may ask for at most MAX_VERTICES graph vertices: p + v for a
pattern, 2n + m for the pencil [sI - A  B] of a statespace file.  The
emitters refuse what the parsers would, so every emitted text parses back.

Internally all indices are 0-based.

Both patterns are named tuples whose constructors check every field; the
parsers, which check as they read, build them past those checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import NamedTuple

from .errors import PatternFormatError

__all__ = [
    "PolyPattern",
    "StateSpacePattern",
    "parse_pattern",
    "parse_statespace",
    "emit_pattern",
    "emit_statespace",
]

MAX_VERTICES = 1_000_000  # graph vertices one header may ask for; each costs about 0.7 KB


class _Checked:
    """Base of the records whose constructor checks its fields: ``_make``, and so ``_replace``, build through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _PolyPatternFields(NamedTuple):
    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]


class PolyPattern(_Checked, _PolyPatternFields):
    """Nonzero structure of a p-by-v polynomial matrix.

    Built from a mapping of 0-based (row, col) positions to entry degrees
    (>= 0), or from (row, col, degree) triples with no position twice; the
    positive dimensions, indices and degrees must be ints.  ``entries`` holds
    them as row-major (row, col, degree) triples, the format of the graph's
    ``edges``.  A pattern is a named tuple of its three fields: it compares
    and hashes as that tuple, so it equals a plain tuple of the same fields,
    and ``p._replace(cols=4)``, pickling and copying rebuild it through the
    checks.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries):
        if not (type(rows) is type(cols) is int and rows > 0 and cols > 0):
            raise ValueError(f"pattern dimensions must be positive ints, got {rows!r}x{cols!r}")
        if isinstance(entries, Mapping):
            triples = [(*p, d) for p, d in zip(_grid_entries(entries, 2, rows, cols, "position"), entries.values())]
        else:
            triples = _grid_entries(entries, 3, rows, cols, "entry")
        for i, j, d in triples:
            if not (type(d) is int and d >= 0):
                raise ValueError(f"entry ({i},{j}) has degree {d!r}; degrees must be ints >= 0")
        return tuple.__new__(cls, (rows, cols, tuple(sorted(triples))))


class _StateSpaceFields(NamedTuple):
    n: int
    m: int
    a_entries: frozenset[tuple[int, int]]
    b_entries: frozenset[tuple[int, int]]


class StateSpacePattern(_Checked, _StateSpaceFields):
    """Nonzero structure of a first-order system d/dt x = A x + B u.

    ``a_entries`` holds 0-based (i, j) positions where A is nonzero and
    ``b_entries`` (i, k) positions where B is nonzero, no position twice;
    both are stored as frozensets, whatever collection is given.  Counts
    and indices must be ints, n positive and m non-negative.  A named tuple
    of its four fields, checked as ``PolyPattern`` is.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, a_entries=frozenset(), b_entries=frozenset()):
        if not (type(n) is type(m) is int):
            raise ValueError(f"state and input counts must be ints, got {n!r}, {m!r}")
        if n < 1:
            raise ValueError(f"state count must be positive, got {n}")
        if m < 0:
            raise ValueError(f"input count must be non-negative, got {m}")
        a_entries = frozenset(_grid_entries(a_entries, 2, n, n, "A entry"))
        b_entries = frozenset(_grid_entries(b_entries, 2, n, m, "B entry"))
        return tuple.__new__(cls, (n, m, a_entries, b_entries))


def _grid_entries(given: Iterable, arity: int, rows: int, cols: int, what: str) -> list[tuple]:
    """Entries as ``arity``-tuples led by int (row, col) positions in the grid, each once; a ValueError names a bad one as ``what``."""
    entries: dict[tuple[int, int], tuple] = {}
    for entry in given:
        values = tuple(entry) if isinstance(entry, Iterable) else ()
        if len(values) != arity:
            raise ValueError(f"{what} {entry!r} is not {arity} values")
        i, j = values[:2]
        if not (type(i) is type(j) is int):
            raise ValueError(f"{what} {entry!r}: indices must be ints")
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"{what} ({i},{j}) outside {rows}x{cols}")
        if (i, j) in entries:
            raise ValueError(f"duplicate {what} ({i},{j})")
        entries[i, j] = values
    return list(entries.values())


def _record(cls, *fields):
    """A ``cls`` record of ``fields`` as given, past the constructor: they are checked and in stored form."""
    return tuple.__new__(cls, fields)


def _check_vertices(what: str, vertices: int, lineno: int | None = None):
    """Refuse a pattern or pencil of more than MAX_VERTICES graph vertices; ``what`` names it in the message."""
    if vertices > MAX_VERTICES:
        raise PatternFormatError(f"{what} has {vertices} vertices, guarded at {MAX_VERTICES}", lineno)


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each content line, lazily; lines are numbered as ``str.splitlines`` splits them.

    Blank and comment lines are not content.  One byte-order mark (U+FEFF) at the very start of the text is dropped.
    """
    lines = enumerate(map(str.split, text.removeprefix("\ufeff").splitlines()), 1)
    return ((n, tokens) for n, tokens in lines if tokens and tokens[0][0] != "#")


def _read(text: str, usage: str, first: str, second: str) -> tuple[int, int, int, Iterator[tuple[int, list[str]]]]:
    """The header's line number and two counts, checked, then the later content lines as ``_content_lines`` yields them."""
    lines = _content_lines(text)
    header, tokens = next(lines, (0, None))
    if not header:
        raise PatternFormatError(f"empty input, expected '{usage}' header")
    if tokens[0] != usage.split()[0] or len(tokens) != 3:
        raise PatternFormatError(f"expected header '{usage}'", header)
    return header, _parse_int(tokens[1], first, header), _parse_int(tokens[2], second, header), lines


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise PatternFormatError(f"expected integer {what}, got {token!r}", lineno) from None


def parse_pattern(text: str) -> PolyPattern:
    """Parse pattern text into a PolyPattern.

    Rejects (never repairs): missing/duplicate header, a header past
    MAX_VERTICES, unknown keywords, wrong token counts, duplicate entries,
    out-of-range indices, negative degrees.  Errors carry the offending
    line number.
    """
    header, rows, cols, lines = _read(text, "pattern <p> <v>", "row count", "column count")
    if rows < 1 or cols < 1:
        raise PatternFormatError(f"dimensions must be positive, got {rows} {cols}", header)
    _check_vertices(f"{rows}x{cols} pattern", rows + cols, header)

    ints: dict[str, int] = {}
    get = ints.get
    seen: set[int] = set()
    width = cols + 1
    triples: list[tuple[int, int, int]] = []
    for lineno, tokens in lines:
        if tokens[0] != "entry" or len(tokens) != 4:
            raise PatternFormatError("expected 'entry <i> <j> <degree>'", lineno)
        _, ti, tj, td = tokens
        try:  # a token met before is looked up, not converted again
            i = get(ti)
            if i is None:
                i = ints[ti] = int(ti)
            j = get(tj)
            if j is None:
                j = ints[tj] = int(tj)
            d = get(td)
            if d is None:
                d = ints[td] = int(td)
        except ValueError:  # name the first bad token, as parsing one at a time would
            i = _parse_int(ti, "row index", lineno)
            j = _parse_int(tj, "column index", lineno)
            d = _parse_int(td, "degree", lineno)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise PatternFormatError(f"entry ({i},{j}) out of range for {rows}x{cols} pattern", lineno)
        if d < 0:
            raise PatternFormatError(f"negative degree {d}", lineno)
        key = i * width + j  # distinct positions get distinct keys, as 1 <= j < width
        if key in seen:
            raise PatternFormatError(f"duplicate entry ({i},{j})", lineno)
        seen.add(key)
        triples.append((i - 1, j - 1, d))
    triples.sort()
    return _record(PolyPattern, rows, cols, tuple(triples))


def parse_statespace(text: str) -> StateSpacePattern:
    """Parse state-space text into a StateSpacePattern.  Same error policy as parse_pattern."""
    header, n, m, lines = _read(text, "statespace <n> <m>", "state count", "input count")
    if n < 1:
        raise PatternFormatError(f"state count must be positive, got {n}", header)
    if m < 0:
        raise PatternFormatError(f"input count must be non-negative, got {m}", header)
    _check_vertices(f"pencil of n={n}, m={m}", 2 * n + m, header)

    a_entries: set[tuple[int, int]] = set()
    b_entries: set[tuple[int, int]] = set()
    ints: dict[str, int] = {}
    get = ints.get
    for lineno, tokens in lines:
        kind = tokens[0]
        if len(tokens) != 3 or kind not in ("a", "b"):
            raise PatternFormatError("expected 'a <i> <j>' or 'b <i> <k>'", lineno)
        _, ti, tj = tokens
        try:  # a token met before is looked up, not converted again
            i = get(ti)
            if i is None:
                i = ints[ti] = int(ti)
            j = get(tj)
            if j is None:
                j = ints[tj] = int(tj)
        except ValueError:  # name the first bad token, as parsing one at a time would
            i = _parse_int(ti, "row index", lineno)
            j = _parse_int(tj, "column index" if kind == "a" else "input index", lineno)
        if kind == "a":
            seen, cols = a_entries, n
        else:
            seen, cols = b_entries, m
        if not (1 <= i <= n and 1 <= j <= cols):
            raise PatternFormatError(f"{kind.upper()} entry ({i},{j}) out of range for n={n}" + (f", m={m}" if kind == "b" else ""), lineno)
        position = (i - 1, j - 1)
        if position in seen:
            raise PatternFormatError(f"duplicate {kind.upper()} entry ({i},{j})", lineno)
        seen.add(position)
    return _record(StateSpacePattern, n, m, frozenset(a_entries), frozenset(b_entries))


def emit_pattern(pattern: PolyPattern) -> str:
    """Canonical text for a pattern: header, then entries in row-major order.

    Byte-exact deterministic; parse_pattern(emit_pattern(p)) == p, since a
    pattern past MAX_VERTICES raises PatternFormatError here as it would there.
    """
    _check_vertices(f"{pattern.rows}x{pattern.cols} pattern", pattern.rows + pattern.cols)
    out = [f"pattern {pattern.rows} {pattern.cols}"]
    out += [f"entry {i + 1} {j + 1} {d}" for i, j, d in pattern.entries]
    return "\n".join(out) + "\n"


def emit_statespace(ss: StateSpacePattern) -> str:
    """Canonical text for a state-space pattern: header, sorted 'a' then 'b' lines; refused past MAX_VERTICES."""
    _check_vertices(f"pencil of n={ss.n}, m={ss.m}", 2 * ss.n + ss.m)
    out = [f"statespace {ss.n} {ss.m}"]
    for kind, entries in (("a", ss.a_entries), ("b", ss.b_entries)):
        out += [f"{kind} {i + 1} {j + 1}" for i, j in sorted(entries)]
    return "\n".join(out) + "\n"
