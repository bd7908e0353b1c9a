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

A header may ask for at most MAX_VERTICES graph vertices: p + v for a
pattern, 2n + m for the pencil [sI - A  B] of a statespace file.  The
emitters refuse what the parsers would, so every emitted text parses back.

Internally all indices are 0-based.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

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


@dataclass(frozen=True)
class PolyPattern:
    """Nonzero structure of a p-by-v polynomial matrix.

    Built from a mapping of 0-based (row, col) positions to entry degrees
    (>= 0).  ``entries`` holds them as row-major (row, col, degree) triples,
    the format of the graph's ``edges``.  A pattern compares, hashes, pickles
    and copies as a record of its three fields.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"pattern dimensions must be positive, got {self.rows}x{self.cols}")
        for (i, j), d in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry ({i},{j}) outside {self.rows}x{self.cols} pattern")
            if d < 0:
                raise ValueError(f"entry ({i},{j}) has negative degree {d}")
        object.__setattr__(self, "entries", _row_major(self.entries))

    @classmethod
    def _from_checked(cls, rows: int, cols: int, entries: dict[tuple[int, int], int]) -> PolyPattern:
        """Pattern of ``entries``, already in range with degrees >= 0; only sorts them."""
        p = cls.__new__(cls)
        object.__setattr__(p, "rows", rows)
        object.__setattr__(p, "cols", cols)
        object.__setattr__(p, "entries", _row_major(entries))
        return p


def _row_major(entries: Mapping[tuple[int, int], int]) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted([(i, j, d) for (i, j), d in entries.items()]))


@dataclass(frozen=True)
class StateSpacePattern:
    """Nonzero structure of a first-order system d/dt x = A x + B u.

    ``a_entries`` holds 0-based (i, j) positions where A is nonzero,
    ``b_entries`` 0-based (i, k) positions where B is nonzero.
    """

    n: int
    m: int
    a_entries: frozenset[tuple[int, int]] = frozenset()
    b_entries: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state count must be positive, got {self.n}")
        if self.m < 0:
            raise ValueError(f"input count must be non-negative, got {self.m}")
        object.__setattr__(self, "a_entries", frozenset(self.a_entries))
        object.__setattr__(self, "b_entries", frozenset(self.b_entries))
        for i, j in self.a_entries:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"A entry ({i},{j}) outside {self.n}x{self.n}")
        for i, k in self.b_entries:
            if not (0 <= i < self.n and 0 <= k < self.m):
                raise ValueError(f"B entry ({i},{k}) outside {self.n}x{self.m}")


def _check_vertices(what: str, vertices: int, lineno: int | None = None):
    """Refuse a pattern or pencil of more than MAX_VERTICES graph vertices; ``what`` names it in the message."""
    if vertices > MAX_VERTICES:
        raise PatternFormatError(f"{what} has {vertices} vertices, guarded at {MAX_VERTICES}", lineno)


def _header(lines: list[str], usage: str, first: str, second: str) -> tuple[int, int, int]:
    """Line number and two counts of the header, the first line that is neither blank nor a comment."""
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if tokens and tokens[0][0] != "#":
            if tokens[0] != usage.split()[0] or len(tokens) != 3:
                raise PatternFormatError(f"expected header '{usage}'", lineno)
            return lineno, _parse_int(tokens[1], first, lineno), _parse_int(tokens[2], second, lineno)
    raise PatternFormatError(f"empty input, expected '{usage}' header")


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
    lines = text.splitlines()
    header, rows, cols = _header(lines, "pattern <p> <v>", "row count", "column count")
    if rows < 1 or cols < 1:
        raise PatternFormatError(f"dimensions must be positive, got {rows} {cols}", header)
    _check_vertices(f"{rows}x{cols} pattern", rows + cols, header)

    entries: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(lines[header:], start=header + 1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] != "entry" or len(tokens) != 4:
            raise PatternFormatError("expected 'entry <i> <j> <degree>'", lineno)
        try:
            i, j, d = int(tokens[1]), int(tokens[2]), int(tokens[3])
        except ValueError:  # name the first bad token, as parsing one at a time would
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
    return PolyPattern._from_checked(rows, cols, entries)


def parse_statespace(text: str) -> StateSpacePattern:
    """Parse state-space text into a StateSpacePattern.  Same error policy as parse_pattern."""
    lines = text.splitlines()
    header, n, m = _header(lines, "statespace <n> <m>", "state count", "input count")
    if n < 1:
        raise PatternFormatError(f"state count must be positive, got {n}", header)
    if m < 0:
        raise PatternFormatError(f"input count must be non-negative, got {m}", header)
    _check_vertices(f"pencil of n={n}, m={m}", 2 * n + m, header)

    a_entries: set[tuple[int, int]] = set()
    b_entries: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines[header:], start=header + 1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        kind = tokens[0]
        if len(tokens) != 3 or kind not in ("a", "b"):
            raise PatternFormatError("expected 'a <i> <j>' or 'b <i> <k>'", lineno)
        try:
            i, j = int(tokens[1]), int(tokens[2])
        except ValueError:  # name the first bad token, as parsing one at a time would
            i = _parse_int(tokens[1], "row index", lineno)
            j = _parse_int(tokens[2], "column index" if kind == "a" else "input index", lineno)
        if kind == "a":
            if not (1 <= i <= n and 1 <= j <= n):
                raise PatternFormatError(f"A entry ({i},{j}) out of range for n={n}", lineno)
            if (i - 1, j - 1) in a_entries:
                raise PatternFormatError(f"duplicate A entry ({i},{j})", lineno)
            a_entries.add((i - 1, j - 1))
        else:
            if not (1 <= i <= n and 1 <= j <= m):
                raise PatternFormatError(f"B entry ({i},{j}) out of range for n={n}, m={m}", lineno)
            if (i - 1, j - 1) in b_entries:
                raise PatternFormatError(f"duplicate B entry ({i},{j})", lineno)
            b_entries.add((i - 1, j - 1))
    return StateSpacePattern(n, m, frozenset(a_entries), frozenset(b_entries))


def emit_pattern(pattern: PolyPattern) -> str:
    """Canonical text for a pattern: header, then entries in row-major order.

    Byte-exact deterministic; parse_pattern(emit_pattern(p)) == p, since a
    pattern past MAX_VERTICES raises PatternFormatError here as it would there.
    """
    _check_vertices(f"{pattern.rows}x{pattern.cols} pattern", pattern.rows + pattern.cols)
    out = [f"pattern {pattern.rows} {pattern.cols}"]
    for i, j, d in pattern.entries:
        out.append(f"entry {i + 1} {j + 1} {d}")
    return "\n".join(out) + "\n"


def emit_statespace(ss: StateSpacePattern) -> str:
    """Canonical text for a state-space pattern: header, sorted 'a' then 'b' lines; refused past MAX_VERTICES."""
    _check_vertices(f"pencil of n={ss.n}, m={ss.m}", 2 * ss.n + ss.m)
    out = [f"statespace {ss.n} {ss.m}"]
    for i, j in sorted(ss.a_entries):
        out.append(f"a {i + 1} {j + 1}")
    for i, k in sorted(ss.b_entries):
        out.append(f"b {i + 1} {k + 1}")
    return "\n".join(out) + "\n"
