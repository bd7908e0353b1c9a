"""Exact-arithmetic ground truth for the structural verdicts.

The combinatorial analysis claims a verdict that holds for all parameter
values outside a measure-zero set.  This module checks such claims on
concrete instances: fill the pattern with random integer-coefficient
polynomials, take the gcd of all maximal minors exactly, and test whether
it is constant (empty zero set) or not.  The minors come one at a time,
until the gcd is constant, from one Laplace expansion whose memo they all
share (Gentleman and Johnson 1976).  A single random integer point almost
surely avoids any fixed degeneracy variety, so one constant-gcd witness
settles "generically empty"; a claim of "generically nonempty" is accepted
only when every seed fails.

Everything is arbitrary-precision integer arithmetic: the polynomial gcd
uses primitive pseudo-remainders and the Kalman rank fraction-free
elimination, so no rational or float appears.  Both checks are exhaustive
and guarded: the zero-set test at min(p, v) <= ZERO_SET_MAX_DIM, the
Kalman test at n <= KALMAN_MAX_STATES; past a guard they raise
GuardLimitError.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .bigraph import build_graph, term_rank
from .errors import GuardLimitError
from .patterns import PolyPattern, StateSpacePattern

__all__ = [
    "ExactPoly",
    "ExactMatrix",
    "poly_gcd",
    "instantiate",
    "minor_gcd",
    "zero_set_empty",
    "zero_set_gcd_degrees",
    "kalman_controllable",
]

DEFAULT_COEFF_BOUND = 99
ZERO_SET_MAX_DIM = 6
KALMAN_MAX_STATES = 12


class ExactPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients.

    Coefficients ascend by degree; trailing zeros are stripped, so the
    leading coefficient is nonzero unless the polynomial is zero (empty
    coefficient tuple).  Values are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> "ExactPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "ExactPoly":
        return cls((0,) * degree + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return ExactPoly(-c for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ExactPoly(other * c for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return ExactPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ExactPoly(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "ExactPoly":
        """Multiply by s**k."""
        if self.is_zero:
            return self
        return ExactPoly((0,) * k + self.coeffs)

    def content(self) -> int:
        if self.is_zero:
            return 0
        g = 0
        for c in self.coeffs:
            g = _gcd_int(g, c)
        return g

    def primitive_part(self) -> "ExactPoly":
        """Divide out the integer content; sign of the leading coefficient is kept."""
        if self.is_zero:
            return self
        g = self.content()
        return ExactPoly(c // g for c in self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                body = f"{mag}s" if d == 1 else f"{mag}s^{d}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self):
        return f"ExactPoly({list(self.coeffs)})"


def _gcd_int(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _pseudo_rem(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """Integer-coefficient remainder of lc(g)^k * f by g."""
    lead = g.lead
    r = f
    while not r.is_zero and r.degree >= g.degree:
        shift = r.degree - g.degree
        r = r * lead - g.shifted(shift) * r.lead
    return r


def _sign_normalized(p: ExactPoly) -> ExactPoly:
    if not p.is_zero and p.lead < 0:
        return -p
    return p


def poly_gcd(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """Gcd over the rationals, returned as its positive primitive integer representative.

    Uses the primitive-remainder Euclidean sequence: pseudo-divide, strip
    the integer content each step, so coefficients never leave the integers
    and never blow up through rational arithmetic.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero:
        return _sign_normalized(b.primitive_part())
    if b.is_zero:
        return _sign_normalized(a.primitive_part())
    f, g = a.primitive_part(), b.primitive_part()
    if f.degree < g.degree:
        f, g = g, f
    while not g.is_zero:
        f, g = g, _pseudo_rem(f, g).primitive_part()
    return _sign_normalized(f)


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix of exact polynomials."""

    rows: int
    cols: int
    grid: tuple[tuple[ExactPoly, ...], ...]

    def __post_init__(self):
        if len(self.grid) != self.rows or any(len(row) != self.cols for row in self.grid):
            raise ValueError("grid shape does not match declared dimensions")

    def entry(self, i: int, j: int) -> ExactPoly:
        return self.grid[i][j]


def _nonzero_int(rng: random.Random, bound: int) -> int:
    return rng.choice((1, -1)) * rng.randint(1, bound)


def instantiate(
    pattern: PolyPattern,
    seed: int,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
    strict_monomials: frozenset[tuple[int, int]] = frozenset(),
) -> ExactMatrix:
    """Fill a pattern with random integer-coefficient polynomials.

    A degree-d entry gets all d+1 coefficients drawn uniformly from the
    nonzero integers in [-coeff_bound, coeff_bound]; absent entries are
    zero.  The positions listed in ``strict_monomials`` are forced to the
    exact monomial s**d instead (coefficient 1, all lower terms zero), which
    reproduces the true [sI - A  B] entries where the state matrix diagonal
    vanishes; an empty set is the generic convention.
    """
    rng = random.Random(seed)
    zero = ExactPoly()
    grid = [[zero] * pattern.cols for _ in range(pattern.rows)]
    for i, j, d in pattern.sorted_entries():
        if (i, j) in strict_monomials:
            grid[i][j] = ExactPoly.monomial(d)
        else:
            grid[i][j] = ExactPoly(_nonzero_int(rng, coeff_bound) for _ in range(d + 1))
    return ExactMatrix(pattern.rows, pattern.cols, tuple(tuple(row) for row in grid))


def _laplace(grid, memo: dict[int, ExactPoly], rows: int, cols: int, shift: int) -> ExactPoly:
    """Determinant of ``grid`` on the row and column bitmasks (equal popcounts).

    Expands along the lowest remaining row.  ``memo``, keyed on ``rows << shift | cols``
    and holding 0 -> 1 for the empty minor, may be shared by every minor of ``grid``.
    """
    key = rows << shift | cols
    cached = memo.get(key)
    if cached is not None:
        return cached
    low = rows & -rows
    row = grid[low.bit_length() - 1]
    rest = rows ^ low
    total: list[int] = []  # coefficients, summed in place
    sign = 1
    left = cols
    while left:
        bit = left & -left
        left ^= bit
        e = row[bit.bit_length() - 1].coeffs
        if e:
            sub = _laplace(grid, memo, rest, cols ^ bit, shift).coeffs if rest else (1,)
            if len(total) < len(e) + len(sub) - 1:
                total.extend([0] * (len(e) + len(sub) - 1 - len(total)))
            for i, a in enumerate(e):
                a *= sign
                for j, b in enumerate(sub, i):
                    total[j] += a * b
        sign = -sign
    det = memo[key] = ExactPoly(total)
    return det


def minor_gcd(matrix: ExactMatrix, size: int) -> ExactPoly | None:
    """Gcd of all size-by-size minor determinants; None if every minor vanishes.

    A tall matrix is transposed first, which keeps every minor.  Minors
    are taken one at a time in lexicographic order, all through one
    shared Laplace memo, and the scan stops as soon as the gcd is
    constant.  The result is the positive primitive representative,
    which does not depend on that order.
    """
    n_rows, n_cols = sorted((matrix.rows, matrix.cols))
    grid = matrix.grid if matrix.rows <= matrix.cols else tuple(zip(*matrix.grid))
    memo = {0: ExactPoly.constant(1)}
    acc: ExactPoly | None = None
    for rows in combinations([1 << i for i in range(n_rows)], size):
        for cols in combinations([1 << j for j in range(n_cols)], size):
            d = _laplace(grid, memo, sum(rows), sum(cols), n_cols)
            if d.is_zero:
                continue
            acc = _sign_normalized(d.primitive_part()) if acc is None else poly_gcd(acc, d)
            if acc.degree == 0:
                return acc
    return acc


def _seed_gcd_degrees(pattern: PolyPattern, seeds, coeff_bound, strict_monomials) -> Iterator[int]:
    """Check the arguments, then lazily yield each seed's maximal-minor gcd degree (-1: every minor vanishes)."""
    rank = term_rank(build_graph(pattern))
    if rank == 0:
        raise ValueError("pattern has term rank 0; zero-set test undefined")
    if min(pattern.rows, pattern.cols) > ZERO_SET_MAX_DIM:
        raise GuardLimitError(
            f"minor enumeration guarded at dimension {ZERO_SET_MAX_DIM}, pattern is {pattern.rows}x{pattern.cols}"
        )
    for seed in seeds:
        g = minor_gcd(instantiate(pattern, seed, coeff_bound, strict_monomials), rank)
        yield -1 if g is None else g.degree


def zero_set_empty(
    pattern: PolyPattern,
    seeds,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
    strict_monomials: frozenset[tuple[int, int]] = frozenset(),
) -> bool:
    """True iff some seed instantiates the pattern with a constant maximal-minor gcd.

    A constant gcd at one integer point certifies the generic answer: a
    pattern whose minors generically share a root cannot produce a constant
    gcd anywhere.  All seeds failing (each gcd nonconstant, or all minors
    vanishing) reports a generically nonempty zero set.  Stops at the first
    certifying seed.
    """
    return 0 in _seed_gcd_degrees(pattern, seeds, coeff_bound, strict_monomials)


def zero_set_gcd_degrees(
    pattern: PolyPattern,
    seeds,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
    strict_monomials: frozenset[tuple[int, int]] = frozenset(),
) -> list[int]:
    """Per-seed gcd degree of all maximal minors; -1 when every minor vanishes."""
    return list(_seed_gcd_degrees(pattern, seeds, coeff_bound, strict_monomials))


def _rank_exact(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix by fraction-free (Bareiss 1968) elimination.

    Every entry after a step is a minor of the input, so each division is exact.
    """
    m = [list(row) for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, n_rows):
            f = m[r][col]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank


def kalman_controllable(
    ss: StateSpacePattern,
    seeds,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
) -> bool:
    """Classical cross-check: rank of [B, AB, ..., A^(n-1) B] over Q by fraction-free elimination.

    A and B get random nonzero integers at the pattern positions and exact
    zeros elsewhere; full rank n at any seed certifies structural
    controllability of the first-order system.
    """
    if ss.n > KALMAN_MAX_STATES:
        raise GuardLimitError(f"controllability-matrix test guarded at {KALMAN_MAX_STATES} states, got {ss.n}")
    for seed in seeds:
        rng = random.Random(seed)
        a = [[0] * ss.n for _ in range(ss.n)]
        for i, j in sorted(ss.a_entries):
            a[i][j] = _nonzero_int(rng, coeff_bound)
        b = [[0] * ss.m for _ in range(ss.n)]
        for i, k in sorted(ss.b_entries):
            b[i][k] = _nonzero_int(rng, coeff_bound)

        block = b
        columns = [list(col) for col in zip(*b)] if ss.m else []
        for _ in range(ss.n - 1):
            block = [[sum(a[i][t] * block[t][k] for t in range(ss.n)) for k in range(ss.m)] for i in range(ss.n)]
            columns.extend(list(col) for col in zip(*block))
        ctrb_rows = [[col[i] for col in columns] for i in range(ss.n)]
        if _rank_exact(ctrb_rows) == ss.n:
            return True
    return False
