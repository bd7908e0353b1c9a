"""Exact ground truth for the structural verdicts, one exact route per model.

The combinatorial analysis claims a verdict that holds for all parameter
values outside a measure-zero set.  This module checks such claims on
concrete instances.  The pattern model, the generic pencil [sI - A  B]
included, is answered by the minor gcd: fill the pattern with random
integer-coefficient polynomials, take the gcd of all maximal minors, and
test whether it is constant (empty zero set) or not.  The minors come one
at a time, until the gcd is constant, from one Laplace expansion that walks
only the nonzero entries and whose memo they all share (Gentleman and
Johnson 1976).  A single random integer point almost surely avoids any
fixed degeneracy variety, so one constant-gcd witness settles "generically
empty"; a claim of "generically nonempty" is accepted only when every seed
fails.  The true pencil, exactly s on the diagonal where A_ii = 0, is
answered by the Krylov rank: by the Popov-Belevitch-Hautus test (Hautus
1969) its maximal minors have a gcd of degree n - rank [B, AB, ...,
A^(n-1) B] at every numeric instance.

A polynomial is the tuple of its coefficients in ascending degree, with no
trailing zero; the zero polynomial is the empty tuple.  Both checks draw
integers, reduce into the field of the prime q = 2^61 - 1, and let the
degree or rank kept mod q certify the rational answer: the minor gcd runs
Euclid mod q on minors exact over Z, and the Kalman test ranks the Krylov
closure of B under A mod q.  Both checks are guarded: the zero-set test at
min(p, v) <= ZERO_SET_MAX_DIM, at most ZERO_SET_MAX_COEFFS coefficients
drawn per instance (the sum of degree + 1 over the entries, which also
bounds every minor's degree) and at most ZERO_SET_MAX_MINORS maximal
minors, the Kalman test at n <= KALMAN_MAX_STATES; past a guard they raise
GuardLimitError.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .bigraph import build_graph, term_rank
from .errors import GuardLimitError
from .patterns import PolyPattern, StateSpacePattern

__all__ = [
    "ExactMatrix",
    "instantiate",
    "minor_gcd",
    "zero_set_empty",
    "zero_set_gcd_degrees",
    "kalman_controllable",
    "kalman_deficiencies",
]

DEFAULT_COEFF_BOUND = 99
ZERO_SET_MAX_DIM = 6
ZERO_SET_MAX_MINORS = 10_000  # C(p, r) * C(v, r) maximal minors, enumerated per seed
ZERO_SET_MAX_COEFFS = 25_000  # sum of (degree + 1) over the entries: coefficients drawn per seed
KALMAN_MAX_STATES = 12
_PRIME = 2**61 - 1  # both exact checks reduce into this field


def _rem(f: list[int], g: list[int]) -> list[int]:
    """Remainder of f by g over F_q, on stripped residue lists, with one modular inverse."""
    inv = pow(g[-1], -1, _PRIME)
    tail = [c * inv % _PRIME for c in g[:-1]]  # g made monic, its leading 1 dropped
    r = f[:]
    while len(r) > len(tail):
        top = r.pop()
        if top:
            for i, c in enumerate(tail, len(r) - len(tail)):
                r[i] = (r[i] - top * c) % _PRIME
    while r and r[-1] == 0:
        r.pop()
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Monic gcd over F_q of two stripped residue lists, not both zero, by Euclid."""
    f, g = (a, b) if len(a) >= len(b) else (b, a)
    while len(g) > 1:
        f, g = g, _rem(f, g)
    if g:  # a nonzero constant divides f; dividing by it would take deg f steps
        return [1]
    inv = pow(f[-1], -1, _PRIME)
    return [c * inv % _PRIME for c in f]


@dataclass(frozen=True)
class ExactMatrix:
    """Sparse matrix of exact polynomials: the row-major ``(i, j, coeffs)`` triples of its nonzero entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __post_init__(self):
        if not all(0 <= i < self.rows and 0 <= j < self.cols for i, j, _ in self.entries):
            raise ValueError(f"entry index out of range for a {self.rows}x{self.cols} matrix")


def _nonzero_int(rng: random.Random, bound: int) -> int:
    return rng.choice((1, -1)) * rng.randint(1, bound)


def instantiate(pattern: PolyPattern, seed: int, coeff_bound: int = DEFAULT_COEFF_BOUND) -> ExactMatrix:
    """Fill a pattern with random integer-coefficient polynomials.

    Each of the pattern's sorted ``(i, j, d)`` entries becomes one triple
    ``(i, j, coeffs)``: all d+1 coefficients are drawn in turn, uniformly
    from the nonzero integers in [-coeff_bound, coeff_bound]; absent entries
    are zero and have no triple.
    """
    rng = random.Random(seed)
    entries = [(i, j, tuple(_nonzero_int(rng, coeff_bound) for _ in range(d + 1))) for i, j, d in pattern.sorted_entries()]
    return ExactMatrix(pattern.rows, pattern.cols, tuple(entries))


def _laplace(entries, memo: dict[int, list[int]], rows: int, cols: int, shift: int) -> list[int]:
    """Determinant on two bitmasks of equal popcount, as a stripped coefficient list.

    Expands along the lowest remaining row i through its nonzero ``(column
    bit, coefficients)`` pairs ``entries[i]``, skipping columns not in ``cols``;
    the cofactor sign is the parity of ``(cols & (bit - 1)).bit_count()``.
    ``memo``, keyed on ``rows << shift | cols`` and holding 0 -> [1], may be
    shared by every minor and is read before each call, so a hit costs none.
    It holds lists, not tuples: their allocations keep the collector's full
    passes running, and only those clear the tuple free lists, which would grow.
    """
    low = rows & -rows
    rest = rows ^ low
    total: list[int] = []  # coefficients, summed in place
    for bit, e in entries[low.bit_length() - 1]:
        if not cols & bit:
            continue
        sub_cols = cols ^ bit
        sub = memo.get(rest << shift | sub_cols)
        if sub is None:
            sub = _laplace(entries, memo, rest, sub_cols, shift)
        if not sub:
            continue
        if len(total) < len(e) + len(sub) - 1:
            total.extend([0] * (len(e) + len(sub) - 1 - len(total)))
        sign = -1 if (cols & (bit - 1)).bit_count() & 1 else 1
        for i, a in enumerate(e):
            a *= sign
            for j, b in enumerate(sub, i):
                total[j] += a * b
    while total and total[-1] == 0:
        total.pop()
    memo[rows << shift | cols] = total
    return total


def minor_gcd(matrix: ExactMatrix, size: int) -> tuple[int, ...] | None:
    """Monic gcd mod q of all size-by-size minors, as residues in [0, q); None if every minor vanishes.

    The triples are grouped into per-row ``(column bit, coeffs)`` lists; a
    tall matrix swaps i and j, which transposes it and keeps every minor.
    Minors come in lexicographic order through one shared Laplace memo,
    exact over Z, and are reduced mod q, skipping those that vanish.  The
    true gcd h divides every minor over Z, so once one keeps its degree mod
    q, h does too, and a constant gcd mod q ends the scan.  The degree bounds
    deg h from above, equal unless q divides a resultant of the cofactors;
    if no minor keeps its degree mod q, GuardLimitError is raised.
    """
    n_rows, n_cols = sorted((matrix.rows, matrix.cols))
    triples = matrix.entries if matrix.rows <= matrix.cols else ((j, i, c) for i, j, c in matrix.entries)
    entries = [[] for _ in range(n_rows)]
    for i, j, coeffs in triples:
        entries[i].append((1 << j, coeffs))
    memo = {0: [1]}
    acc: list[int] = []
    certified = None  # False once a minor is nonzero, True once one keeps its degree mod q
    for rows in combinations([1 << i for i in range(n_rows)], size):
        row_mask = sum(rows)
        for cols in combinations([1 << j for j in range(n_cols)], size):
            col_mask = sum(cols)
            d = memo.get(row_mask << n_cols | col_mask)
            if d is None:
                d = _laplace(entries, memo, row_mask, col_mask, n_cols)
            if d:
                certified = certified or d[-1] % _PRIME != 0
                d = [c % _PRIME for c in d]
                while d and d[-1] == 0:
                    d.pop()
                if d:
                    acc = _gcd(acc, d)
                    if len(acc) == 1 and certified:
                        return (1,)
    if certified is False:
        raise GuardLimitError("no nonzero minor keeps its degree mod 2^61 - 1; lower the coefficient bound")
    return tuple(acc) if certified else None


def _seed_gcd_degrees(pattern: PolyPattern, seeds, coeff_bound) -> Iterator[int]:
    """Check the arguments, then lazily yield each seed's maximal-minor gcd degree (-1: every minor vanishes)."""
    if not pattern.entries:  # term rank 0; checked, like the size guards, before the matching
        raise ValueError("pattern has term rank 0; zero-set test undefined")
    if min(pattern.rows, pattern.cols) > ZERO_SET_MAX_DIM:
        raise GuardLimitError(
            f"minor enumeration guarded at dimension {ZERO_SET_MAX_DIM}, pattern is {pattern.rows}x{pattern.cols}"
        )
    coeffs = sum(pattern.entries.values()) + len(pattern.entries)  # also bounds every minor's degree
    if coeffs > ZERO_SET_MAX_COEFFS:
        raise GuardLimitError(f"instantiation guarded at {ZERO_SET_MAX_COEFFS} coefficients, pattern draws {coeffs}")
    rank = term_rank(build_graph(pattern))
    minors = math.comb(pattern.rows, rank) * math.comb(pattern.cols, rank)
    if minors > ZERO_SET_MAX_MINORS:
        raise GuardLimitError(
            f"minor enumeration guarded at {ZERO_SET_MAX_MINORS} minors, "
            f"pattern is {pattern.rows}x{pattern.cols} with {minors} minors of order {rank}"
        )
    for seed in seeds:
        g = minor_gcd(instantiate(pattern, seed, coeff_bound), rank)
        yield -1 if g is None else len(g) - 1


def zero_set_empty(pattern: PolyPattern, seeds, coeff_bound: int = DEFAULT_COEFF_BOUND) -> bool:
    """True iff some seed instantiates the pattern with a constant maximal-minor gcd.

    A constant gcd at one integer point certifies the generic answer: a
    pattern whose minors generically share a root cannot produce a constant
    gcd anywhere.  All seeds failing (each gcd nonconstant, or all minors
    vanishing) reports a generically nonempty zero set.  Stops at the first
    certifying seed.
    """
    return 0 in _seed_gcd_degrees(pattern, seeds, coeff_bound)


def zero_set_gcd_degrees(pattern: PolyPattern, seeds, coeff_bound: int = DEFAULT_COEFF_BOUND) -> list[int]:
    """Per-seed gcd degree of all maximal minors; -1 when every minor vanishes."""
    return list(_seed_gcd_degrees(pattern, seeds, coeff_bound))


def _kalman_ranks(ss: StateSpacePattern, seeds, coeff_bound) -> Iterator[int]:
    """Check the guard, then lazily yield each seed's rank mod q of [B, AB, ..., A^(n-1) B].

    A and B get random nonzero integers at the pattern positions and exact
    zeros elsewhere, drawn in sorted A-entry then sorted B-entry order.  The
    column space of that matrix is the Krylov closure of B under A, the
    smallest A-invariant space holding B.  The columns of B are queued; each
    queued vector is reduced mod q against an echelon basis, and only a
    vector that raises the rank joins it and queues its image under A, until
    the rank is n or the queue runs out.
    """
    if ss.n > KALMAN_MAX_STATES:
        raise GuardLimitError(f"controllability-matrix test guarded at {KALMAN_MAX_STATES} states, got {ss.n}")
    for seed in seeds:
        rng = random.Random(seed)
        a_rows = [[] for _ in range(ss.n)]
        for i, j in sorted(ss.a_entries):
            a_rows[i].append((j, _nonzero_int(rng, coeff_bound)))
        queue = [[0] * ss.n for _ in range(ss.m)]  # the columns of B
        for i, k in sorted(ss.b_entries):
            queue[k][i] = _nonzero_int(rng, coeff_bound) % _PRIME
        basis = []  # (pivot, vector): 1 at its pivot, 0 at every earlier pivot
        for v in queue:  # the loop also visits the images appended below
            for p, b in basis:
                if c := v[p]:
                    v = [(x - c * y) % _PRIME for x, y in zip(v, b)]
            p = next((i for i, x in enumerate(v) if x), None)
            if p is None:
                continue
            inv = pow(v[p], -1, _PRIME)
            v = [x * inv % _PRIME for x in v]
            basis.append((p, v))
            if len(basis) == ss.n:
                break
            queue.append([sum(a * v[j] for j, a in row) % _PRIME for row in a_rows])
        yield len(basis)


def kalman_controllable(ss: StateSpacePattern, seeds, coeff_bound: int = DEFAULT_COEFF_BOUND) -> bool:
    """Classical cross-check: does [B, AB, ..., A^(n-1) B] reach rank n at some seed?

    Rank n mod q means a maximal minor is nonzero mod q, hence over Q:
    structural controllability is certified.  Stops at the first full-rank seed.
    """
    return ss.n in _kalman_ranks(ss, seeds, coeff_bound)


def kalman_deficiencies(ss: StateSpacePattern, seeds, coeff_bound: int = DEFAULT_COEFF_BOUND) -> list[int]:
    """Per-seed n - rank of [B, AB, ..., A^(n-1) B]: the true pencil's maximal-minor gcd degree (PBH).

    The rank mod q bounds the rank over Q from below, so, like ``minor_gcd``'s
    degree, each value bounds the true degree from above.
    """
    return [ss.n - r for r in _kalman_ranks(ss, seeds, coeff_bound)]
