"""Exact ground truth for the structural verdicts, one exact route per model.

The combinatorial analysis claims a verdict that holds for all parameter
values outside a measure-zero set.  This module checks such claims on
concrete instances.  The pattern model, the generic pencil [sI - A  B]
included, is answered by the minor gcd: fill the pattern with random
integer-coefficient polynomials, take the gcd of all maximal minors, and
test whether it is constant (empty zero set) or not.  The minors come one
at a time, until the gcd is constant, from one Laplace expansion of the
pattern that walks only the nonzero entries: it is planned once per call,
its memo shared by all the minors (Gentleman and Johnson 1976), and
replayed for each seed with every polynomial packed into one integer
(Kronecker substitution).  It skips every minor with a row or a column
that meets none of the other side: such a minor and all its sub-minors
are structurally zero.  A single random integer point almost surely
avoids any fixed degeneracy variety, so one constant-gcd witness settles
"generically empty"; a claim of "generically nonempty" is accepted only
when every seed fails.  The true pencil, exactly s on the diagonal where
A_ii = 0, is answered by the Krylov rank: by the Popov-Belevitch-Hautus
test (Hautus 1969) its maximal minors have a gcd of degree
n - rank [B, AB, ..., A^(n-1) B] at every numeric instance.

A polynomial is the tuple of its coefficients in ascending degree, with no
trailing zero; the zero polynomial is the empty tuple.  Both checks draw
integers, reduce into the field of the prime q = 2^61 - 1, and let the
degree or rank kept mod q certify the rational answer: the minor gcd runs
Euclid mod q on minors exact over Z, and the Kalman test ranks the Krylov
closure of B under A mod q.  Both checks are guarded: the zero-set test at
min(p, v) <= ZERO_SET_MAX_DIM, at most ZERO_SET_MAX_COEFFS coefficients
drawn per instance (the sum of degree + 1 over the entries, which also
bounds every minor's degree), at most ZERO_SET_MAX_MINORS maximal minors
over the rows and columns that carry an entry and at most
ZERO_SET_MAX_EUCLID coefficient products for Euclid per seed, the Kalman
test at n <= KALMAN_MAX_STATES; past a guard they raise GuardLimitError.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from itertools import combinations
from typing import NamedTuple

from .bigraph import build_graph, term_rank
from .errors import GuardLimitError, ZeroTermRankError
from .patterns import PolyPattern, StateSpacePattern, _Checked, _grid_entries, _record

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
ZERO_SET_MAX_MINORS = 10_000  # C(p', r) * C(v', r) maximal minors over the p' rows and v' columns with an entry, per seed
ZERO_SET_MAX_COEFFS = 25_000  # sum of (degree + 1) over the entries: coefficients drawn per seed
ZERO_SET_MAX_EUCLID = 2_000_000  # Euclid coefficient products per seed; 1.3 s at the edge (1x2, degree 1,413), 2-vCPU x86_64 VM
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


class _ExactMatrixFields(NamedTuple):
    rows: int
    cols: int
    entries: tuple[tuple[int, int, tuple[int, ...]], ...]


class ExactMatrix(_Checked, _ExactMatrixFields):
    """Sparse matrix of exact polynomials: the sorted, row-major ``(i, j, coeffs)`` triples of its nonzero entries.

    Dimensions are positive ints, indices ints in range with no position twice, coefficients tuples of ints.
    A named tuple of its three fields, checked as ``PolyPattern`` is.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries):
        if not (type(rows) is type(cols) is int and rows > 0 and cols > 0):
            raise ValueError(f"matrix dimensions must be positive ints, got {rows!r}x{cols!r}")
        checked = []
        for i, j, given in _grid_entries(entries, 3, rows, cols, "entry"):
            coeffs = tuple(given) if isinstance(given, Iterable) else None
            if coeffs is None or not all(type(c) is int for c in coeffs):
                raise ValueError(f"entry ({i},{j}) has coefficients {given!r}; coefficients must be ints")
            checked.append((i, j, coeffs))
        return tuple.__new__(cls, (rows, cols, tuple(sorted(checked))))


def _nonzero_ints(seed: int, bound: int):
    """A function that draws nonzero ints in [-bound, bound] from a generator seeded with ``seed``; checks the bound, once.

    Each draw is ``choice((1, -1)) * randint(1, bound)`` of ``random.Random(seed)``,
    made with that generator's own rejection loops on ``getrandbits``: 2 bits
    until they read 0 or 1 for the sign, then bound.bit_length() bits until
    they read below bound for the magnitude.  The stream is the same (Python
    3.10 to 3.13), with one Python-level call per draw in place of six.
    """
    if not (type(bound) is int and bound >= 1):
        raise ValueError(f"coefficient bound must be an int >= 1, got {bound!r}")
    bits = random.Random(seed).getrandbits
    k = bound.bit_length()

    def draw() -> int:
        sign = bits(2)
        while sign > 1:
            sign = bits(2)
        r = bits(k)
        while r >= bound:
            r = bits(k)
        return -1 - r if sign else r + 1

    return draw


def _seed_list(seeds) -> list:
    """The seeds as a list, read once so an iterator works too; an empty collection would answer without trying a seed."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must hold at least one seed, got an empty collection")
    return seeds


def instantiate(pattern: PolyPattern, seed: int, coeff_bound: int = DEFAULT_COEFF_BOUND) -> ExactMatrix:
    """Fill a pattern with random integer-coefficient polynomials.

    Each of the pattern's sorted ``(i, j, d)`` entries becomes one triple
    ``(i, j, coeffs)``: all d+1 coefficients are drawn in turn, uniformly
    from the nonzero integers in [-coeff_bound, coeff_bound]; absent entries
    are zero and have no triple.
    """
    draw = _nonzero_ints(seed, coeff_bound)
    # tuple() of a list allocates the final size; of a generator it allocates 10 slots and
    # resizes, so the interpreter's tuple free lists fill up between full collections
    entries = [(i, j, tuple([draw() for _ in range(d + 1)])) for i, j, d in pattern.entries]
    return _record(ExactMatrix, pattern.rows, pattern.cols, tuple(entries))  # ints in range by construction


def _pack(coeffs, width: int) -> int:
    """The integer f(2^width) of a coefficient sequence, summed by halves."""
    if len(coeffs) <= 1:
        return coeffs[0] if coeffs else 0
    mid = len(coeffs) // 2
    return _pack(coeffs[:mid], width) + (_pack(coeffs[mid:], width) << width * mid)


def _unpack(x: int, width: int, n: int, out: list[int]):
    """Append n signed base-2^width digits of x, low first, found by halves; all but the last lie in [-2^(w-1), 2^(w-1))."""
    if n == 1:
        out.append(x)
        return
    mid = n // 2
    bits = width * mid
    low = x & (1 << bits) - 1
    carry = low >> bits - 1
    _unpack(low - (carry << bits), width, mid, out)
    _unpack((x >> bits) + carry, width, n - mid, out)


class _Unions(dict):
    """Memo from a bitmask to the union of bits[i] over its set bits i, filled on lookup."""

    def __init__(self, bits: list[int]):
        super().__init__({0: 0})
        self.bits = bits

    def __missing__(self, mask: int) -> int:
        low = mask & -mask
        union = self[mask] = self[mask ^ low] | self.bits[low.bit_length() - 1]
        return union


class _Plan:
    """The Laplace expansion of one sparsity pattern's minors, shared by every instance of the pattern.

    The states are the (row mask, column mask) pairs the expansion reaches,
    numbered as they are completed, so a state's cofactors come before it.
    State 0 stands for every structurally zero minor and state 1 is the
    empty minor.  Every other state keeps its (signed entry index, cofactor
    state) terms: it expands along its lowest row through that row's
    entries in its columns, the sign is the parity of the columns left of
    the entry's, and an index past the last entry names the entry negated.
    Terms whose cofactor is structurally zero are left out, and a minor
    left with no terms is structurally zero.  Iterating the plan yields the
    state of each size-by-size minor that is not structurally zero, in
    lexicographic order; it plans minors only as the scan first reaches
    them, and sub-minors as a minor first needs them, so all the minors and
    all the instances share one memo (Gentleman and Johnson 1976).

    Minors that cannot be nonzero are not planned.  The scan takes its row
    sets only from the rows with an entry and a row set's column sets only
    from the columns its rows meet, and a minor with a column that meets
    none of its rows, or a row that meets none of its columns, is recorded
    as state 0 without expanding.  That row or column stays in every
    sub-minor the expansion would reach, so each of them is zero too, and
    the nonzero states keep their numbers, terms and order.  The columns a
    row mask meets and the rows a column mask meets are memoised per mask.
    """

    def __init__(self, rows: int, cols: int, entries, size: int):
        """Plan for the size-by-size minors of rows-by-cols matrices whose k-th entry sits at entries[k][:2]."""
        n_rows, n_cols = sorted((rows, cols))
        self.row_entries = [[] for _ in range(n_rows)]  # (column bit, entry index) per expansion row
        row_cols, col_rows = [0] * n_rows, [0] * n_cols  # the column bits of each row, the row bits of each column
        for k, (i, j, _) in enumerate(entries):
            i, j = (i, j) if rows <= cols else (j, i)  # a tall matrix is expanded as its transpose
            self.row_entries[i].append((1 << j, k))
            row_cols[i] |= 1 << j
            col_rows[j] |= 1 << i
        self._cols_of = _Unions(row_cols)  # row mask -> the columns its rows meet
        self._rows_of = _Unions(col_rows)  # column mask -> the rows its columns meet
        self.negated = len(entries)
        self.shift = n_cols
        self.index = {0: 1}  # rows << shift | cols -> state
        self.terms: list[tuple[tuple[int, int], ...]] = [(), ()]
        self.minors: list[int] = []
        self._scan = self._pairs(n_rows, n_cols, size)

    def _pairs(self, n_rows: int, n_cols: int, size: int) -> Iterator[tuple[int, int]]:
        """The (row mask, column mask) pairs of size-by-size minors in lexicographic order, from rows with an entry and columns they meet."""
        for rows in map(sum, combinations([1 << i for i in range(n_rows) if self.row_entries[i]], size)):
            meets = self._cols_of[rows]
            for cols in map(sum, combinations([1 << j for j in range(n_cols) if meets >> j & 1], size)):
                yield rows, cols

    def _state(self, rows: int, cols: int) -> int:
        """Plan the minor on two bitmasks of equal popcount, not yet in the index, and return its state."""
        index, shift, negated = self.index, self.shift, self.negated
        if cols & ~self._cols_of[rows] or rows & ~self._rows_of[cols]:
            index[rows << shift | cols] = 0  # a column or a row with no entry in the minor
            return 0
        low = rows & -rows
        rest = rows ^ low
        terms = []
        for bit, k in self.row_entries[low.bit_length() - 1]:
            if cols & bit:
                sub = index.get(rest << shift | cols ^ bit)
                if sub is None:
                    sub = self._state(rest, cols ^ bit)
                if sub:
                    terms.append((k + negated * ((cols & (bit - 1)).bit_count() & 1), sub))
        state = 0
        if terms:
            state = len(self.terms)
            self.terms.append(tuple(terms))
        index[rows << shift | cols] = state
        return state

    def __iter__(self) -> Iterator[int]:
        yield from self.minors
        for rows, cols in self._scan:
            state = self.index.get(rows << self.shift | cols)
            if state is None:
                state = self._state(rows, cols)
            if state:
                self.minors.append(state)
                yield state


def minor_gcd(matrix: ExactMatrix, size: int, plan: _Plan | None = None) -> tuple[int, ...] | None:
    """Monic gcd mod q of all size-by-size minors, as residues in [0, q); None if every minor vanishes.

    ``plan`` is the expansion of the matrix's own positions at this size;
    it may come from an earlier instance of the same pattern, and a fresh
    one is made without it.  Each polynomial is packed into the integer
    f(2^w) (Kronecker substitution), so a product is one integer product.
    The product of the expansion rows' coefficient l1 sums bounds every
    coefficient of every minor, and the slot width w is one bit more than
    that bound needs, so a minor unpacks exactly into signed digits.
    Minors come in lexicographic order, exact over Z, and are reduced mod
    q, skipping those that vanish.  The true gcd h divides every minor over
    Z, so once one keeps its degree mod q, h does too, and a constant gcd
    mod q ends the scan.  The degree bounds deg h from above, equal unless
    q divides a resultant of the cofactors; if no minor keeps its degree
    mod q, GuardLimitError is raised.
    """
    if plan is None:
        plan = _Plan(matrix.rows, matrix.cols, matrix.entries, size)
    l1 = [sum(map(abs, coeffs)) for _, _, coeffs in matrix.entries]
    width = math.prod(max(sum(l1[k] for _, k in row), 1) for row in plan.row_entries).bit_length() + 1
    packed = [_pack(coeffs, width) for _, _, coeffs in matrix.entries]
    signed = packed + [-x for x in packed]
    values = [0, 1]
    terms = plan.terms
    acc: list[int] = []
    certified = None  # False once a minor is nonzero, True once one keeps its degree mod q
    for state in plan:
        for expansion in terms[len(values) : state + 1]:
            total = 0
            for k, sub in expansion:
                total += signed[k] * values[sub]
            values.append(total)
        if x := values[state]:
            d: list[int] = []
            _unpack(x, width, x.bit_length() // width + 1, d)  # exactly deg + 1 digits, as |c| < 2^(w-1)
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


def _euclid_work(pattern: PolyPattern, rank: int, minors: int) -> tuple[int, int, int]:
    """A bound on Euclid's coefficient products in one seed's scan, and the two minor degree bounds behind it.

    A minor's degree is at most the sum, over its rows, of each row's
    largest entry degree, and likewise over its columns.  So d1, the
    smaller of the best such sum over rank rows and the best over rank
    columns, bounds every minor; d2, from the second-best sums, bounds
    every minor but the one on the best rows and the best columns, as
    every other misses one of those two sets.  Euclid on
    degrees a and b costs O((a + 1)(b + 1)) products.  The first gcd meets
    two minors, one of degree <= d2, and the running gcd then has degree
    <= d2, so each of the minors - 1 gcds costs at most (d1 + 1)(d2 + 1).
    d2 is -1 when one minor alone can be nonzero.
    """
    bounds = []
    for side in (0, 1):
        top: dict[int, int] = {}
        for entry in pattern.entries:
            top[entry[side]] = max(top.get(entry[side], 0), entry[2])
        x = sorted(top.values(), reverse=True)
        best = sum(x[:rank])
        bounds.append((best, best - x[rank - 1] + x[rank] if len(x) > rank else -1))
    d1 = min(best for best, _ in bounds)
    d2 = min(d1, max(second for _, second in bounds))
    return (minors - 1) * (d1 + 1) * (d2 + 1), d1, d2


def _seed_gcd_degrees(pattern: PolyPattern, seeds, coeff_bound) -> Iterator[int]:
    """Check the arguments, then lazily yield each seed's maximal-minor gcd degree (-1: every minor vanishes)."""
    seeds = _seed_list(seeds)
    if not pattern.entries:  # term rank 0; checked, like the size guards, before the matching
        raise ZeroTermRankError("pattern has term rank 0; zero-set test undefined")
    if min(pattern.rows, pattern.cols) > ZERO_SET_MAX_DIM:
        raise GuardLimitError(
            f"minor enumeration guarded at dimension {ZERO_SET_MAX_DIM}, pattern is {pattern.rows}x{pattern.cols}"
        )
    coeffs = sum(d for _, _, d in pattern.entries) + len(pattern.entries)  # also bounds every minor's degree
    if coeffs > ZERO_SET_MAX_COEFFS:
        raise GuardLimitError(f"instantiation guarded at {ZERO_SET_MAX_COEFFS} coefficients, pattern draws {coeffs}")
    rank = term_rank(build_graph(pattern))
    # a row or column with no entry only gives zero minors, which the plan's scan never visits
    minors = math.prod(math.comb(len({e[side] for e in pattern.entries}), rank) for side in (0, 1))
    if minors > ZERO_SET_MAX_MINORS:
        raise GuardLimitError(
            f"minor enumeration guarded at {ZERO_SET_MAX_MINORS} minors, "
            f"pattern is {pattern.rows}x{pattern.cols} with {minors} minors of order {rank}"
        )
    work, d1, d2 = _euclid_work(pattern, rank, minors)
    if work > ZERO_SET_MAX_EUCLID:
        raise GuardLimitError(
            f"gcd guarded at {ZERO_SET_MAX_EUCLID} coefficient products per seed, pattern is {pattern.rows}x{pattern.cols} "
            f"with {minors} minors of degree up to {d1} (all but one up to {d2}): {work}"
        )
    plan = _Plan(pattern.rows, pattern.cols, pattern.entries, rank)  # instantiate keeps this order
    for seed in seeds:
        g = minor_gcd(instantiate(pattern, seed, coeff_bound), rank, plan)
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
    seeds = _seed_list(seeds)
    n = ss.n
    if n > KALMAN_MAX_STATES:
        raise GuardLimitError(f"controllability-matrix test guarded at {KALMAN_MAX_STATES} states, got {n}")
    a_positions, b_positions = sorted(ss.a_entries), sorted(ss.b_entries)
    for seed in seeds:
        draw = _nonzero_ints(seed, coeff_bound)
        a_rows = [[] for _ in range(n)]
        for i, j in a_positions:
            a_rows[i].append((j, draw()))
        queue = [[0] * n for _ in range(ss.m)]  # the columns of B
        for i, k in b_positions:
            queue[k][i] = draw() % _PRIME
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
            if len(basis) == n:
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
