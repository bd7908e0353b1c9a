"""Seeded inputs and per-op correctness checks for the three benchmark workloads.

Every input is generated here, from the workload seed alone, and written to
a file before timing starts; the program under test only ever sees the
files.  The generator has its own random-number stream (SplitMix64) so that
a seed names the same inputs on every Python version, which the facts
recorded in recorded.json (see record.py) rely on.

An op is one instance run through the CLI, in-process, with ``--json``:

* random-dae: ``analyze`` on a pattern;
* statespace-pencils: ``statespace`` on a first-order system;
* oracle-crosscheck: ``analyze`` plus ``oracle`` on a small pattern, or
  ``statespace`` (which runs the Kalman rank test itself) on a small system.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

CONTROLLABLE = "structurally controllable"
UNCONTROLLABLE = "structurally uncontrollable"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream ids keep the workloads' random streams apart for the same seed.
_DAE_STREAM = 1
_PICK_STREAM = 2
_PENCIL_STREAM = 3
_ORACLE_STREAM = 4
_SMALL_STREAM = 5

# Each workload has at least 110 instances, so that ten or more per-instance
# latencies lie beyond the p90.
#
# random-dae: square classes are uncontrollable and 10%-wide classes
# controllable, with 3-6 entries in every row.  An odd number of classes of
# overlapping cost keeps the median inside a class rather than on a gap
# between two, and the slowest class (140x140) holds the p90.  The sizes are
# as large as a 35 s run allows while each instance still runs in ten or so
# passes, so that its best time finds the host's quiet moments.
DAE_SHAPES = ((100, 100), (100, 110), (140, 140), (140, 154), (180, 198))
DAE_UNIVERSE = 64  # instances per class that have a recorded digest
DAE_PER_CLASS = 22  # instances per class in one run

PENCIL_SIZES = (60, 120, 180)
PENCIL_RANDOM = 44  # per planted / unplanted half
PENCIL_NAMED = 12  # controller_canonical and gilbert_form instances each

# oracle-crosscheck: an uncontrollable pattern costs the oracle every seed
# and every minor, a controllable one usually a single minor, so each run
# takes the same number of each verdict per shape, by recorded verdicts.
ORACLE_SHAPES = ((3, 5), (4, 6), (5, 7), (6, 8), (6, 9), (6, 6), (8, 6))
ORACLE_UNIVERSE = 160  # patterns per shape that have a recorded verdict
ORACLE_PER_VERDICT = 6  # patterns per shape and verdict in one run
ORACLE_STATES = (4, 6, 8, 10, 12)
ORACLE_SYSTEMS = 60


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 keyed by a tuple of non-negative integers."""

    def __init__(self, *key: int):
        state = 0
        for k in key:
            state = _mix((state + _GOLDEN + k) & _MASK)
        self.state = state

    def next64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _mix(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), without modulo bias."""
        limit = (1 << 64) - (1 << 64) % n
        while True:
            x = self.next64()
            if x < limit:
                return x % n

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct integers from range(n), sorted; Floyd's algorithm, O(k) memory."""
        chosen: set[int] = set()
        for j in range(n - k, n):
            t = self.below(j + 1)
            chosen.add(j if t in chosen else t)
        return sorted(chosen)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class Outcome:
    """One CLI call: exit code (None if it raised) and captured stdout (or the exception)."""

    rc: int | None
    out: str


@dataclass
class Instance:
    """One input file plus the CLI calls an op makes on it and the check of their outputs.

    ``check`` returns None when the outputs are right, otherwise a reason.
    ``verified`` caches the last outputs that passed, so a repeated op with
    byte-identical outputs is not re-checked.
    """

    name: str
    argvs: tuple[tuple[str, ...], ...]
    check: Callable[[tuple[Outcome, ...]], str | None]
    verified: tuple[Outcome, ...] | None = field(default=None, repr=False)

    def failure(self, outcomes: tuple[Outcome, ...]) -> str | None:
        if outcomes == self.verified:
            return None
        reason = self.check(outcomes)
        if reason is None:
            self.verified = outcomes
        return reason

    def controllable(self) -> bool:
        """Verdict of the last verified op (exit code 0 of its first call)."""
        return self.verified[0].rc == 0


# ---------------------------------------------------------------- inputs


def dae_pattern_text(p: int, v: int, index: int) -> str:
    """Instance ``index`` of the p-by-v random-dae class: 3-6 entries per row, degrees 0-2.

    Each row samples its columns directly, so memory follows the entry
    count, never p*v.
    """
    rng = Rng(_DAE_STREAM, p, v, index)
    lines = [f"pattern {p} {v}"]
    for r in range(p):
        for c in rng.sample(v, rng.between(3, 6)):
            lines.append(f"entry {r + 1} {c + 1} {rng.between(0, 2)}")
    return "\n".join(lines) + "\n"


def universe_key(p: int, v: int, index: int) -> str:
    return f"{p}x{v}:{index}"


def small_pattern_text(p: int, v: int, index: int) -> str:
    """Instance ``index`` of the small p-by-v oracle-crosscheck class: 1-3 entries per row, degrees 0-1."""
    rng = Rng(_SMALL_STREAM, p, v, index)
    lines = [f"pattern {p} {v}"]
    for r in range(p):
        for c in rng.sample(v, rng.between(1, min(v, 3))):
            lines.append(f"entry {r + 1} {c + 1} {rng.between(0, 1)}")
    return "\n".join(lines) + "\n"


def random_system(rng: Rng, n: int, m: int, planted: int, full_diagonal: bool, extra: int):
    """Sparse (A, B) whose states outside a planted block of ``planted`` states all reach an input.

    A random tree from the inputs reaches every state outside the block.
    Rows of the block couple only to block states and get no input, so no
    path enters it.  Returns (a_entries, b_entries) as 0-based position sets.
    """
    block = set(rng.sample(n, planted))
    reached = [s for s in range(n) if s not in block]
    rng.shuffle(reached)
    a: set[tuple[int, int]] = set()
    b: set[tuple[int, int]] = set()
    for idx, state in enumerate(reached):
        parent = rng.below(idx + m) - m  # negative: one of the m inputs
        if parent < 0:
            b.add((state, -parent - 1))
        else:
            a.add((state, reached[parent]))
    for i in range(n):
        if full_diagonal or rng.below(2):
            a.add((i, i))
        for _ in range(extra):
            j = rng.below(n)
            if i not in block or j in block:
                a.add((i, j))
    return a, b


def statespace_text(n: int, m: int, a, b) -> str:
    lines = [f"statespace {n} {m}"]
    lines += [f"a {i + 1} {j + 1}" for i, j in sorted(a)]
    lines += [f"b {i + 1} {k + 1}" for i, k in sorted(b)]
    return "\n".join(lines) + "\n"


def input_reachability(n: int, a, b) -> tuple[bool, ...]:
    """Which states a path from an input reaches in the A/B digraph.

    Edge x_j -> x_i when A[i][j] is nonzero, u_k -> x_i when B[i][k] is.
    Computed from the generated positions only, independently of the
    program under test.
    """
    influences: list[list[int]] = [[] for _ in range(n)]
    for i, j in a:
        influences[j].append(i)
    reached = [False] * n
    stack = []
    for i, _ in b:
        if not reached[i]:
            reached[i] = True
            stack.append(i)
    while stack:
        j = stack.pop()
        for i in influences[j]:
            if not reached[i]:
                reached[i] = True
                stack.append(i)
    return tuple(reached)


# ---------------------------------------------------------------- checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _rc_for(controllable: bool) -> int:
    return 0 if controllable else 1


def _single_json(outcomes: tuple[Outcome, ...], count: int):
    """Parse each call's stdout as one JSON object; a reason string on failure."""
    if len(outcomes) != count:
        return f"expected {count} calls, got {len(outcomes)}"
    parsed = []
    for o in outcomes:
        if o.rc is None:
            return f"raised {o.out}"
        try:
            parsed.append(json.loads(o.out))
        except ValueError:
            return f"stdout is not one JSON object: {o.out[:80]!r}"
    return parsed


def check_dae(expected_digest: str, expected_rc: int):
    """random-dae: no independent method decides patterns this size, so the
    report must be byte-identical to the one recorded at the seed commit."""

    def check(outcomes):
        if len(outcomes) != 1:
            return f"expected 1 call, got {len(outcomes)}"
        o = outcomes[0]
        if o.rc != expected_rc:
            return f"exit code {o.rc}, recorded {expected_rc}"
        if digest(o.out) != expected_digest:
            return f"report digest {digest(o.out)}, recorded {expected_digest}"
        return None

    return check


def check_statespace(reach: tuple[bool, ...]):
    """statespace: per-state connectivity equals input reachability, the verdict
    is controllable iff every state is reached, and no cross-check disagrees."""
    controllable = all(reach)

    def check(outcomes):
        parsed = _single_json(outcomes, 1)
        if isinstance(parsed, str):
            return parsed
        (report,) = parsed
        if outcomes[0].rc != _rc_for(controllable):
            return f"exit code {outcomes[0].rc}, expected {_rc_for(controllable)}"
        if report.get("verdict") != (CONTROLLABLE if controllable else UNCONTROLLABLE):
            return f"verdict {report.get('verdict')!r} but reachability says controllable={controllable}"
        if report.get("state_connectivity") != list(reach):
            return "state_connectivity differs from input reachability"
        if report.get("cross_check_disagreement") is not None:
            return f"cross-check disagreement {report['cross_check_disagreement']}"
        return None

    return check


def check_oracle_pattern(outcomes):
    """oracle-crosscheck pattern: the structural verdict equals the exact oracle's zero_set_empty."""
    parsed = _single_json(outcomes, 2)
    if isinstance(parsed, str):
        return parsed
    report, oracle = parsed
    controllable = report.get("verdict") == CONTROLLABLE
    if report.get("verdict") not in (CONTROLLABLE, UNCONTROLLABLE):
        return f"unknown verdict {report.get('verdict')!r}"
    if outcomes[0].rc != _rc_for(controllable):
        return f"analyze exit code {outcomes[0].rc} does not match its verdict"
    if oracle.get("zero_set_empty") is not controllable:
        return f"oracle zero_set_empty={oracle.get('zero_set_empty')} but verdict {report['verdict']!r}"
    if outcomes[1].rc != _rc_for(controllable):
        return f"oracle exit code {outcomes[1].rc} does not match zero_set_empty"
    return None


# ---------------------------------------------------------------- workloads


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def random_dae(seed: int, workdir: str, digests: dict[str, str]) -> list[Instance]:
    """DAE_PER_CLASS recorded instances of each DAE_SHAPES class, chosen and ordered by the seed."""
    rng = Rng(_PICK_STREAM, seed)
    out = []
    for p, v in DAE_SHAPES:
        for index in rng.sample(DAE_UNIVERSE, DAE_PER_CLASS):
            key = universe_key(p, v, index)
            expected_digest, expected_rc = digests[key].split(":")
            path = _write(workdir, f"dae-{p}x{v}-{index}.txt", dae_pattern_text(p, v, index))
            out.append(Instance(key, (("analyze", path, "--json"),), check_dae(expected_digest, int(expected_rc))))
    rng.shuffle(out)
    return out


def _system_instance(workdir: str, name: str, n: int, m: int, a, b) -> Instance:
    path = _write(workdir, f"{name}.txt", statespace_text(n, m, a, b))
    return Instance(name, (("statespace", path, "--json"),), check_statespace(input_reachability(n, a, b)))


def statespace_pencils(seed: int, workdir: str) -> list[Instance]:
    """Random sparse (A, B), half with a planted unreachable block, plus the named families.

    The diagonal of [sI - A  B] is a matching that covers every row, so
    these wide pencils use the reduction differently from random-dae.
    Planted blocks and gilbert_form give many components, which the
    per-state connectivity lookup pays for.
    """
    from structctrl.statespace import controller_canonical, gilbert_form

    rng = Rng(_PENCIL_STREAM, seed)
    out = []
    for planted in (False, True):
        for k in range(PENCIL_RANDOM):
            n = PENCIL_SIZES[k % len(PENCIL_SIZES)]
            m = rng.between(1, 3)
            a, b = random_system(rng, n, m, n // 4 if planted else 0, False, 2)
            out.append(_system_instance(workdir, f"pencil-{'planted' if planted else 'open'}-{k}", n, m, a, b))
    # Evenly spaced orders: these two families set the tail, and a random
    # draw of their sizes would move the p90 from seed to seed.
    for k in range(PENCIL_NAMED):
        ss = controller_canonical(40 + 80 * k // (PENCIL_NAMED - 1))
        out.append(_system_instance(workdir, f"canonical-{ss.n}", ss.n, ss.m, ss.a_entries, ss.b_entries))
        ss = gilbert_form(600 + 900 * k // (PENCIL_NAMED - 1))
        out.append(_system_instance(workdir, f"gilbert-{ss.n}", ss.n, ss.m, ss.a_entries, ss.b_entries))
    rng.shuffle(out)
    return out


def oracle_crosscheck(seed: int, workdir: str, verdicts: dict[str, int]) -> list[Instance]:
    """Small patterns (min(p, v) <= 6) and full-diagonal systems (n <= 12) the exact oracle can decide.

    ``verdicts`` maps universe keys to the oracle's recorded exit code and
    only balances the verdicts; each op is checked against the oracle's
    answer in that op.  A full diagonal makes the generic and the
    forced-monomial conventions coincide, so the Kalman rank test must
    agree with the verdict.
    """
    rng = Rng(_ORACLE_STREAM, seed)
    out = []
    for p, v in ORACLE_SHAPES:
        for rc in (0, 1):
            candidates = [i for i in range(ORACLE_UNIVERSE) if verdicts[universe_key(p, v, i)] == rc]
            for k in rng.sample(len(candidates), ORACLE_PER_VERDICT):
                index = candidates[k]
                path = _write(workdir, f"small-{p}x{v}-{index}.txt", small_pattern_text(p, v, index))
                argvs = (("analyze", path, "--json"), ("oracle", path, "--json"))
                out.append(Instance(universe_key(p, v, index), argvs, check_oracle_pattern))
    for k in range(ORACLE_SYSTEMS):
        n = ORACLE_STATES[k % len(ORACLE_STATES)]
        m = rng.between(1, 2)
        planted = rng.between(1, n // 3) if k % 2 else 0
        a, b = random_system(rng, n, m, planted, True, 1)
        out.append(_system_instance(workdir, f"system-{n}-{k}", n, m, a, b))
    rng.shuffle(out)
    return out


WORKLOADS = ("random-dae", "statespace-pencils", "oracle-crosscheck")


def build(workload: str, seed: int, workdir: str, recorded: dict[str, dict]) -> list[Instance]:
    """The seed's instances of one workload, written to ``workdir``; ``recorded`` is recorded.json."""
    if workload == "random-dae":
        return random_dae(seed, workdir, recorded["random-dae"])
    if workload == "statespace-pencils":
        return statespace_pencils(seed, workdir)
    return oracle_crosscheck(seed, workdir, recorded["oracle-crosscheck"])
