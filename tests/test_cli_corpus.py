"""CLI output pinned byte for byte on a seeded corpus.

Each command runs, as text and with --json, on every corpus file it
accepts: the five fixtures, random patterns up to 6x9 and random systems
with n <= 6 and m <= 3, all inside the oracle's zero-set guards.  The exit
code, stdout and stderr of every run feed one sha256 per command, compared
with ``DIGESTS``.  A change that means to change output re-records the
digests with

    PYTHONPATH=src python tests/test_cli_corpus.py

and logs the new values and the reason.

A second corpus pins ``statespace`` on pencils with many or large
components: gilbert_form(600), controller_canonical(120) and seeded random
systems with n = 60-180 and a planted unreachable block.  Its digests are
``LARGE_DIGESTS``.

A third corpus pins ``analyze`` on patterns of benchmark size, so the
witness and the component list are pinned where the reduction does real
work: seeded patterns of the random-dae shapes (100x100 to 180x198, 3-6
entries per row, degrees 0-2), tall ones, and rank-deficient ones whose
first rows share a few columns.  Its digests are ``LARGE_PATTERN_DIGESTS``.

A fourth pins ``gen``: canonical and gilbert systems and the three
interconnections at a few orders, and random patterns at several shapes,
seeds and degree bounds.  Its one digest is ``GEN_DIGEST``.
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

import pytest

from structctrl import controller_canonical, emit_statespace, gilbert_form
from structctrl.cli import main

from fixture_patterns import planted_statespace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS_SEED = 20_261_019
CORPUS_SIZE = 150  # random patterns, and as many random systems
LARGE_SEED = 20_261_020
LARGE_PLANTED = ((60, 1), (60, 3), (120, 2), (180, 1), (180, 3))  # (n, m) of the planted systems
LARGE_PATTERN_SEED = 20_261_021
# (rows, cols, rows confined to the first few columns): random-dae shapes, tall, rank-deficient
LARGE_PATTERN_SHAPES = (
    (100, 100, 0),
    (100, 110, 0),
    (140, 140, 0),
    (140, 154, 0),
    (180, 198, 0),
    (120, 100, 0),
    (180, 150, 0),
    (100, 100, 40),
    (140, 154, 60),
    (150, 120, 50),
)
LARGE_PATTERNS_PER_SHAPE = 3


def _random_pattern_text(rng: random.Random) -> str:
    rows, cols = rng.randint(1, 6), rng.randint(1, 9)
    cells = rng.sample([(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)], rng.randint(1, min(14, rows * cols)))
    return f"pattern {rows} {cols}\n" + "".join(f"entry {i} {j} {rng.randint(0, 2)}\n" for i, j in sorted(cells))


def _random_system_text(rng: random.Random) -> str:
    n, m = rng.randint(1, 6), rng.randint(0, 3)
    density = rng.uniform(0.1, 0.6)
    a = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < density]
    b = [(i, k) for i in range(1, n + 1) for k in range(1, m + 1) if rng.random() < density]
    return f"statespace {n} {m}\n" + "".join(f"a {i} {j}\n" for i, j in a) + "".join(f"b {i} {k}\n" for i, k in b)


def corpus() -> tuple[list[str], list[str]]:
    """Pattern texts and system texts: the fixtures first, then the seeded random ones."""
    fixtures = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.txt"))]
    rng = random.Random(CORPUS_SEED)
    patterns = [text for text in fixtures if text.lstrip().startswith("pattern")]
    systems = [text for text in fixtures if text.lstrip().startswith("statespace")]
    patterns += [_random_pattern_text(rng) for _ in range(CORPUS_SIZE)]
    systems += [_random_system_text(rng) for _ in range(CORPUS_SIZE)]
    return patterns, systems


# command -> which corpus texts it runs on
COMMANDS = {
    "analyze": "patterns",
    "analyze --json": "patterns",
    "oracle": "both",
    "oracle --json": "both",
    "statespace": "systems",
    "statespace --json": "systems",
    "oracle --mode statespace_strict": "systems",
    "oracle --mode statespace_strict --json": "systems",
}

# Recorded at 8319e13, the commit before the forced-monomial zero set became the Krylov rank.
DIGESTS = {
    "analyze": "33bd567739b21a84221f220e4981c2d4bab4a09d0b33465f7ea441d42b345930",
    "analyze --json": "1ec85b169b2b465e61138e9287058e3aad4e45f4f178770356ce1a37404f323e",
    "oracle": "efe52a842e1ed51b4eee97f0335ecdd1c69dcdc1549da3a3c0fad7ebe86009eb",
    "oracle --json": "c775c129d8e2c8ca0b3f56bcf11f1cd9b6fa916ec41bc257103c55730467dfdc",
    "statespace": "f89869ac37fba3af7ad61ced938e2f4abc8894d7a895e0a61c2267b7b996d858",
    "statespace --json": "d69e2c084161b7be73f2899c69df4aff0082845581bffdc9458076848cbca4ab",
    "oracle --mode statespace_strict": "471a15a1948a00de4d016ec37048d62caff4ce6cbfbf4ca19fdb94aaa24b55cc",
    "oracle --mode statespace_strict --json": "4f08670b337a2f69f1ca5f5ba679d0259bcdd39eb77c1dfbcae9a8c271aed610",
}


def large_systems() -> list[str]:
    """System texts of the large corpus: the two named families, then the seeded planted systems."""
    rng = random.Random(LARGE_SEED)
    systems = [gilbert_form(600), controller_canonical(120)]
    systems += [planted_statespace(rng, n, m, n // 4) for n, m in LARGE_PLANTED]
    return [emit_statespace(ss) for ss in systems]


LARGE_COMMANDS = ("statespace", "statespace --json")

# Recorded at 326aa7b, before components were read off the Dulmage-Mendelsohn parts.
LARGE_DIGESTS = {
    "statespace": "f483a05e36b09a632a2410ad98625cb815d2f56842c28e5ea8a7e7eab1fff5ad",
    "statespace --json": "6160b5f3840e56288553b60a6124e9a1c03affb0a825ef52c415f9455ceb8dbe",
}


def _large_pattern_text(rng: random.Random, rows: int, cols: int, confined: int) -> str:
    """3-6 entries per row, degrees 0-2; the first ``confined`` rows use only the first confined // 2 columns."""
    lines = [f"pattern {rows} {cols}"]
    for r in range(rows):
        width = max(3, confined // 2) if r < confined else cols
        for c in sorted(rng.sample(range(width), rng.randint(3, 6))):
            lines.append(f"entry {r + 1} {c + 1} {rng.randint(0, 2)}")
    return "\n".join(lines) + "\n"


def large_patterns() -> list[str]:
    """Pattern texts of the large pattern corpus, LARGE_PATTERNS_PER_SHAPE per shape."""
    rng = random.Random(LARGE_PATTERN_SEED)
    return [_large_pattern_text(rng, *shape) for shape in LARGE_PATTERN_SHAPES for _ in range(LARGE_PATTERNS_PER_SHAPE)]


LARGE_PATTERN_COMMANDS = ("analyze", "analyze --json")

# Recorded at be21c88, before the graph became a frozen dataclass and Component lost its edges.
LARGE_PATTERN_DIGESTS = {
    "analyze": "04d8e585a4fd95738f3c48873d45bcef5ee8fbe872fd72ec91ae19b294ed8b58",
    "analyze --json": "d8917215cafe4adbae688ca0c2ac24e035fc22d4c52c77e9a5efd5ef251200bf",
}


# (rows, cols, entries) of the random gen patterns: empty, full, wide, tall and benchmark-size
GEN_RANDOM_SHAPES = ((1, 1, 1), (2, 3, 0), (2, 3, 6), (5, 5, 7), (6, 9, 20), (30, 12, 80), (140, 154, 600))

# Recorded at 0b54dc4, before PolyPattern became a record of its sorted entry triples.
GEN_DIGEST = "3e497cf4ee0c634dbcdc078b87d60ed70aedf0ef5f139455b6afbc09fdc83862"


def digest(command: str) -> str:
    """Digest of ``command`` on each of its corpus texts."""
    patterns, systems = corpus()
    return run_digest(command, {"patterns": patterns, "systems": systems, "both": patterns + systems}[COMMANDS[command]])


def _run(argv: list[str], text: str = "") -> bytes:
    """Exit code, stdout and stderr of ``main(argv)`` with ``text`` on stdin."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return f"{code}\n{out.getvalue()}\0{err.getvalue()}\0".encode()


def run_digest(command: str, texts: list[str]) -> str:
    """Sha256 over the exit code, stdout and stderr of ``command`` on each text, read from stdin."""
    h = hashlib.sha256()
    for text in texts:
        h.update(_run([*command.split(), "-"], text))
    return h.hexdigest()


def gen_argvs() -> list[list[str]]:
    """Argument lists of the gen corpus: named systems, interconnections, then random patterns."""
    argvs = [["gen", "canonical", "--n", str(n)] for n in (1, 2, 5, 40)]
    argvs += [["gen", "gilbert", "--n", str(n)] for n in (2, 3, 9, 40)]
    orders = ((1, 1), (1, 4), (3, 2), (7, 7))
    argvs += [["gen", kind, "--n1", str(n1), "--n2", str(n2)] for kind in ("series", "parallel", "feedback") for n1, n2 in orders]
    for rows, cols, edges in GEN_RANDOM_SHAPES:
        for seed, max_degree in ((0, 0), (3, 2), (20_261_022, 5)):
            shape = ["--rows", str(rows), "--cols", str(cols), "--density-edges", str(edges)]
            argvs.append(["gen", "random", *shape, "--seed", str(seed), "--max-degree", str(max_degree)])
    argvs.append(["gen", "random", "--rows", "4", "--cols", "6", "--density-edges", "10"])  # default seed and degree bound
    return argvs


def gen_digest() -> str:
    """Sha256 over the exit code, stdout and stderr of every gen corpus run."""
    h = hashlib.sha256()
    for argv in gen_argvs():
        h.update(_run(argv))
    return h.hexdigest()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_output_matches_recorded_digest(command):
    assert digest(command) == DIGESTS[command], f"`structctrl {command}` output changed on the corpus"


@pytest.mark.parametrize("command", LARGE_COMMANDS)
def test_large_component_output_matches_recorded_digest(command):
    got = run_digest(command, large_systems())
    assert got == LARGE_DIGESTS[command], f"`structctrl {command}` output changed on the large corpus"


@pytest.mark.parametrize("command", LARGE_PATTERN_COMMANDS)
def test_large_pattern_output_matches_recorded_digest(command):
    got = run_digest(command, large_patterns())
    assert got == LARGE_PATTERN_DIGESTS[command], f"`structctrl {command}` output changed on the large pattern corpus"


def test_gen_output_matches_recorded_digest():
    assert gen_digest() == GEN_DIGEST, "`structctrl gen` output changed on the gen corpus"


if __name__ == "__main__":
    for command in COMMANDS:
        print(f'    "{command}": "{digest(command)}",')
    texts = large_systems()
    for command in LARGE_COMMANDS:
        print(f'    "{command}": "{run_digest(command, texts)}",  # large')
    texts = large_patterns()
    for command in LARGE_PATTERN_COMMANDS:
        print(f'    "{command}": "{run_digest(command, texts)}",  # large patterns')
    print(f'GEN_DIGEST = "{gen_digest()}"')
