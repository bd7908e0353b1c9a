"""Command-line front end: analyze, statespace, oracle, gen, bench.

Exit status contract: 0 = structurally controllable (or zero set empty),
1 = structurally uncontrollable (or zero set nonempty), 2 = input error,
guard violation, or bad usage.  The first output line of the verdict
commands is exactly "structurally controllable" or "structurally
uncontrollable" so shell pipelines can branch on it.  A reader that
closes stdout early, such as ``head -1``, changes no exit status and
adds nothing to stderr: the verdict commands keep their verdict's
status, and gen and bench exit 0.

All report indices are printed 1-based, matching the file formats.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import sys
import time
from collections.abc import Sequence

from . import patterns
from .bigraph import build_graph
from .decision import AnalysisReport, analyze, analyze_reduction
from .errors import GuardLimitError, PatternFormatError
from .oracle import DEFAULT_COEFF_BOUND, kalman_controllable, kalman_deficiencies, zero_set_empty, zero_set_gcd_degrees
from .patterns import (
    PolyPattern,
    emit_pattern,
    emit_statespace,
    parse_pattern,
    parse_statespace,
)
from .reduction import remove_redundant_edges
from .statespace import (
    INTERCONNECTION_KINDS,
    analyze_statespace,
    controllability_pencil,
    controller_canonical,
    gilbert_form,
    siso_interconnection,
)

DEFAULT_SEEDS = "0,1,2,3,4"


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for ``-``: its bytes decoded as strict UTF-8, whatever the stream's encoding.

    A byte that does not decode is reported on its line, numbered as ``str.splitlines`` numbers the text.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())  # "x" stands in for the bad byte
        raise PatternFormatError(f"invalid UTF-8 byte 0x{data[exc.start]:02x} ({exc.reason})", lineno) from None


def _write(text: str) -> None:
    """Write ``text`` to stdout and flush it; once the reader has closed the pipe, the rest goes nowhere.

    A reader such as ``head -1`` may close stdout before the report is
    written.  The command still returns its own exit status: stdout is
    pointed at ``os.devnull``, as the SIGPIPE note of the ``signal`` docs
    does, so neither this write nor the flush at exit reports the closed pipe.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# The component writers spell a side with one vertex, as each diagonal mode of a pencil has, or with none,
# as an isolated row or column has, without a join: most reports hold about one such component per vertex.


def _report_json(report: AnalysisReport, extra: dict) -> str:
    """``json.dumps`` of the report's dict, ``extra`` keys last, and a newline; the components, up to one per vertex, are written as text."""
    import json  # here and in the other JSON writers, so the text and --quiet paths never load it
    redundant = [[r + 1, c + 1] for r, c in report.redundant_edges]
    head = json.dumps({"verdict": report.verdict, "minimal": report.minimal, "term_rank": report.term_rank, "redundant_edges": redundant})
    w = report.witness
    witness = None if w is None else {"component": w.component, "edge": [w.edge[0] + 1, w.edge[1] + 1], "weight": w.weight}
    components = ", ".join(
        [
            f'{{"rows": [{rs[0] + 1 if len(rs) == 1 else ", ".join([str(r + 1) for r in rs]) if rs else ""}], '
            f'"cols": [{cs[0] + 1 if len(cs) == 1 else ", ".join([str(c + 1) for c in cs]) if cs else ""}], "max_weight": {mw}}}'
            for rs, cs, mw in report.components
        ]
    )
    return f'{head[:-1]}, "components": [{components}], {json.dumps({"witness": witness} | extra)[1:]}\n'


def _report_text(report: AnalysisReport, quiet: bool, tail: Sequence[str]) -> str:
    """The text report, with the lines ``tail`` after it unless ``quiet``, which keeps the verdict line alone."""
    if quiet:
        return report.verdict + "\n"
    lines = [
        report.verdict,
        f"term rank: {report.term_rank}",
        f"minimal: {'yes' if report.minimal else 'no'}",
        f"redundant edges: {' '.join([f'({r + 1},{c + 1})' for r, c in report.redundant_edges]) or 'none'}",
        f"components: {len(report.components)}",
    ]
    lines += [
        f"  component {idx}: rows [{rs[0] + 1 if len(rs) == 1 else ' '.join([str(r + 1) for r in rs]) if rs else ''}] "
        f"cols [{cs[0] + 1 if len(cs) == 1 else ' '.join([str(c + 1) for c in cs]) if cs else ''}] max weight {mw}"
        for idx, (rs, cs, mw) in enumerate(report.components)
    ]
    if report.witness is not None:
        w = report.witness
        lines.append(f"witness: component {w.component}, edge ({w.edge[0] + 1},{w.edge[1] + 1}), weight {w.weight}")
    lines += [*tail, ""]
    return "\n".join(lines)


def _print_verdict(report: AnalysisReport, args, tail: Sequence[str] = (), **extra) -> int:
    """Write ``report`` as JSON, ``extra`` keys last, or as text, ``tail`` lines last; return the exit status of its verdict."""
    _write(_report_json(report, extra) if args.json else _report_text(report, args.quiet, tail))
    return 0 if report.controllable else 1


def cmd_analyze(args) -> int:
    return _print_verdict(analyze(parse_pattern(_read_text(args.file))), args)


def cmd_statespace(args) -> int:
    ss = parse_statespace(_read_text(args.file))
    rep = analyze_statespace(ss)

    cross = None
    if args.json or not args.quiet:  # the checks run whenever their result is printed
        cross = {}
        with contextlib.suppress(GuardLimitError):  # a check past its size guard is left out of cross
            kalman = cross["kalman_rank_full"] = kalman_controllable(ss, args.seeds, args.coeff_range)
            with contextlib.suppress(GuardLimitError):
                cross["zero_set_empty_generic"] = zero_set_empty(rep.pencil, args.seeds, args.coeff_range)
            # PBH: the true pencil, s where A_ii = 0, loses rank exactly where the Krylov rank falls short
            cross["zero_set_empty_strict"] = kalman
        if cross.get("kalman_rank_full", rep.controllable) == cross.get("zero_set_empty_generic", rep.controllable) == rep.controllable:
            cross = None  # checks agree, or none ran; nothing to flag

    tail = []
    if not (args.json or args.quiet):
        tail = [f"state {i + 1}: {'connected' if ok else 'NOT connected'}" for i, ok in enumerate(rep.state_connectivity)]
        if cross is not None:
            tail += _cross_check_note(cross, any((i, i) not in ss.a_entries for i in range(ss.n)), rep.controllable)
    return _print_verdict(rep.base, args, tail, state_connectivity=list(rep.state_connectivity), cross_check_disagreement=cross)


def _cross_check_note(cross: dict, zero_diagonal: bool, controllable: bool) -> list[str]:
    """The lines of the disagreement, explained by the two diagonal conventions where they can explain it.

    The conventions differ only where A has a zero diagonal entry, and the
    generic zero set follows the structural model itself; without such an
    entry, or when the generic zero set disagrees, no convention explains it.
    """
    lines = ["note: fixed-coefficient cross-checks disagree with the structural verdict."]
    rank = "full" if cross["kalman_rank_full"] else "deficient"
    lines.append(f"  controllability-matrix rank over random integer instances: {rank}")
    if "zero_set_empty_generic" in cross:
        lines.append(f"  zero set empty, generic coefficients: {'yes' if cross['zero_set_empty_generic'] else 'no'}")
    lines.append(f"  zero set empty, forced-monomial diagonal: {'yes' if cross['zero_set_empty_strict'] else 'no'}")
    if not zero_diagonal or cross.get("zero_set_empty_generic", controllable) != controllable:
        lines.append("  no modeling convention explains this disagreement; it points at a fault in the oracle or the analysis.")
        return lines
    lines.append("  the structural model treats every diagonal derivative term as an arbitrary")
    lines.append("  degree-1 polynomial; with zero diagonal entries in the state matrix the true")
    lines.append("  pencil can lose rank at s = 0. see README, 'When the two conventions disagree'.")
    return lines


def cmd_oracle(args) -> int:
    text = _read_text(args.file)
    first = next(patterns._content_lines(text), (0, [""]))[1][0]  # the header's keyword; "" for empty input
    ss = parse_statespace(text) if first.startswith("statespace") else None
    pattern = parse_pattern(text) if ss is None else None  # parsed before the mode check, so a bad file reports its line
    if args.mode == "generic":
        degrees = zero_set_gcd_degrees(controllability_pencil(ss) if pattern is None else pattern, args.seeds, args.coeff_range)
    elif ss is None:
        raise ValueError("mode statespace_strict requires a statespace file")
    else:  # PBH: the true pencil's gcd degree is n - Krylov rank
        degrees = kalman_deficiencies(ss, args.seeds, args.coeff_range)
    empty = any(d == 0 for d in degrees)
    if args.json:
        import json
        _write(json.dumps({"mode": args.mode, "seed_gcd_degrees": degrees, "zero_set_empty": empty}) + "\n")
    else:
        lines = []
        if not args.quiet:
            lines = [f"seed {seed}: all maximal minors zero" if d < 0 else f"seed {seed}: gcd degree {d}" for seed, d in zip(args.seeds, degrees)]
        lines.append(f"zero set generically empty: {'yes' if empty else 'no'}")
        _write("\n".join(lines) + "\n")
    return 0 if empty else 1


def _random_pattern(rows: int, cols: int, edges: int, max_degree: int, seed: int) -> PolyPattern:
    if edges < 0 or edges > rows * cols:
        raise ValueError(f"edge count {edges} out of range for {rows}x{cols} pattern")
    if edges > patterns.MAX_VERTICES:  # the sample and the pattern hold every entry; one header's vertex budget bounds them
        raise ValueError(f"edge count {edges} guarded at {patterns.MAX_VERTICES}")
    rng = random.Random(seed)
    # Sampling cell indices, not a list of cells, keeps memory in proportion
    # to the entries; sample() draws from len(population) alone, so a seed
    # picks the same cells either way.
    chosen = [divmod(idx, cols) for idx in rng.sample(range(rows * cols), edges)]
    return PolyPattern(rows, cols, {cell: rng.randint(0, max_degree) for cell in chosen})


def cmd_gen(args) -> int:
    kind = args.kind
    if kind in ("canonical", "gilbert"):
        if args.n is None:
            raise ValueError(f"gen {kind} requires --n")
        patterns._check_vertices(f"pencil of n={args.n}, m=1", 2 * args.n + 1)  # before the system is built
        ss = controller_canonical(args.n) if kind == "canonical" else gilbert_form(args.n)
        _write(emit_statespace(ss))
    elif kind in INTERCONNECTION_KINDS:
        if args.n1 is None or args.n2 is None:
            raise ValueError(f"gen {kind} requires --n1 and --n2")
        _write(emit_pattern(siso_interconnection(kind, args.n1, args.n2)))
    else:  # random, the last of argparse's choices
        if args.rows is None or args.cols is None or args.density_edges is None:
            raise ValueError("gen random requires --rows, --cols and --density-edges")
        patterns._check_vertices(f"{args.rows}x{args.cols} pattern", args.rows + args.cols)  # before it is sampled
        pattern = _random_pattern(args.rows, args.cols, args.density_edges, args.max_degree, args.seed)
        _write(emit_pattern(pattern))
    return 0


def cmd_bench(args) -> int:
    if args.edges_factor > min(args.sizes):  # a p x p pattern holds at most p entries per row
        raise ValueError(f"--edges-factor {args.edges_factor} exceeds the smallest --sizes entry {min(args.sizes)}")
    if not args.timeout > 0:  # NaN too, which no row time exceeds
        raise ValueError(f"--timeout must be a positive number of seconds, got {args.timeout}")
    patterns._check_vertices(f"{max(args.sizes)}x{max(args.sizes)} pattern", 2 * max(args.sizes))  # before the ladder runs
    results = []
    for p in args.sizes:
        pattern = _random_pattern(p, p, args.edges_factor * p, args.max_degree, args.seed * 1_000_003 + p)
        t0 = time.perf_counter()
        g = build_graph(pattern)
        t1 = time.perf_counter()
        rg = remove_redundant_edges(g)
        reduce_s = time.perf_counter() - t1
        report = analyze_reduction(rg)
        total_s = time.perf_counter() - t0
        results.append(
            {
                "p": p,
                "v": p,
                "edge_count": len(g.edges),
                "reduce_seconds": reduce_s,
                "total_seconds": total_s,
                "verdict": report.verdict,
                "status": "ok" if total_s <= args.timeout else "timeout",
            }
        )
    if args.json:
        import json
        _write(json.dumps(results) + "\n")
    else:
        lines = ["p\tv\tedges\treduce_s\ttotal_s\tverdict\tstatus"]
        lines += [
            f"{r['p']}\t{r['v']}\t{r['edge_count']}\t{r['reduce_seconds']:.4f}\t{r['total_seconds']:.4f}\t{r['verdict']}\t{r['status']}"
            for r in results
        ]
        _write("\n".join(lines) + "\n")
    return 0


def _int_at_least(low: int | None):
    """argparse type: an integer, no smaller than ``low`` if given, so a bad value fails where it is read."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _int_list(low: int | None):
    """argparse type: a non-empty comma-separated list of integers, each no smaller than ``low`` if given."""
    item = _int_at_least(low)

    def parse(text: str) -> list[int]:
        values = [item(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
        return values

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args returns a fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="structctrl",
        description="Structural controllability analysis of differential-algebraic system patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report instead of text")
    common.add_argument("--quiet", action="store_true", help="print only the verdict line")

    p_an = sub.add_parser("analyze", parents=[common], help="verdict for a pattern file")
    p_an.add_argument("file", help="pattern file, or - for stdin")
    p_an.set_defaults(func=cmd_analyze)

    negative = "; a list that starts with a negative seed needs the = form, --seeds=-1,3"
    p_ss = sub.add_parser("statespace", parents=[common], help="verdict for a statespace file")
    p_ss.add_argument("file", help="statespace file, or - for stdin")
    p_ss.add_argument("--seeds", type=_int_list(None), default=DEFAULT_SEEDS, help="seeds for the numeric cross-checks" + negative)
    p_ss.add_argument("--coeff-range", type=_int_at_least(1), default=DEFAULT_COEFF_BOUND, help="coefficient magnitude bound")
    p_ss.set_defaults(func=cmd_statespace)

    p_or = sub.add_parser("oracle", parents=[common], help="exact zero-set test for a pattern or statespace file")
    p_or.add_argument("file", help="pattern or statespace file, or - for stdin")
    p_or.add_argument("--seeds", type=_int_list(None), default=DEFAULT_SEEDS, help="comma-separated instantiation seeds" + negative)
    p_or.add_argument("--coeff-range", type=_int_at_least(1), default=DEFAULT_COEFF_BOUND, help="coefficient magnitude bound")
    p_or.add_argument("--mode", choices=("generic", "statespace_strict"), default="generic")
    p_or.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="emit a generated pattern or statespace file")
    p_gen.add_argument("kind", choices=("canonical", "gilbert", *INTERCONNECTION_KINDS, "random"))
    p_gen.add_argument("--n", type=int, help="order for canonical/gilbert")
    p_gen.add_argument("--n1", type=int, help="first subsystem order")
    p_gen.add_argument("--n2", type=int, help="second subsystem order")
    p_gen.add_argument("--rows", type=_int_at_least(1))
    p_gen.add_argument("--cols", type=_int_at_least(1))
    p_gen.add_argument("--density-edges", type=int, help="exact number of entries")
    p_gen.add_argument("--max-degree", type=_int_at_least(0), default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_b = sub.add_parser("bench", help="timing ladder over random patterns")
    p_b.add_argument("--sizes", type=_int_list(1), default="50,100,200,400", help="comma-separated row counts")
    p_b.add_argument("--edges-factor", type=_int_at_least(1), default=3, help="edges per row")
    p_b.add_argument("--max-degree", type=_int_at_least(0), default=2)
    p_b.add_argument("--seed", type=int, default=0)
    p_b.add_argument("--timeout", type=float, default=10.0, help="per-row budget in seconds")
    p_b.add_argument("--json", action="store_true")
    p_b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
