"""Command-line front end: analyze, statespace, oracle, gen, bench.

Exit status contract: 0 = structurally controllable (or zero set empty),
1 = structurally uncontrollable (or zero set nonempty), 2 = input error,
guard violation, or bad usage.  The first output line of the verdict
commands is exactly "structurally controllable" or "structurally
uncontrollable" so shell pipelines can branch on it.

All report indices are printed 1-based, matching the file formats.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import patterns
from .bigraph import build_graph
from .decision import AnalysisReport, analyze, analyze_reduction
from .errors import GuardLimitError
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
    analyze_statespace,
    controllability_pencil,
    controller_canonical,
    gilbert_form,
    siso_interconnection,
)

DEFAULT_SEEDS = "0,1,2,3,4"


@dataclass
class BenchResult:
    p: int
    v: int
    edge_count: int
    reduce_seconds: float
    total_seconds: float
    verdict: str
    status: str


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _report_json(report: AnalysisReport) -> dict:
    return {
        "verdict": report.verdict,
        "minimal": report.minimal,
        "term_rank": report.term_rank,
        "redundant_edges": [[r + 1, c + 1] for r, c in report.redundant_edges],
        "components": [
            {
                "rows": [r + 1 for r in comp.rows],
                "cols": [c + 1 for c in comp.cols],
                "max_weight": comp.max_weight,
            }
            for comp in report.components
        ],
        "witness": None
        if report.witness is None
        else {
            "component": report.witness.component,
            "edge": [report.witness.edge[0] + 1, report.witness.edge[1] + 1],
            "weight": report.witness.weight,
        },
    }


def _print_report(report: AnalysisReport, quiet: bool):
    print(report.verdict)
    if quiet:
        return
    print(f"term rank: {report.term_rank}")
    print(f"minimal: {'yes' if report.minimal else 'no'}")
    if report.redundant_edges:
        listed = " ".join(f"({r + 1},{c + 1})" for r, c in report.redundant_edges)
        print(f"redundant edges: {listed}")
    else:
        print("redundant edges: none")
    print(f"components: {len(report.components)}")
    for idx, comp in enumerate(report.components):
        rows = " ".join(str(r + 1) for r in comp.rows)
        cols = " ".join(str(c + 1) for c in comp.cols)
        print(f"  component {idx}: rows [{rows}] cols [{cols}] max weight {comp.max_weight}")
    if report.witness is not None:
        w = report.witness
        print(f"witness: component {w.component}, edge ({w.edge[0] + 1},{w.edge[1] + 1}), weight {w.weight}")


def cmd_analyze(args) -> int:
    report = analyze(parse_pattern(_read_text(args.file)))
    if args.json:
        print(json.dumps(_report_json(report)))
    else:
        _print_report(report, args.quiet)
    return 0 if report.controllable else 1


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

    if args.json:
        obj = _report_json(rep.base)
        obj["state_connectivity"] = list(rep.state_connectivity)
        obj["cross_check_disagreement"] = cross
        print(json.dumps(obj))
    else:
        _print_report(rep.base, args.quiet)
        if not args.quiet:
            for i, ok in enumerate(rep.state_connectivity):
                print(f"state {i + 1}: {'connected' if ok else 'NOT connected'}")
            if cross is not None:
                _print_cross_check_note(cross, any((i, i) not in ss.a_entries for i in range(ss.n)), rep.controllable)
    return 0 if rep.controllable else 1


def _print_cross_check_note(cross: dict, zero_diagonal: bool, controllable: bool):
    """The disagreement, explained by the two diagonal conventions where they can explain it.

    The conventions differ only where A has a zero diagonal entry, and the
    generic zero set follows the structural model itself; without such an
    entry, or when the generic zero set disagrees, no convention explains it.
    """
    print("note: fixed-coefficient cross-checks disagree with the structural verdict.")
    rank = "full" if cross["kalman_rank_full"] else "deficient"
    print(f"  controllability-matrix rank over random integer instances: {rank}")
    if "zero_set_empty_generic" in cross:
        print(f"  zero set empty, generic coefficients: {'yes' if cross['zero_set_empty_generic'] else 'no'}")
    print(f"  zero set empty, forced-monomial diagonal: {'yes' if cross['zero_set_empty_strict'] else 'no'}")
    if not zero_diagonal or cross.get("zero_set_empty_generic", controllable) != controllable:
        print("  no modeling convention explains this disagreement; it points at a fault in the oracle or the analysis.")
        return
    print("  the structural model treats every diagonal derivative term as an arbitrary")
    print("  degree-1 polynomial; with zero diagonal entries in the state matrix the true")
    print("  pencil can lose rank at s = 0. see README, 'When the two conventions disagree'.")


def cmd_oracle(args) -> int:
    text = _read_text(args.file)
    first = next((line.strip() for line in text.splitlines() if line.strip() and not line.strip().startswith("#")), "")
    ss = parse_statespace(text) if first.startswith("statespace") else None
    pattern = parse_pattern(text) if ss is None else controllability_pencil(ss)
    if args.mode == "generic":
        degrees = zero_set_gcd_degrees(pattern, args.seeds, args.coeff_range)
    elif ss is None:
        raise ValueError("mode statespace_strict requires a statespace file")
    else:  # PBH: the true pencil's gcd degree is n - Krylov rank
        degrees = kalman_deficiencies(ss, args.seeds, args.coeff_range)
    empty = any(d == 0 for d in degrees)
    if args.json:
        print(json.dumps({"mode": args.mode, "seed_gcd_degrees": degrees, "zero_set_empty": empty}))
    else:
        if not args.quiet:
            for seed, d in zip(args.seeds, degrees):
                if d < 0:
                    print(f"seed {seed}: all maximal minors zero")
                else:
                    print(f"seed {seed}: gcd degree {d}")
        print(f"zero set generically empty: {'yes' if empty else 'no'}")
    return 0 if empty else 1


def _random_pattern(rows: int, cols: int, edges: int, max_degree: int, seed: int) -> PolyPattern:
    if edges < 0 or edges > rows * cols:
        raise ValueError(f"edge count {edges} out of range for {rows}x{cols} pattern")
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
        sys.stdout.write(emit_statespace(ss))
    elif kind in ("series", "parallel", "feedback"):
        if args.n1 is None or args.n2 is None:
            raise ValueError(f"gen {kind} requires --n1 and --n2")
        sys.stdout.write(emit_pattern(siso_interconnection(kind, args.n1, args.n2)))
    elif kind == "random":
        if args.rows is None or args.cols is None or args.density_edges is None:
            raise ValueError("gen random requires --rows, --cols and --density-edges")
        patterns._check_vertices(f"{args.rows}x{args.cols} pattern", args.rows + args.cols)  # before it is sampled
        pattern = _random_pattern(args.rows, args.cols, args.density_edges, args.max_degree, args.seed)
        sys.stdout.write(emit_pattern(pattern))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {kind!r}")
    return 0


def cmd_bench(args) -> int:
    if args.edges_factor > min(args.sizes):  # a p x p pattern holds at most p entries per row
        raise ValueError(f"--edges-factor {args.edges_factor} exceeds the smallest --sizes entry {min(args.sizes)}")
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
            BenchResult(
                p=p,
                v=p,
                edge_count=len(g.edges),
                reduce_seconds=reduce_s,
                total_seconds=total_s,
                verdict=report.verdict,
                status="ok" if total_s <= args.timeout else "timeout",
            )
        )
    if args.json:
        print(json.dumps([vars(r) for r in results]))
    else:
        print("p\tv\tedges\treduce_s\ttotal_s\tverdict\tstatus")
        for r in results:
            print(
                f"{r.p}\t{r.v}\t{r.edge_count}\t{r.reduce_seconds:.4f}\t{r.total_seconds:.4f}"
                f"\t{r.verdict}\t{r.status}"
            )
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
    p_gen.add_argument("kind", choices=("canonical", "gilbert", "series", "parallel", "feedback", "random"))
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
