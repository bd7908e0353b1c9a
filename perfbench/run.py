"""Time-to-verdict benchmark for structctrl.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload random-dae --seed 1 --seconds 35 --trace 0

Runs one workload in this process as a closed loop with one client: the
next op starts when the previous one has returned.  An op is one instance
run through ``structctrl.cli.main([..., "--json"])`` in-process with stdout
captured (see workloads.py), and every op's output is checked.  Ops run in
whole passes over the seed's instances (at least MIN_INSTANCES of them)
until ``--seconds`` have passed.

An instance's latency is its best op time over the passes.  On a shared
2-vCPU Xeon VM, every op ran up to 2x slower for seconds at a time; there
the median of raw op times moved by a fifth between runs of one seed, and
the best of ten or so passes spread over the run moved far less.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes, prints the per-layer metrics and writes the spans to
perfbench/_work/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2, with no
result, when the checkout has no structctrl sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads
from workloads import Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_INSTANCES = 110  # so that ten or more instance latencies lie beyond the p90
MIN_PASSES = 3
HARD_STOP_S = 150.0  # stop early rather than overrun the 180 s a run may take
SETUP_LAUNCHES = 15
SETUP_PER_PASS = 3  # cold launches between passes, so they spread over the run
SETUP_FIXTURE = os.path.join("fixtures", "wide_2x3.txt")
SETUP_EXPECTED = "structurally controllable\n"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_recorded() -> dict[str, dict]:
    with open(os.path.join(HERE, "recorded.json"), encoding="utf-8") as fh:
        return json.load(fh)


def call_cli(cli, argv) -> Outcome:
    """One in-process CLI call; an exception (argparse's SystemExit included) is an outcome too."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except (Exception, SystemExit) as exc:
        return Outcome(None, f"{type(exc).__name__}: {exc}")
    return Outcome(rc, out.getvalue())


class ColdStart:
    """Wall times of fresh ``python -m structctrl.cli analyze`` calls on the smallest fixture.

    The first launch is untimed and writes the byte-compiled files that any
    installed package has, even where the environment turns that off.
    """

    def __init__(self, root: str):
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.join(root, "src"), env.get("PYTHONPATH"))))
        self.env = env
        self.root = root
        self.times: list[float] = []
        self.problem: str | None = None
        self._launch()
        self.times.clear()

    def _launch(self):
        cmd = [sys.executable, "-m", "structctrl.cli", "analyze", SETUP_FIXTURE, "--quiet"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=60)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != SETUP_EXPECTED:
            self.problem = f"cold CLI call gave exit {proc.returncode}, stdout {proc.stdout[:80]!r}"

    def launch(self, count: int):
        for _ in range(min(count, SETUP_LAUNCHES - len(self.times))):
            self._launch()


def run_pass(cli, instances, tracer, first_op, failures) -> list[float]:
    """Run every instance once and check its outputs; returns the op times in instance order."""
    times = []
    for k, inst in enumerate(instances):
        if tracer is not None:
            tracer.op = first_op + k
        t0 = time.perf_counter()
        outcomes = tuple(call_cli(cli, argv) for argv in inst.argvs)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op(sum(len(o.out.encode("utf-8")) for o in outcomes))
        reason = inst.failure(outcomes)
        if reason is not None:
            failures.append((inst.name, reason))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "structctrl", "cli.py")) or not os.path.isfile(
        os.path.join(root, SETUP_FIXTURE)
    ):
        print("error: run from the root of a structctrl checkout (src/structctrl and fixtures/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import structctrl.cli as cli

    workdir = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        instances = workloads.build(args.workload, args.seed, workdir, load_recorded())
        return measure(args, root, cli, instances)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, cli, instances) -> int:
    problems = []
    if len(instances) < MIN_INSTANCES:
        problems.append(f"{len(instances)} instances, fewer than {MIN_INSTANCES}")
    cold = None if args.trace else ColdStart(root)
    if cold is not None:
        cold.launch(SETUP_PER_PASS)
    tracer = spans.Tracer() if args.trace else None

    call_cli(cli, instances[0].argvs[0])  # warm-up, untimed and unchecked
    best = [float("inf")] * len(instances)
    best_traced = [float("inf")] * len(instances)
    failures: list[tuple[str, str]] = []
    passes = 0
    start = time.perf_counter()
    while True:
        traced = args.trace and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            times = run_pass(cli, instances, tracer if traced else None, passes * len(instances), failures)
        finally:
            if traced:
                tracer.remove()
        target = best_traced if traced else best
        target[:] = map(min, target, times)
        passes += 1
        if cold is not None:
            cold.launch(SETUP_PER_PASS)
        elapsed = time.perf_counter() - start
        if args.trace and passes % 2:
            continue  # end on a traced pass, so traced and untraced passes pair up
        if (elapsed >= args.seconds and passes >= MIN_PASSES) or elapsed >= HARD_STOP_S:
            break
    attempted = passes * len(instances)

    first_failure: dict[str, str] = {}
    for name, reason in failures:
        first_failure.setdefault(name, reason)
    for name, reason in first_failure.items():
        print(f"failed: {name}: {reason}", file=sys.stderr)
    checked = [inst for inst in instances if inst.verified is not None]
    share = sum(inst.controllable() for inst in checked) / len(checked) if checked else 0.0
    if not 0.0 < share < 1.0:
        problems.append(f"only one verdict among the checked instances (controllable share {share})")
    if cold is not None:
        cold.launch(SETUP_LAUNCHES)
        if cold.problem:
            problems.append(cold.problem)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} instances={len(instances)} "
        f"controllable_share={share:.3f} passes={passes} ops={attempted} "
        f"loop_s={time.perf_counter() - start:.3f} nproc={os.cpu_count()} python={platform.python_version()}"
    )

    if args.trace:
        metrics = spans.layer_metrics(tracer, attempted // 2, sum(best_traced) / sum(best) - 1.0)
        tracer.write(os.path.join(HERE, "_work", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        ms = sorted(t * 1e3 for t in best)
        metrics = {
            "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "latency_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
            "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "success_rate": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(cold.times), "unit": "s"},
        }
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
