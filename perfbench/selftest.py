"""Self-test of the benchmark's correctness checks.

Runs real ops on one instance of each workload, requires the untouched
outputs to pass, then requires each of these tampered outputs to be caught:
a flipped verdict (with a matching exit code), a dropped redundant edge and
a wrong per-state connectivity entry.  From the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads
from workloads import CONTROLLABLE, UNCONTROLLABLE, Outcome


def flip_verdict(outcomes):
    """Flip the verdict of every report and the exit code with it, so only the content is wrong."""
    flipped = []
    for o in outcomes:
        report = json.loads(o.out)
        if "verdict" in report:
            report["verdict"] = UNCONTROLLABLE if report["verdict"] == CONTROLLABLE else CONTROLLABLE
        flipped.append(Outcome(1 - o.rc, json.dumps(report) + "\n"))
    return tuple(flipped)


def drop_redundant_edge(outcomes):
    report = json.loads(outcomes[0].out)
    report["redundant_edges"] = report["redundant_edges"][1:]
    return (Outcome(outcomes[0].rc, json.dumps(report) + "\n"),) + outcomes[1:]


def wrong_connectivity(outcomes):
    report = json.loads(outcomes[0].out)
    report["state_connectivity"][-1] = not report["state_connectivity"][-1]
    return (Outcome(outcomes[0].rc, json.dumps(report) + "\n"),)


def run_op(cli, inst):
    return tuple(run.call_cli(cli, argv) for argv in inst.argvs)


def first(instances, cli, wanted):
    """First instance whose untouched outputs pass and satisfy ``wanted``."""
    for inst in instances:
        outcomes = run_op(cli, inst)
        reason = inst.check(outcomes)
        if reason is not None:
            raise AssertionError(f"untouched output of {inst.name} fails its check: {reason}")
        if wanted(outcomes):
            return inst, outcomes
    raise AssertionError("no instance with the wanted property")


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import structctrl.cli as cli

    workdir = os.path.join(run.HERE, "_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        recorded = run.load_recorded()
        dae = workloads.random_dae(0, workdir, recorded["random-dae"])
        pencils = workloads.statespace_pencils(0, workdir)
        oracle = [i for i in workloads.oracle_crosscheck(0, workdir, recorded["oracle-crosscheck"]) if len(i.argvs) == 2]

        cases = [
            ("random-dae", "flipped verdict", first(dae, cli, lambda o: True), flip_verdict),
            (
                "random-dae",
                "dropped redundant edge",
                first(dae, cli, lambda o: json.loads(o[0].out)["redundant_edges"]),
                drop_redundant_edge,
            ),
            ("statespace-pencils", "flipped verdict", first(pencils, cli, lambda o: True), flip_verdict),
            (
                "statespace-pencils",
                "wrong connectivity entry",
                first(pencils, cli, lambda o: True),
                wrong_connectivity,
            ),
            ("oracle-crosscheck", "flipped verdict", first(oracle, cli, lambda o: True), flip_verdict),
        ]
        missed = 0
        for workload, what, (inst, outcomes), tamper in cases:
            reason = inst.check(tamper(outcomes))
            print(f"{workload:<20} {what:<26} {'caught: ' + reason if reason else 'MISSED'}")
            missed += reason is None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest " + ("passed" if not missed else f"failed: {missed} tampered outputs not caught"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
