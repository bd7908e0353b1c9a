"""Record the per-instance facts that perfbench/recorded.json holds.

* random-dae: for each instance of the universe, the SHA-256 (first 16 hex
  digits) of the ``analyze --json`` report and the exit code.  No
  independent method decides patterns of a few hundred rows, so this check
  is regression-only: every report must stay byte-identical.
* oracle-crosscheck: for each small pattern of the universe, the exit code
  of ``oracle --json`` (0: zero set empty).  It only lets a run take equal
  numbers of each verdict; every op is still checked against the oracle.

Run it from the root of a checkout only when reports are meant to change,
naming the commit it runs on:

    python3 perfbench/record.py <commit-id>
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import structctrl.cli as cli

    workdir = os.path.join(run.HERE, "_work", f"record-{os.getpid()}")
    os.makedirs(workdir)
    path = os.path.join(workdir, "pattern.txt")

    def call(command, text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        outcome = run.call_cli(cli, (command, path, "--json"))
        if outcome.rc not in (0, 1):
            raise RuntimeError(f"{command} failed: {outcome}")
        return outcome

    dae, small = {}, {}
    try:
        for p, v in workloads.DAE_SHAPES:
            for index in range(workloads.DAE_UNIVERSE):
                outcome = call("analyze", workloads.dae_pattern_text(p, v, index))
                dae[workloads.universe_key(p, v, index)] = f"{workloads.digest(outcome.out)}:{outcome.rc}"
        for p, v in workloads.ORACLE_SHAPES:
            for index in range(workloads.ORACLE_UNIVERSE):
                text = workloads.small_pattern_text(p, v, index)
                outcomes = (call("analyze", text), call("oracle", text))
                reason = workloads.check_oracle_pattern(outcomes)
                if reason is not None:
                    raise RuntimeError(f"{p}x{v}:{index}: {reason}")
                small[workloads.universe_key(p, v, index)] = outcomes[1].rc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"recorded_at": argv[0], "random-dae": dae, "oracle-crosscheck": small}
    with open(os.path.join(run.HERE, "recorded.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
