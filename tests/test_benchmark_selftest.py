"""The benchmark's self-test, run with the suite.

perfbench/selftest.py runs real ops and checks them against the digests
recorded for the benchmark, so a report whose bytes change fails here
too, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout.splitlines()[-1]
