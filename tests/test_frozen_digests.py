"""Full-size benchmark outputs against the frozen digests.

The benchmark's self-test runs toy shapes, whose digests are not frozen; this
runs each workload once at full size, seed 0, untraced, and requires the
output digest to match ``perfbench/digests.json``. The digests are keyed by
numpy version, so the test skips when the installed numpy has none.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("compare-sgd", "sched-sweep", "bounds-verify")


def frozen_digest(workload: str, seed: int):
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(f"numpy {np.__version__}", {}).get(workload, {}).get(str(seed))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_full_size_outputs_match_frozen_digest(workload):
    if frozen_digest(workload, 0) is None:
        pytest.skip(f"perfbench/digests.json has no {workload} seed-0 digest for numpy {np.__version__}")
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = "\n".join(lines[:-1])
    assert result["correct"] is True, report
    assert result["failed"] == 0, report
    assert "matches the frozen digest" in proc.stdout, report
