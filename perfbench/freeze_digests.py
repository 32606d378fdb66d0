"""Record the output digests of the current code for one numpy version.

Usage, from the repository root:

    python3 perfbench/freeze_digests.py --seeds 0-99

Runs one untraced operation per (workload, seed) and stores its combined
output digest in perfbench/digests.json under "numpy <version>". The
benchmark then reports a run's outputs as matching, differing or unverified.
Regenerate only on purpose, when the draw contract or output format changes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range A-B")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    lo, hi = (int(tok) for tok in args.seeds.split("-"))
    path = os.path.join(HERE, "digests.json")
    table = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in range(lo, hi + 1):
            report = run.Runner(workloads.WORKLOADS[name], seed, "full").operation(trace=False)
            outcome = report.get("outcome", {})
            if "error" in report or outcome.get("failed") or outcome.get("problems"):
                print(f"{name} seed {seed}: not frozen: {report.get('error') or outcome.get('problems')}")
                return 1
            key = f"numpy {report['provenance']['numpy']}"
            table.setdefault(key, {}).setdefault(name, {})[str(seed)] = outcome["digest"]
            print(f"{name} seed {seed}: {outcome['digest'][:16]}", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
