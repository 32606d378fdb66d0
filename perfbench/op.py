"""One benchmark operation, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/op.py PLAN_JSON

The plan names the workload, its generated config files, the output
directory, the size and whether to trace. The last line of standard output is
a JSON object with the monotonic times of the first simulated iteration (or
first bound evaluation) and of the end of the workload, the peak resident
memory, and the checks, counts and spans taken after the end time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(plan["root"], "src"), here]

    import numpy as np

    import banditsgd
    from banditsgd import analysis, cli, harness, latency, policies, sgd, verify

    import layers
    import tracer
    import workloads

    workload = workloads.WORKLOADS[plan["workload"]]
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in (latency, policies, sgd, analysis, harness, verify, cli)}
    bindings = [banditsgd, *modules.values()]
    spans = probe = None
    if plan["trace"]:
        spans = tracer.Tracer(bindings, [modules[name] for name in layers.LAYERS], layers.HOOKS)
    else:  # set-up time is taken from untraced operations only
        first = [getattr(modules[mod], name) for mod, _, name in (q.partition(".") for q in workload.first_iteration)]
        probe = tracer.FirstCallProbe(bindings, first)

    console = io.StringIO()
    pkg = SimpleNamespace(np=np, cli=cli, harness=harness, analysis=analysis, console=console)
    report = {}
    try:
        with contextlib.redirect_stdout(console):
            ran = workload.run(pkg, plan["configs"], plan["out"], plan["size"])
        report["t_end"] = time.monotonic()
        report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if probe is not None:
            report["t_first"] = probe.fired_at
        if spans is not None:
            spans.uninstall()
            report["spans"] = spans.summary()
            report["counts"] = spans.counts
            if plan.get("spans_out"):
                spans.save(plan["spans_out"])
        with contextlib.redirect_stdout(console):
            report["outcome"] = workload.check(pkg, plan["configs"], plan["out"], plan["size"], ran).as_dict()
    except Exception:  # reported to the benchmark process, which counts the operation as failed
        report["error"] = traceback.format_exc(limit=8)
    report["provenance"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "package_version": getattr(banditsgd, "__version__", "unknown"),
    }
    print(json.dumps(report))
    return 1 if "error" in report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
