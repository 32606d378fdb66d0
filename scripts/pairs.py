"""Alternating before-and-after pairs of one command, each side run from its own copy of the tree.

Usage, from the repository root:

    python3 scripts/pairs.py --before HEAD --after WORKTREE --pairs 10 --scratch /tmp/pairs \\
        --workload compare-sgd --seed 300 --out pairs.json
    python3 scripts/pairs.py --before HEAD --after WORKTREE --pairs 2 --scratch /tmp/pairs \\
        --compare configs/benchmark.cfg

A side is a git ref, exported with ``git archive``, or ``WORKTREE``: the
working tree as it stands, copied without ``.git`` and without the leftovers
of building, testing and benchmarking (no git runs for it). The copies sit at
``SCRATCH/a/tree`` (before) and ``SCRATCH/b/tree`` (after), paths of equal
depth and length, since the path's length moves peak memory by a fraction of
a MiB. Both hold no bytecode, and every run sets ``PYTHONDONTWRITEBYTECODE``,
so each run compiles the package from source.

The command is one of two:

- ``--workload W``: ``perfbench/run.py --workload W --seed S --seconds T
  --trace 0``, run unchanged from each copy, where T is BENCHMARK.json's
  ``run_seconds`` (both copies must agree on it); pair i runs both sides on
  seed S + i, and a run's figures are run.py's medians over its operations;
- ``--compare C``: ``banditsgd compare --config C --out out``, run in each
  copy with BLAS on one thread; a run's figures are its wall time and the
  child's own ``ru_maxrss``, and its outputs are digested, so a pair shows
  whether both sides wrote the same bytes.

Runs go one process at a time: first one unrecorded run of each side for a
workload (none for ``compare``, whose every run starts cold), then the
pairs, the before side first in even pairs (counting from 0) and the after
side first in odd ones. The script prints each metric's
medians and quartiles (inclusive method), the pairs where the after side read
lower (ties count for neither), and for a workload the verdict against
BENCHMARK.json's bound. ``--out`` writes the record a ``BENCH_*.json`` takes:
environment, command, method, and every run's values.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"
LEFTOVERS = (".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build", "results", ".work")
METRICS = {"workload": ("setup_s", "wall_s", "peak_rss_mb"), "compare": ("wall_s", "peak_rss_mb")}
WARMUPS = {"workload": 1, "compare": 0}
BLAS_THREADS = 1
RUN_TIMEOUT_S = 3600


def export(side: str, dest: str) -> str:
    """Copy ``side`` (a git ref or ``WORKTREE``) to ``dest``; return the commit it names, or ``WORKTREE``."""
    shutil.rmtree(dest, ignore_errors=True)
    if side == WORKTREE:
        shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(*LEFTOVERS))
        return WORKTREE
    git = ["git", "-C", ROOT]
    sha = subprocess.run([*git, "rev-parse", "--verify", f"{side}^{{commit}}"], check=True, capture_output=True,
                         text=True).stdout.strip()
    archive = subprocess.run([*git, "archive", "--format=tar", sha], check=True, capture_output=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def child_env(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def run_workload(args, tree: str, pair: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed + pair),
            "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=child_env(tree), capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"exit": proc.returncode, "correct": False, "attempted": 1, "failed": 1, "error": proc.stderr[-2000:]}
    values = {name: report["metrics"][name]["value"] for name in METRICS["workload"]}
    return {**values, "exit": proc.returncode, "correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"]}


def run_compare(args, tree: str, pair: int) -> dict:
    out, log = os.path.join(tree, "out"), os.path.join(os.path.dirname(tree), "stderr.txt")
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-m", "banditsgd.cli", "compare", "--config", args.compare, "--out", "out"]
    with open(os.devnull, "wb") as sink, open(log, "wb") as errors:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=tree, env=child_env(tree), stdout=sink, stderr=errors)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak, not the largest child's so far
        wall = time.monotonic() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    result = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": code, "correct": code == 0,
              "attempted": 1, "failed": int(code != 0), "outputs_sha256": digest.hexdigest()}
    if code != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            result["error"] = fh.read()[-2000:]
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(before: list, after: list, bound: float) -> str:
    """The after side's median against the before side's, lower being better, with the benchmark's bound."""
    low, high = spread(before), spread(after)
    if (high["median"] - low["median"]) / low["median"] > bound:
        return "WORSE than its bound"
    if (low["q3"] - low["q1"]) / low["median"] > bound and max(after) >= min(before):
        return "unresolved: the before side's spread is wider than the bound"
    return "within its bound"


def benchmark(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summarize(kind: str, runs: dict, definition: dict | None) -> dict:
    bounds = {entry["name"]: entry["bound"] for entry in definition["end_to_end"]} if definition else {}
    summary = {}
    for name in METRICS[kind]:
        pairs = [(b[name], a[name]) for b, a in zip(runs["before"], runs["after"]) if name in b and name in a]
        if not pairs:
            continue
        before, after = (list(side) for side in zip(*pairs))
        low, high = spread(before), spread(after)
        summary[name] = {
            "before": {**low, "runs": before},
            "after": {**high, "runs": after},
            "change_share": (high["median"] - low["median"]) / low["median"],
            "after_lower_in_pairs": sum(a < b for b, a in pairs),
            "ties": sum(a == b for b, a in pairs),
        }
        if name in bounds:
            summary[name].update(bound=bounds[name], verdict=verdict(before, after, bounds[name]))
    return summary


def method(args, kind: str) -> str:
    command = (f"perfbench/run.py --workload {args.workload} --seconds {args.seconds} --trace 0, seeds "
               f"{args.seed}..{args.seed + args.pairs - 1} (pair i on seed {args.seed} + i), each run's figure "
               "run.py's median over its operations" if kind == "workload" else
               f"banditsgd compare --config {args.compare} --out out with BLAS on {BLAS_THREADS} thread, "
               "wall time around the child and the child's own ru_maxrss (os.wait4)")
    return (f"scripts/pairs.py: {args.pairs} alternating pairs (before side first in even pairs, counting from 0) "
            f"after {WARMUPS[kind]} unrecorded warm-up run(s) per side, one process at a time; {command}; each side "
            "from its own copy of the tree (git archive of a ref, or the working tree without .git and leftovers) at "
            "paths of equal depth and length, no bytecode on disk and PYTHONDONTWRITEBYTECODE=1; medians and "
            "quartiles (inclusive method) over runs; ties count for neither side")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help=f"git ref or {WORKTREE}")
    parser.add_argument("--after", required=True, help=f"git ref or {WORKTREE}")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--scratch", required=True, help="directory for the two copies, outside the repository")
    command = parser.add_mutually_exclusive_group(required=True)
    command.add_argument("--workload", help="a perfbench workload")
    command.add_argument("--compare", metavar="CONFIG", help="a config file, relative to each copy or absolute")
    parser.add_argument("--seed", type=int, default=0, help="the workload seed of pair 0")
    parser.add_argument("--out", help="JSON record path")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    scratch = os.path.abspath(args.scratch)
    if os.path.commonpath([scratch, ROOT]) == ROOT:
        parser.error("--scratch must lie outside the repository, which a copy of the working tree would take in")
    kind, run = ("workload", run_workload) if args.workload else ("compare", run_compare)

    trees = {"before": os.path.join(scratch, "a", "tree"), "after": os.path.join(scratch, "b", "tree")}
    sides = {side: {"ref": getattr(args, side), "commit": export(getattr(args, side), tree), "tree": tree}
             for side, tree in trees.items()}
    definition = None
    if kind == "workload":
        definition = benchmark(trees["after"])
        args.seconds = definition["run_seconds"]
        if benchmark(trees["before"])["run_seconds"] != args.seconds:
            parser.error("the two sides' BENCHMARK.json give different run_seconds")
    runs = {"before": [], "after": []}
    for i in range(WARMUPS[kind]):
        for side in ("before", "after"):
            run(args, trees[side], i)
    for i in range(args.pairs):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            runs[side].append(result := run(args, trees[side], i))
            print(f"pair {i} {side:6s} " + " ".join(f"{k}={v:.6g}" for k, v in result.items()
                                                    if k in METRICS[kind]) + f" exit={result['exit']}", flush=True)

    summary = summarize(kind, runs, definition)
    print(f"{args.pairs} pairs, {kind} {args.workload or args.compare}: {sides['before']['ref']} -> "
          f"{sides['after']['ref']}")
    for name, entry in summary.items():
        low, high = entry["before"], entry["after"]
        print(f"  {name:12s} {low['median']:.6g} [{low['q1']:.6g}, {low['q3']:.6g}] -> {high['median']:.6g} "
              f"[{high['q1']:.6g}, {high['q3']:.6g}]  {entry['change_share']:+.2%}, after lower in "
              f"{entry['after_lower_in_pairs']} of {args.pairs}" + (f"; {entry['verdict']}" if "verdict" in entry
                                                                    else ""))
    failed = {side: sum(r["failed"] for r in side_runs) for side, side_runs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in side_runs) for side, side_runs in runs.items()}
    print(f"  failed operations: {failed['before']} of {attempted['before']} -> {failed['after']} of "
          f"{attempted['after']}")
    record = {
        "command": (["python3", "perfbench/run.py", "--workload", args.workload, "--seed", "<seed>", "--seconds",
                     str(args.seconds), "--trace", "0"] if kind == "workload" else
                    ["python3", "-m", "banditsgd.cli", "compare", "--config", args.compare, "--out", "out"]),
        "method": method(args, kind),
        "environment": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "machine": platform.machine(),
        },
        "sides": sides,
        "pairs": args.pairs,
        "summary": summary,
        "failed_operations": failed,
        "attempted_operations": attempted,
        "runs": runs,
    }
    if kind == "compare":
        record["outputs_identical_in_pairs"] = sum(
            b["outputs_sha256"] == a["outputs_sha256"] for b, a in zip(runs["before"], runs["after"])
        )
        print(f"  outputs identical in {record['outputs_identical_in_pairs']} of {args.pairs} pairs")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
