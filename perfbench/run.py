"""The repository benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload compare-sgd --seed 0 --seconds 20 --trace 0

The load is a closed loop from this one process: it starts one operation at a
time, each in a fresh interpreter (``op.py``), and starts the next only after
the previous one has ended, until ``--seconds`` have passed. Every operation
of a run uses the same configs, generated from ``--seed``. BLAS runs on one
thread in every operation.

With ``--trace 0`` the operations are untraced and the metrics are the
end-to-end ones of BENCHMARK.json, each the median over the operations.
With ``--trace 1`` untraced and traced operations alternate; the metrics are
the per-layer ones of BENCHMARK.json, medians over the traced operations, and
the benchmark checks that spans were recorded where they must be and that
the exact counts repeat between traced operations.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = 1
MIN_OPERATIONS = 3
OPERATION_TIMEOUT_S = 120
WAITING_NOTE = "no per-layer waiting time: the simulator is single-threaded and has no queues"

# End-to-end figures reported next to the gated ones of BENCHMARK.json. They
# do not apply to every workload, or are zero when all is well, so they are
# printed and checked here but not gated.
EXTRA_UNITS = {
    "sim_iters_per_s": "1/s",
    "failed_share": "ratio",
    "ident_accuracy": "ratio",
    "cost_error_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run at all; it exits nonzero without a result."""


def load_definition() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchmarkError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "banditsgd", "*.py"))):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def child_env() -> dict:
    # Fixed so that set-up time does not depend on the caller's environment:
    # every operation compiles the package from source, and writes nothing to src/.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


class Runner:
    """Spawns operations one at a time and collects their reports."""

    def __init__(self, workload, seed: int, size: str):
        self.workload = workload
        self.size = size
        self.work = os.path.join(HERE, ".work", workload.name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "configs"))
        self.configs = {}
        self.config_sha256 = {}
        for label, text in workload.configs(seed, size).items():
            rel = os.path.relpath(os.path.join(self.work, "configs", f"{label}.cfg"), ROOT)
            with open(os.path.join(ROOT, rel), "w", encoding="utf-8") as fh:
                fh.write(text)
            self.configs[label] = rel
            self.config_sha256[label] = hashlib.sha256(text.encode()).hexdigest()
        self.out = os.path.relpath(os.path.join(self.work, "out"), ROOT)
        self.env = child_env()

    def warm_up(self) -> None:
        """Import the package once so that the file cache is warm before timing."""
        code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import banditsgd.cli"
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True,
                       capture_output=True, timeout=OPERATION_TIMEOUT_S)

    def operation(self, trace: bool) -> dict:
        shutil.rmtree(os.path.join(ROOT, self.out), ignore_errors=True)
        os.makedirs(os.path.join(ROOT, self.out))
        plan = {
            "root": ROOT,
            "workload": self.workload.name,
            "configs": self.configs,
            "out": self.out,
            "size": self.size,
            "trace": trace,
            "spans_out": os.path.join(self.work, "spans.npz") if trace else None,
        }
        plan_path = os.path.join(self.work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        t_spawn = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "op.py"), plan_path], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=OPERATION_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            report = {"error": f"operation exited {proc.returncode} without a report: {proc.stderr[-2000:]}"}
        report["trace"] = trace
        if "error" not in report:
            report["wall_s"] = report["t_end"] - t_spawn
            if not trace and report["t_first"] is None:
                report["error"] = "the first simulated iteration or bound evaluation was never reached"
            elif not trace:
                report["setup_s"] = report["t_first"] - t_spawn
        return report


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload, seed: int, seconds: float, trace: bool, size: str):
    runner = Runner(workload, seed, size)
    runner.warm_up()
    reports = []
    start = time.monotonic()
    last = 0.0
    while True:
        done = len(reports)
        traced = sum(r["trace"] for r in reports)
        enough = done >= MIN_OPERATIONS and (not trace or (traced >= 2 and done - traced >= 1))
        if enough and time.monotonic() - start + last > seconds:
            break
        t0 = time.monotonic()
        reports.append(runner.operation(trace and done % 2 == 1))
        last = time.monotonic() - t0
    return runner, reports


def summarize(workload, seed: int, trace: bool, size: str, definition: dict, runner, reports) -> dict:
    good = [rep for rep in reports if "error" not in rep]
    problems = [rep["error"] for rep in reports if "error" in rep]
    # an operation that crashed counts as one failed operation: its parts are unknown
    attempted = failed = len(problems)
    untraced = [rep for rep in good if not rep["trace"]]
    traced = [rep for rep in good if rep["trace"]]
    if not untraced or (trace and not traced):
        raise BenchmarkError("no operation of a needed kind succeeded:\n" + "\n".join(problems[:5]))

    provenance = dict(good[0]["provenance"])
    frozen = frozen_digest(provenance["numpy"], workload.name, seed) if size == "full" else None
    for rep in good:
        outcome = rep["outcome"]
        attempted += outcome["attempted"]
        # outputs that differ from the frozen digest fail every operation they hold
        failed += outcome["attempted"] if frozen not in (None, outcome["digest"]) else outcome["failed"]
        problems.extend(outcome["problems"])
    digests = sorted({rep["outcome"]["digest"] for rep in good})
    if len(digests) > 1:
        problems.append(f"operations on the same input wrote different outputs: {digests}")
    if frozen is None:
        digest_status = "unverified (no frozen digest for this numpy version, workload and seed)"
    elif digests == [frozen]:
        digest_status = "matches the frozen digest"
    else:
        digest_status = "DIFFERS from the frozen digest"
        problems.append(f"output digests {[d[:16] for d in digests]} differ from the frozen {frozen[:16]}")

    samples = {
        "setup_s": [rep["setup_s"] for rep in untraced],
        "wall_s": [rep["wall_s"] for rep in untraced],
        "peak_rss_mb": [rep["maxrss_kib"] / 1024.0 for rep in untraced],
    }
    iterations = untraced[0]["outcome"]["iterations"]
    if iterations:
        samples["sim_iters_per_s"] = [iterations / (rep["wall_s"] - rep["setup_s"]) for rep in untraced]
    for key in untraced[0]["outcome"]["stats"]:
        samples[key] = [rep["outcome"]["stats"][key] for rep in untraced]
    values = {"failed_share": failed / attempted}
    if trace:
        for rep in traced:
            problems.extend(layers.span_failures(workload.name, rep["spans"]))
        exact = [layers.exact_values(rep["spans"], rep["counts"]) for rep in traced]
        if any(e != exact[0] for e in exact[1:]):
            diff = sorted(k for k in exact[0] if any(e.get(k) != exact[0][k] for e in exact[1:]))
            problems.append(f"exact counts differ between traced runs: {diff[:10]}")
        per_op = [layers.layer_values(rep["spans"], rep["counts"]) for rep in traced]
        for key in per_op[0]:
            samples[key] = [v[key] for v in per_op]
        traced_wall = statistics.median(rep["wall_s"] for rep in traced)
        samples["trace_overhead_share"] = [traced_wall / statistics.median(samples["wall_s"]) - 1]
    values.update({key: statistics.median(vals) for key, vals in samples.items()})

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for entry in definition[section]:
        name = entry["name"]
        if name not in values:
            if trace:  # a function that never ran recorded no span
                values[name] = 0
            else:
                raise BenchmarkError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}

    return {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "operations": {"untraced": len(untraced), "traced": len(traced), "failed": len(reports) - len(good)},
        "metrics": metrics,
        "extra": {k: {"value": values[k], "unit": u} for k, u in EXTRA_UNITS.items() if k in values},
        "samples": samples,
        "digest": digests[0],
        "digest_status": digest_status,
        "problems": list(dict.fromkeys(problems)),
        "attempted": attempted,
        "failed": failed,
        "waiting": WAITING_NOTE,
        "provenance": {
            **provenance,
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "src_lines": src_lines(),
            "config_sha256": runner.config_sha256,
            "shape_source": "harness.benchmark_config() (final switching point 28000); "
            "configs/benchmark.cfg ends at 26000",
        },
    }


def frozen_digest(numpy_version: str, workload: str, seed: int):
    path = os.path.join(HERE, "digests.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(f"numpy {numpy_version}", {}).get(workload, {}).get(str(seed))


def print_report(summary: dict) -> None:
    ops = summary["operations"]
    print(f"perfbench {summary['workload']} seed={summary['seed']} size={summary['size']} "
          f"trace={int(summary['trace'])} operations: {ops['untraced']} untraced, {ops['traced']} traced, "
          f"{ops['failed']} failed")
    shown = {**summary["metrics"], **summary["extra"]}
    for name, metric in shown.items():
        vals = summary["samples"].get(name)
        spread = ""
        if vals and len(vals) > 1:
            q1, q3 = quartiles(vals)
            spread = f"  median of {len(vals)}, quartiles {q1:.6g}..{q3:.6g}"
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}{spread}")
    print(f"  operations failed: {summary['failed']} of {summary['attempted']}")
    print(f"  output digest {summary['digest'][:16]}: {summary['digest_status']}")
    print(f"  {summary['waiting']}")
    for problem in summary["problems"][:20]:
        print(f"  PROBLEM: {problem}")
    print("provenance " + json.dumps(summary["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "toy"), help="toy shapes for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0: it seeds numpy generators")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "banditsgd", "__init__.py")):
            raise BenchmarkError("package source src/banditsgd not found next to the benchmark")
        definition = load_definition()
        workload = workloads.WORKLOADS[args.workload]
        runner, reports = run(workload, args.seed, args.seconds, bool(args.trace), args.size)
        summary = summarize(workload, args.seed, bool(args.trace), args.size, definition, runner, reports)
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, ".work", f"{args.workload}.report.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print_report(summary)
    correct = not summary["problems"] and summary["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"],
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
