"""Fast self-test of the benchmark: every workload end to end at toy sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DEFINITION = json.load(_fh)


# End-to-end figures printed but not gated, by the workloads they exist on.
UNGATED = {
    "compare-sgd": ("sim_iters_per_s", "failed_share", "ident_accuracy", "cost_error_ratio"),
    "sched-sweep": ("sim_iters_per_s", "failed_share", "ident_accuracy"),
    "bounds-verify": ("failed_share",),
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines[:-1])
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = DEFINITION["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        # the human-readable lines name the metric with its unit too
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split() for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in section)
        for name in UNGATED[workload]:
            assert any(line.split()[:1] == [name] for line in lines[:-1]), name


def test_every_layer_metric_has_a_span_check():
    for metric in DEFINITION["per_layer"]:
        name = metric["name"]
        if name == "trace_overhead_share" or name in layers.EXACT_COUNTS:
            continue
        function = {"sgd.rows_used_share": "sgd.sample_batches",
                    "policies.optimal_pull_share": "policies.record_outcome"}.get(name, name.rsplit(".", 1)[0])
        assert function in layers.SPAN_CHECKS, name


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "compare-sgd", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_follows_bindings_and_splits_self_time():
    lower = types.ModuleType("pkg.lower")
    exec("def leaf(x):\n    return sum(range(x))\n", lower.__dict__)
    upper = types.ModuleType("pkg.upper")
    upper.leaf = lower.leaf  # bound by name, as `from .lower import leaf` does
    exec("def outer(x):\n    return leaf(x) + leaf(x)\n", upper.__dict__)
    original = lower.leaf
    hooks = {"lower.leaf": (None, lambda t, args, kwargs, result, token: t.add("n", args[0]))}
    counted = tracer.Tracer([lower, upper], [lower, upper], hooks)
    assert upper.outer(100_000) == 2 * sum(range(100_000))
    counted.uninstall()
    assert upper.leaf is original and lower.leaf is original
    spans = counted.summary()
    assert spans["lower.leaf"]["calls"] == 2 and spans["upper.outer"]["calls"] == 1
    assert counted.counts == {"n": 200_000}
    outer = spans["upper.outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - spans["lower.leaf"]["total_s"], abs=1e-12)
    assert 0 <= outer["self_s"] < outer["total_s"]
