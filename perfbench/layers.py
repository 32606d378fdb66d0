"""Per-layer counts taken at function boundaries, and the per-layer metrics.

The layers are the package's modules. Counts are computed from arguments and
results at the boundary, never from inside a function, so they compare two
versions of the program only while the boundary keeps its meaning.
"""

from __future__ import annotations

import os

LAYERS = ("latency", "policies", "sgd", "analysis", "harness", "verify", "cli")

# Counts that must repeat exactly between two traced runs of one input, next
# to every function's call count.
EXACT_COUNTS = (
    "latency.exponential_draws",
    "sgd.sample_batches.uniforms",
    "latency.expected_max.terms",
    "latency.variance_of_max.terms",
    "verify.mc_max_samples.draws",
    "harness.write_trace_csv.bytes",
)

# Function -> the workloads on which it must record calls. A wrapper put on
# the wrong module binding records nothing and raises nothing, so every
# per-layer metric's function is listed here. compute_schedule and
# estimate_bound_params only run for a computed schedule, which only the
# bounds-verify workload asks for.
SPAN_CHECKS = {
    "sgd.sample_batches": ("compare-sgd",),
    "sgd.generate_problem": ("compare-sgd", "bounds-verify"),
    "sgd.estimate_bound_params": ("bounds-verify",),
    "harness.run_single": ("compare-sgd", "sched-sweep"),
    "harness.build_pool": ("compare-sgd", "sched-sweep", "bounds-verify"),
    "harness.build_problem": ("compare-sgd", "bounds-verify"),
    "harness.resolve_schedule": ("compare-sgd", "sched-sweep", "bounds-verify"),
    "harness.run_comparison": ("compare-sgd",),
    "harness.identify_fastest": ("compare-sgd", "sched-sweep"),
    "harness.write_trace_csv": ("compare-sgd",),
    "harness.write_comparison_tables": ("compare-sgd",),
    "policies.select_superarm_cmab": ("compare-sgd", "sched-sweep"),
    "policies.select_superarm_optimal": ("compare-sgd", "sched-sweep", "bounds-verify"),
    "policies.record_outcome": ("compare-sgd", "sched-sweep"),
    "policies.compute_schedule": ("bounds-verify",),
    "latency.member_responses": ("compare-sgd", "sched-sweep"),
    "latency.response_vector": ("compare-sgd", "sched-sweep", "bounds-verify"),
    "latency.expected_max": ("compare-sgd", "sched-sweep", "bounds-verify"),
    "latency.variance_of_max": ("bounds-verify",),
    "analysis.compute_gaps": ("sched-sweep", "bounds-verify"),
    "analysis.round_reference_means": ("compare-sgd", "sched-sweep"),
    "analysis.empirical_regret": ("compare-sgd", "sched-sweep"),
    "analysis.regret_bound_curve": ("sched-sweep",),
    "analysis.completion_time_bound": ("bounds-verify",),
    "verify.oracle_suite": ("bounds-verify",),
    "verify.mc_max_samples": ("bounds-verify",),
    "cli.main": ("compare-sgd", "bounds-verify"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_draws(tracer, args, kwargs, result, token):
    tracer.add("latency.exponential_draws", int(result.size))


def _count_batches(tracer, args, kwargs, result, token):
    import numpy as np

    m = _arg(args, kwargs, 0, "problem").m
    tracer.add("sgd.sample_batches.uniforms", int(result.shape[0]) * m)
    tracer.add("sgd.rows_distinct", int(np.count_nonzero(np.bincount(result.ravel(), minlength=m))))
    tracer.add("sgd.rows_offered", m)


def _subset_terms(args, kwargs) -> int:
    import numpy as np

    return (1 << int(np.atleast_1d(_arg(args, kwargs, 0, "rates")).size)) - 1


def _count_expected_max(tracer, args, kwargs, result, token):
    tracer.add("latency.expected_max.terms", _subset_terms(args, kwargs))


def _count_variance_of_max(tracer, args, kwargs, result, token):
    # two enumerations: the first and the second moment
    tracer.add("latency.variance_of_max.terms", 2 * _subset_terms(args, kwargs))


def _count_mc_draws(tracer, args, kwargs, result, token):
    import numpy as np

    rates = np.atleast_1d(_arg(args, kwargs, 0, "rates"))
    tracer.add("verify.mc_max_samples.draws", int(result.size) * int(rates.size))


def _count_csv_bytes(tracer, args, kwargs, result, token):
    tracer.add("harness.write_trace_csv.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _note_policy(tracer, args, kwargs):
    tracer.context["policy"] = _arg(args, kwargs, 1, "policy")


def _suboptimal_before(tracer, args, kwargs):
    return int(_arg(args, kwargs, 0, "state").suboptimal_pulls.sum())


def _count_optimal_pull(tracer, args, kwargs, result, token):
    if str(tracer.context.get("policy", "")).startswith("cmab"):
        tracer.add("policies.bandit_iterations", 1)
        if int(_arg(args, kwargs, 0, "state").suboptimal_pulls.sum()) == token:
            tracer.add("policies.optimal_pulls", 1)


HOOKS = {
    "latency.member_responses": (None, _count_draws),
    "latency.response_vector": (None, _count_draws),
    "latency.expected_max": (None, _count_expected_max),
    "latency.variance_of_max": (None, _count_variance_of_max),
    "sgd.sample_batches": (None, _count_batches),
    "verify.mc_max_samples": (None, _count_mc_draws),
    "harness.write_trace_csv": (None, _count_csv_bytes),
    "harness.run_single": (_note_policy, None),
    "policies.record_outcome": (_suboptimal_before, _count_optimal_pull),
}


def _share(num, den) -> float:
    return num / den if den else 0.0


def layer_values(spans: dict, counts: dict) -> dict:
    """Every per-layer value one traced operation yields, by metric name."""
    out = {}
    for name, span in spans.items():
        for field, value in span.items():
            out[f"{name}.{field}"] = value
    for key in EXACT_COUNTS:
        out[key] = counts.get(key, 0)
    out["sgd.rows_used_share"] = _share(counts.get("sgd.rows_distinct", 0), counts.get("sgd.rows_offered", 0))
    out["policies.optimal_pull_share"] = _share(
        counts.get("policies.optimal_pulls", 0), counts.get("policies.bandit_iterations", 0)
    )
    return out


def exact_values(spans: dict, counts: dict) -> dict:
    """The values that must repeat exactly between traced runs of one input."""
    out = {f"{name}.calls": span["calls"] for name, span in spans.items()}
    out.update({key: counts.get(key, 0) for key in EXACT_COUNTS})
    return out


def span_failures(workload: str, spans: dict) -> list:
    """Functions that should have recorded calls on this workload but did not."""
    return [
        f"no calls recorded for {name}"
        for name, workloads in SPAN_CHECKS.items()
        if workload in workloads and spans.get(name, {}).get("calls", 0) == 0
    ]
