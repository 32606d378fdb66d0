"""Experiment orchestration: config, seeded streams, runs, and comparison tables.

Every run derives all randomness from its seed through named, independent
generator streams (data-generation, mean-assignment, worker-latency,
batch-sampling), so policies compared under the same seed share the worker
pool, the dataset, and the batch draws; they differ only in scheduling. A
fixed ``pool_seed`` (or ``data_seed``) pins the pool (or dataset) across run
seeds for experiments that average over a single environment.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis, sgd
from .analysis import RunTrace
from .latency import WorkerPool, member_responses, response_vector
from .policies import (
    PLAIN,
    SCALED,
    BanditState,
    RadiusVariant,
    RoundSchedule,
    compute_schedule,
    record_outcome,
    select_superarm_cmab,
    select_superarm_optimal,
)

logger = logging.getLogger(__name__)

STREAM_LABELS = ("data-generation", "mean-assignment", "worker-latency", "batch-sampling")

POLICY_NAMES = ("cmab-plain", "cmab-scaled", "cmab", "optimal", "adaptive-ksync")

TRACE_HEADER = "iter,round,policy,seed,superarm,response_time,cum_time,employments,cum_employments,model_error"


def stream_rng(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one named stream of a seeded run."""
    idx = STREAM_LABELS.index(label)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=int(seed), spawn_key=(idx,))))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; file keys and CLI flags map 1:1 to fields.

    ``schedule`` is either the literal string "computed" (switching points
    derived from the convergence bound with proximity factor ``theta``) or a
    comma-separated list of ``b`` strictly increasing iteration indices.
    Worker means are drawn from the grid ``mean_min..mean_max`` in steps of
    ``mean_step``, with replacement unless ``distinct_means`` is set.
    """

    n: int = 50
    b: int = 20
    m: int = 2000
    d: int = 100
    eta: float = 1e-4
    seeds: tuple = tuple(range(10))
    policies: tuple = ("cmab-plain", "cmab-scaled", "optimal", "adaptive-ksync")
    variant: str = "plain"
    schedule: str = "computed"
    theta: float = 0.1
    j_cap: int = 1_000_000
    mean_min: float = 0.1
    mean_max: float = 0.9
    mean_step: float = 0.1
    distinct_means: bool = False
    worker_means: tuple | None = None
    pool_seed: int | None = None
    data_seed: int | None = None
    simulate_sgd: bool = True
    bound_tail_term: str = "pi2/3"
    out_dir: str | None = None
    write_traces: bool = True
    mc_samples: int = 1_000_000
    mc_lists: int = 50

    def __post_init__(self) -> None:
        if not 1 <= self.b <= self.n:
            raise ValueError(f"need 1 <= b <= n, got b={self.b}, n={self.n}")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise ValueError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
        if self.variant not in ("plain", "scaled"):
            raise ValueError("variant must be 'plain' or 'scaled'")
        if not 0 < self.mean_min <= self.mean_max:
            raise ValueError("need 0 < mean_min <= mean_max")
        if self.mean_step <= 0:
            raise ValueError("mean_step must be > 0")
        if self.m < 1 or self.d < 1:
            raise ValueError(f"need m >= 1 and d >= 1, got m={self.m}, d={self.d}")
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not self.theta > 0:
            raise ValueError(f"theta must be > 0, got {self.theta}")
        if self.worker_means is not None and len(self.worker_means) != self.n:
            raise ValueError(f"worker_means lists {len(self.worker_means)} values but n={self.n}")
        self.switching_points()  # parse eagerly so bad values fail here

    def switching_points(self) -> tuple | None:
        """Explicit switching points, or None for computed mode."""
        if self.schedule.strip() == "computed":
            return None
        try:
            points = tuple(int(tok) for tok in self.schedule.split(",") if tok.strip())
        except ValueError as exc:
            raise ValueError(f"cannot parse schedule {self.schedule!r}") from exc
        if len(points) != self.b:
            raise ValueError(f"schedule lists {len(points)} switching points but b={self.b}")
        return points

    def mean_grid(self) -> np.ndarray:
        count = int(round((self.mean_max - self.mean_min) / self.mean_step)) + 1
        grid = np.round(np.linspace(self.mean_min, self.mean_max, count), 12)
        if self.distinct_means and grid.size < self.n:
            raise ValueError(
                f"distinct means need a grid of at least n={self.n} values; "
                f"got {grid.size} (shrink mean_step)"
            )
        return grid

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        """Parse a flat key=value text file ('#' starts a comment)."""
        values: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_mapping(values)

    @classmethod
    def from_mapping(cls, values: dict) -> "ExperimentConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in values.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, value)
        return cls(**kwargs)


def _coerce(key: str, value):
    """Coerce a config-file string to the field's python type."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    if key in ("seeds", "policies"):
        items = [tok.strip() for tok in text.split(",") if tok.strip()]
        return tuple(int(tok) for tok in items) if key == "seeds" else tuple(items)
    if key in ("pool_seed", "data_seed", "out_dir"):
        return None if text.lower() in ("none", "") else (text if key == "out_dir" else int(text))
    if key in ("distinct_means", "simulate_sgd", "write_traces"):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r} expects a boolean, got {text!r}")
    if key == "worker_means":
        if text.lower() in ("none", ""):
            return None
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    if key in ("n", "b", "m", "d", "j_cap", "mc_samples", "mc_lists"):
        return int(text)
    if key in ("eta", "theta", "mean_min", "mean_max", "mean_step"):
        return float(text)
    return text


def benchmark_config(**overrides) -> ExperimentConfig:
    """Desk-scale variant of the 50-worker benchmark.

    Means are drawn without replacement from a step-0.01 refinement of the
    0.1..0.9 grid (50 distinct means cannot come from the 9-value grid), and
    the switching points are fixed for comparability: rounds 1-19 run 1000
    iterations each and the final round 9000, a budget of 370 000
    employments. The long final round is what pins down the fastest-worker
    ranking; a uniform split of the same budget identifies noticeably worse.
    """
    base = ExperimentConfig(
        mean_step=0.01,
        distinct_means=True,
        schedule=",".join([str(1000 * r) for r in range(1, 20)] + ["28000"]),
    )
    return base.replace(**overrides) if overrides else base


def sample_worker_means(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    grid = config.mean_grid()
    return rng.choice(grid, size=config.n, replace=not config.distinct_means)


def build_pool(config: ExperimentConfig, seed: int) -> WorkerPool:
    """Worker pool for one run; pinned across runs when pool_seed is set,
    or fixed outright by an explicit worker_means list."""
    if config.worker_means is not None:
        return WorkerPool(1.0 / np.asarray(config.worker_means, dtype=np.float64))
    pool_seed = config.pool_seed if config.pool_seed is not None else seed
    means = sample_worker_means(config, stream_rng(pool_seed, "mean-assignment"))
    return WorkerPool(1.0 / means)


def build_problem(config: ExperimentConfig, seed: int) -> sgd.SgdProblem:
    data_seed = config.data_seed if config.data_seed is not None else seed
    return sgd.generate_problem(
        config.m, config.d, stream_rng(data_seed, "data-generation"), b=config.b, eta=config.eta
    )


def resolve_schedule(config: ExperimentConfig, problem=None):
    """Schedule plus the bound parameters used (None in explicit mode)."""
    points = config.switching_points()
    if points is not None:
        return RoundSchedule(points), None
    if problem is None:
        raise ValueError("computed schedule mode needs the learning problem (simulate_sgd=true)")
    params = sgd.estimate_bound_params(problem)
    return compute_schedule(params, config.b, config.theta, config.j_cap), params


def policy_variant(policy: str, config: ExperimentConfig) -> RadiusVariant | None:
    if policy == "cmab-plain":
        return PLAIN
    if policy == "cmab-scaled":
        return SCALED
    if policy == "cmab":
        return PLAIN if config.variant == "plain" else SCALED
    return None


def run_single(config: ExperimentConfig, policy: str, seed: int) -> RunTrace:
    """Execute one seeded run of one policy over the full round schedule.

    Per-iteration draw accounting (fixed so traces replay bit-exactly):
    bandit and omniscient runs consume r exponential variates (ascending
    member order) from the latency stream and r*m uniforms from the batch
    stream; the k-sync baseline consumes n exponentials (index order) and
    r*m batch uniforms for the r used workers.
    """
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}")
    pool = build_pool(config, seed)
    problem = build_problem(config, seed) if config.simulate_sgd else None
    schedule, params = resolve_schedule(config, problem)
    if schedule.b != config.b:
        raise ValueError(f"schedule has {schedule.b} rounds but config.b={config.b}")

    latency_rng = stream_rng(seed, "worker-latency")
    batch_rng = stream_rng(seed, "batch-sampling")
    variant = policy_variant(policy, config)
    is_ksync = policy == "adaptive-ksync"
    n = pool.n
    horizon = schedule.horizon
    rounds = schedule.rounds_of(np.arange(1, horizon + 1)).astype(np.int64)

    offsets = np.zeros(horizon + 1, dtype=np.int64)
    np.cumsum(rounds, out=offsets[1:])
    members = np.zeros(offsets[-1], dtype=np.int32)
    member_resp = np.zeros(offsets[-1], dtype=np.float64)
    times = np.zeros(horizon)
    errors = np.full(horizon, np.nan)
    employ = np.full(horizon, n, dtype=np.int64) if is_ksync else rounds.copy()

    state = BanditState.zeros(n)
    ksync_sums = np.zeros(n, dtype=np.float64)
    optimal_sets = [select_superarm_optimal(pool, r) for r in range(1, schedule.b + 1)]

    if problem is not None:
        w = problem.w0.copy()
        step_base = problem.eta / problem.s

    for j in range(1, horizon + 1):
        r = int(rounds[j - 1])
        if is_ksync:
            draws = response_vector(pool, latency_rng)
            arm = np.sort(np.argsort(draws, kind="stable")[:r])
            resp = draws[arm]
            ksync_sums += draws
        else:
            if variant is None:  # omniscient policy
                arm = optimal_sets[r - 1]
            else:
                arm = select_superarm_cmab(state, variant, r, j)
            resp = member_responses(pool, arm, latency_rng)
            record_outcome(state, arm, resp, pool, r, j)
        times[j - 1] = resp.max()
        lo = offsets[j - 1]
        members[lo : lo + r] = arm
        member_resp[lo : lo + r] = resp

        if problem is not None:
            batches = sgd.sample_batches(problem, r, batch_rng)
            w = w - (step_base / r) * sgd.batch_gradient(problem, w, batches)
            err = sgd.model_error(problem, w)
            if not math.isfinite(err):
                raise ValueError(f"model error is {err} at iteration {j}; eta={config.eta} is too large to converge")
            errors[j - 1] = err

    if is_ksync:
        pulls, sums, subopt = np.full(n, horizon, dtype=np.int64), ksync_sums, np.zeros(n, dtype=np.int64)
    else:
        pulls, sums, subopt = state.pulls, state.response_sums, state.suboptimal_pulls

    metadata = {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in dataclasses.asdict(config).items()},
        "schedule_mode": "explicit" if config.switching_points() is not None else "computed",
        "bound_params": dataclasses.asdict(params) if params is not None else None,
        "budget": schedule.budget,
        "worker_indexing": "0-based",
        "batch_scheme": "uniform without replacement per worker, independent across workers and iterations",
        "latency_redraw": "independent per iteration",
    }
    if config.switching_points() is None:
        metadata["theta"] = config.theta
    return RunTrace(
        policy=policy,
        seed=int(seed),
        variant=variant.tag if variant is not None else None,
        schedule=schedule,
        rates=pool.rates,
        rounds=rounds,
        response_times=times,
        cum_times=np.cumsum(times),
        employments=employ,
        cum_employments=np.cumsum(employ),
        model_errors=errors,
        member_offsets=offsets,
        members=members,
        member_responses=member_resp,
        pulls=pulls.copy(),
        response_sums=sums.copy(),
        suboptimal_pulls=subopt.copy(),
        suboptimal_count=int(subopt.sum()),
        metadata=metadata,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(trace: RunTrace, path: str) -> None:
    """Serialize a trace with the fixed header; one row per iteration."""
    lines = [TRACE_HEADER]
    offsets = trace.member_offsets
    for j in range(1, len(trace) + 1):
        arm = trace.members[offsets[j - 1] : offsets[j]]
        lines.append(
            ",".join(
                (
                    str(j),
                    str(int(trace.rounds[j - 1])),
                    trace.policy,
                    str(trace.seed),
                    "|".join(str(int(i)) for i in arm),
                    _fmt(trace.response_times[j - 1]),
                    _fmt(trace.cum_times[j - 1]),
                    str(int(trace.employments[j - 1])),
                    str(int(trace.cum_employments[j - 1])),
                    _fmt(trace.model_errors[j - 1]),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class IdentificationReport:
    """Which workers each run ended up treating as the fastest b."""

    identified: list
    accuracies: np.ndarray
    mean_accuracy: float
    exact_matches: int


def identify_fastest(traces) -> IdentificationReport:
    """Most-employed b workers in each run's final round vs the true fastest b."""
    identified = []
    accuracies = []
    exact = 0
    for trace in traces:
        b = trace.schedule.b
        counts = trace.final_round_counts()
        chosen = np.sort(np.argsort(-counts, kind="stable")[:b])
        truth = np.sort(np.argsort(1.0 / trace.rates, kind="stable")[:b])
        overlap = np.intersect1d(chosen, truth).size
        identified.append(chosen)
        accuracies.append(overlap / b)
        exact += int(overlap == b)
    acc = np.asarray(accuracies)
    return IdentificationReport(identified, acc, float(acc.mean()), exact)


def error_at_employments(trace: RunTrace, budget: int) -> float:
    """Model error at the first iteration whose cumulative employments reach ``budget``."""
    idx = int(np.searchsorted(trace.cum_employments, budget, side="left"))
    if idx >= len(trace):
        raise ValueError(f"trace only accumulates {trace.cum_employments[-1]} employments; need {budget}")
    return float(trace.model_errors[idx])


def run_comparison(config: ExperimentConfig):
    """Run every configured (policy, seed) pair and build the figure tables.

    Returns a dict with per-policy seed-averaged error curves (indexed by
    iteration, wall-clock time, and cumulative employments), per-worker
    employment profiles sorted fastest to slowest, mean regret curves with
    the worst-case guarantee when the pool is pinned and satisfies its
    assumptions, and fastest-worker identification reports.
    """
    if len(config.policies) < 2:
        raise ValueError("comparison needs at least two policies")
    traces = {p: [run_single(config, p, s) for s in config.seeds] for p in config.policies}
    for policy, runs in traces.items():
        if any(t.schedule.switching_points != runs[0].schedule.switching_points for t in runs):
            raise ValueError(
                f"{policy}: computed schedules differ across seeds; pin data_seed or use an explicit schedule"
            )

    error_curves = {}
    employment_profiles = {}
    regret_tables = {}
    identification = {}
    for policy, runs in traces.items():
        horizon = len(runs[0])
        error_curves[policy] = {
            "iter": np.arange(1, horizon + 1),
            "cum_time_mean": np.mean([t.cum_times for t in runs], axis=0),
            "cum_employments": runs[0].cum_employments.copy(),
            "model_error_mean": np.mean([t.model_errors for t in runs], axis=0),
        }
        if policy != "adaptive-ksync":
            by_rank = [t.pulls[np.argsort(1.0 / t.rates, kind="stable")] for t in runs]
            employment_profiles[policy] = np.mean(by_rank, axis=0)
        if policy in ("cmab", "cmab-plain", "cmab-scaled"):
            identification[policy] = identify_fastest(runs)
            pool = WorkerPool(runs[0].rates)
            schedule = runs[0].schedule
            # regret of each run is measured against its own pool's optimum,
            # so per-seed pools average cleanly
            per_run = [analysis.empirical_regret(t, WorkerPool(t.rates), t.schedule) for t in runs]
            table = {
                "iter": np.arange(1, horizon + 1),
                "mean_regret": np.mean(per_run, axis=0),
            }
            if config.pool_seed is not None and pool.theorem_valid:
                gaps = analysis.compute_gaps(pool, schedule)
                if 0.0 < gaps.delta_min < math.inf:
                    js = np.arange(1, horizon + 1)
                    plain_log = analysis.regret_bound_curve(
                        pool, schedule, js, gaps=gaps, tail_term=config.bound_tail_term
                    )
                    truncated = analysis.regret_bound_curve(
                        pool, schedule, js, gaps=gaps, tail_term=config.bound_tail_term, log_truncated=True
                    )
                    table["bound_log_iter"] = plain_log
                    table["bound_log_truncated"] = truncated
                    table["bound_tighter"] = np.minimum(plain_log, truncated)
            regret_tables[policy] = table

    result = {
        "traces": traces,
        "error_curves": error_curves,
        "employment_profiles": employment_profiles,
        "regret": regret_tables,
        "identification": identification,
        "summary": _summarize(config, traces, identification),
    }
    if config.out_dir:
        write_comparison_tables(result, config)
    return result


def _summarize(config, traces, identification) -> dict:
    summary = {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in dataclasses.asdict(config).items()},
        "budget": next(iter(traces.values()))[0].schedule.budget,
        "policies": {},
    }
    for policy, runs in traces.items():
        entry = {
            "final_error_mean": float(np.mean([t.model_errors[-1] for t in runs])),
            "final_time_mean": float(np.mean([t.cum_times[-1] for t in runs])),
            "total_employments": int(runs[0].cum_employments[-1]),
            "suboptimal_pulls_mean": float(np.mean([t.suboptimal_count for t in runs])),
        }
        if policy in identification:
            entry["identification_accuracy"] = identification[policy].mean_accuracy
        summary["policies"][policy] = entry
    return summary


def _write_table(path: str, columns: dict) -> None:
    names = list(columns)
    rows = len(next(iter(columns.values())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            cells = []
            for name in names:
                v = columns[name][i]
                cells.append(str(int(v)) if isinstance(v, (int, np.integer)) else _fmt(v))
            fh.write(",".join(cells) + "\n")


def write_comparison_tables(result: dict, config: ExperimentConfig) -> None:
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    if config.write_traces:
        for policy, runs in result["traces"].items():
            for trace in runs:
                write_trace_csv(trace, os.path.join(out, f"trace_{policy}_{trace.seed}.csv"))
    for policy, cols in result["error_curves"].items():
        _write_table(os.path.join(out, f"error_curve_{policy}.csv"), cols)
    for policy, profile in result["employment_profiles"].items():
        _write_table(
            os.path.join(out, f"employments_{policy}.csv"),
            {"speed_rank": np.arange(profile.size), "mean_employments": profile},
        )
    for policy, cols in result["regret"].items():
        _write_table(os.path.join(out, f"regret_{policy}.csv"), cols)
    payload = dict(result["summary"])
    payload["identification"] = {
        policy: {
            "mean_accuracy": report.mean_accuracy,
            "exact_matches": report.exact_matches,
            "identified": [arr.tolist() for arr in report.identified],
        }
        for policy, report in result["identification"].items()
    }
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    logger.info("comparison tables written to %s", out)
