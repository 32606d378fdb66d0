"""Experiment orchestration: config, seeded streams, runs, the run record and its replay, comparison tables.

Every run derives all randomness from its seed through named, independent
generator streams (data-generation, mean-assignment, worker-latency,
batch-sampling), so policies compared under the same seed share the worker
pool, the dataset, and the batch draws; they differ only in scheduling. A
fixed ``pool_seed`` or ``worker_means`` (``data_seed``) pins the pool (dataset)
across run seeds for experiments that average over a single environment.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from . import analysis, policies, sgd
from .latency import BLOCK_VALUES, SUBSET_ENUMERATION_CAP, WorkerPool, block_rows, member_responses, response_vector
from .policies import (
    RADIUS_VARIANTS,
    BanditState,
    RoundSchedule,
    compute_schedule,
    record_outcome,
    select_superarm_cmab,
    select_superarm_optimal,
    suboptimal_rows,
)

logger = logging.getLogger(__name__)

STREAM_LABELS = ("data-generation", "mean-assignment", "worker-latency", "batch-sampling")

# The bandit policies and the radius variant each runs.
BANDIT_VARIANTS = {f"cmab-{v}": v for v in RADIUS_VARIANTS}
POLICY_NAMES = (*BANDIT_VARIANTS, "optimal", "adaptive-ksync")

# summary.json still writes these removed config fields, at the values they last held (compute_schedule's
# constants for theta and j_cap), so its bytes stay the same; they go at the next output-contract bump.
RETIRED_SUMMARY_KEYS = {"variant": "plain", "bound_tail_term": "pi2/3", "mc_lists": 50, "mc_samples": 1_000_000,
                        "theta": policies.THETA, "j_cap": policies.J_CAP}

TRACE_HEADER = "iter,round,policy,seed,superarm,response_time,cum_time,employments,cum_employments,model_error"


def stream_rng(seed: int, label: str) -> np.random.Generator:
    """Independent generator for one named stream of a seeded run."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    idx = STREAM_LABELS.index(label)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=int(seed), spawn_key=(idx,))))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; file keys and CLI flags map 1:1 to fields.

    ``schedule`` is either "computed" (switching points from the convergence
    bound by ``policies.compute_schedule``, failing past ``policies.J_CAP``) or
    a comma-separated list of ``b`` strictly increasing iteration indices,
    parsed once into the one ``RoundSchedule`` (not a field) every run shares.
    Worker means are drawn from the grid ``mean_min..mean_max`` in steps of
    ``mean_step`` (a whole number of steps, at most 2**63 - 1 values, each
    rounded to 12 decimals), with replacement unless ``distinct_means`` is set;
    the grid is never built, so its size costs no memory. Both rounded ends
    must be finite and > 0, and so must the reciprocal of each ``worker_means``
    entry. Policies and seeds are listed once each.
    """

    n: int = 50
    b: int = 20
    m: int = 2000
    d: int = 100
    eta: float = 1e-4
    seeds: tuple[int, ...] = tuple(range(10))
    policies: tuple[str, ...] = POLICY_NAMES
    schedule: str = "computed"
    mean_min: float = 0.1
    mean_max: float = 0.9
    mean_step: float = 0.1
    distinct_means: bool = False
    worker_means: tuple[float, ...] | None = None
    pool_seed: int | None = None
    data_seed: int | None = None
    simulate_sgd: bool = True
    out_dir: str | None = None
    write_traces: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.b <= self.n:
            raise ValueError(f"need 1 <= b <= n, got b={self.b}, n={self.n}")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must all be >= 0, got {self.seeds}")
        for key in ("pool_seed", "data_seed"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise ValueError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
        for key in ("policies", "seeds"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat an entry, got {values}")
        if not 0 < self.mean_min <= self.mean_max < math.inf:
            raise ValueError(f"need 0 < mean_min <= mean_max < inf, got {self.mean_min} and {self.mean_max}")
        if not 0 < self.mean_step < math.inf:
            raise ValueError(f"mean_step must be finite and > 0, got {self.mean_step}")
        steps = (self.mean_max - self.mean_min) / self.mean_step
        if not steps < 2.0**63:  # a pool draws grid indices as int64, so round(steps) + 1 must fit
            raise ValueError(f"mean_step={self.mean_step} makes more than 2**63 - 1 grid values")
        if not math.isclose(steps, round(steps), rel_tol=1e-9):
            raise ValueError(f"mean_step={self.mean_step} must divide mean_max - mean_min into whole steps")
        low, high = _grid_means(self, [0, _grid_count(self) - 1])
        if not low > 0:
            raise ValueError(f"mean_min={self.mean_min} rounds to {low} at 12 decimals; need > 0")
        if not math.isfinite(high):
            raise ValueError(f"mean_max={self.mean_max} rounds to {high} at 12 decimals; need a finite value")
        if self.m < 1 or self.d < 1:
            raise ValueError(f"need m >= 1 and d >= 1, got m={self.m}, d={self.d}")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if self.worker_means is not None:
            if self.pool_seed is not None:
                raise ValueError(f"worker_means fixes the pool; pool_seed={self.pool_seed} would be ignored")
            if len(self.worker_means) != self.n:
                raise ValueError(f"worker_means lists {len(self.worker_means)} values but n={self.n}")
            if not all(0 < v < math.inf and 1.0 / v < math.inf for v in self.worker_means):
                means = self.worker_means
                raise ValueError(f"worker_means must all be finite and > 0 with finite 1 / mean, got {means}")
        elif self.distinct_means and _grid_count(self) < self.n:
            raise ValueError(
                f"distinct means need a grid of at least n={self.n} values; got {_grid_count(self)} (shrink mean_step)"
            )
        explicit = None
        if self.schedule.strip() != "computed":
            try:
                points = tuple(int(tok) for tok in self.schedule.split(",") if tok.strip())
            except ValueError as exc:
                raise ValueError(f"cannot parse schedule {self.schedule!r}") from exc
            if len(points) != self.b:
                raise ValueError(f"schedule lists {len(points)} switching points but b={self.b}")
            try:
                explicit = RoundSchedule(points)
            except ValueError as exc:
                raise ValueError(f"schedule {self.schedule!r}: {exc}") from None
        elif not self.simulate_sgd:
            raise ValueError("computed schedule mode needs the learning problem (simulate_sgd=true)")
        object.__setattr__(self, "_explicit_schedule", explicit)

    @property
    def pool_is_pinned(self) -> bool:
        """True when every run seed gets the same worker pool (``pool_seed`` or ``worker_means`` set)."""
        return self.pool_seed is not None or self.worker_means is not None

    def switching_points(self) -> tuple | None:
        """Explicit switching points, or None for computed mode."""
        return None if self._explicit_schedule is None else self._explicit_schedule.switching_points

    def as_dict(self) -> dict:
        """Field values with tuples as lists, as serialized to JSON."""
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in dataclasses.asdict(self).items()}

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        """Parse a flat key=value text file ('#' starts a comment); ``overrides`` win over its values."""
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
        values.update(overrides)
        return cls.from_mapping(values)

    @classmethod
    def from_mapping(cls, values: dict) -> "ExperimentConfig":
        """Build from field values; strings are parsed by the field's annotation."""
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for key, value in values.items():
            if key not in hints:
                raise ValueError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _coerce(value, hints[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        return cls(**kwargs)


def _coerce(value, hint):
    """Parse a config-file string as ``hint``: a scalar type, ``tuple[T, ...]`` or ``T | None``."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    args = typing.get_args(hint)
    if type(None) in args:
        if text.lower() in ("none", ""):
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return tuple(_coerce(tok, args[0]) for tok in text.split(",") if tok.strip())
    if hint is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expects a boolean, got {text!r}")
    return hint(text)


def _grid_count(config: ExperimentConfig) -> int:
    """Values on the mean grid, both ends included."""
    return round((config.mean_max - config.mean_min) / config.mean_step) + 1


def _grid_means(config: ExperimentConfig, indices) -> np.ndarray:
    """The mean grid's values at ``indices``, bit for bit as ``np.round(np.linspace(mean_min, mean_max,
    count), 12)`` holds them, without building the grid: index i is ``i * step + mean_min`` with linspace's
    ``step = (mean_max - mean_min) / (count - 1)``, the last index is ``mean_max`` (a one-value grid holds
    only ``mean_min``), and numpy rounds, which overflows to inf where Python's ``round`` would not."""
    count, low, high = _grid_count(config), config.mean_min, config.mean_max
    indices = np.asarray(indices, dtype=np.int64)
    values = np.where((indices == count - 1) & (count > 1), high, indices * ((high - low) / max(count - 1, 1)) + low)
    with np.errstate(over="ignore"):  # an end that rounds to inf fails validation by name
        return np.round(values, 12)


def build_pool(config: ExperimentConfig, seed: int) -> WorkerPool:
    """Worker pool for one run: fixed outright by an explicit worker_means list, else ``n`` means drawn
    from the config's grid by index, pinned across runs when pool_seed is set. Only the drawn values are
    computed, so memory follows ``n``, not the grid's size."""
    if config.worker_means is not None:
        return WorkerPool(1.0 / np.asarray(config.worker_means, dtype=np.float64))
    rng = stream_rng(config.pool_seed if config.pool_seed is not None else seed, "mean-assignment")
    indices = rng.choice(_grid_count(config), size=config.n, replace=not config.distinct_means)
    return WorkerPool(1.0 / _grid_means(config, indices))


def build_problem(config: ExperimentConfig, seed: int) -> sgd.SgdProblem:
    data_seed = config.data_seed if config.data_seed is not None else seed
    return sgd.generate_problem(
        config.m, config.d, stream_rng(data_seed, "data-generation"), b=config.b, eta=config.eta
    )


def resolve_schedule(config: ExperimentConfig, problem=None) -> RoundSchedule:
    """The config's explicit schedule, one object for every seed, or one computed from the problem's bound."""
    if config._explicit_schedule is not None:
        return config._explicit_schedule
    return compute_schedule(sgd.estimate_bound_params(problem), config.b)


@dataclass(eq=False)
class SeedSetup:
    """What every policy's run of one seed shares: pool, problem, schedule (the config's own when explicit).

    ``model_errors``, the seed's learning trajectory, is computed on first
    use and handed, read-only, to every policy's trace: the SGD step reads
    only the batch stream and each iteration's ``r``, never the chosen
    workers. Only the trajectory reads the dataset, so ``problem`` is set to
    None once it is computed. A latency-only setup is known when it is
    built: ``build`` stores its errors, a read-only NaN broadcast.
    """

    seed: int
    pool: WorkerPool
    problem: sgd.SgdProblem | None
    schedule: RoundSchedule

    @classmethod
    def build(cls, config: ExperimentConfig, seed: int) -> "SeedSetup":
        problem = build_problem(config, seed) if config.simulate_sgd else None
        setup = cls(int(seed), build_pool(config, seed), problem, resolve_schedule(config, problem))
        if problem is None:
            setup.model_errors = np.broadcast_to(np.nan, setup.schedule.horizon)
        return setup

    @functools.cached_property
    def model_errors(self) -> np.ndarray:
        """Model error per iteration, computed from the dataset on first read, which releases it."""
        if self.problem is None:
            raise ValueError(f"seed {self.seed} holds no dataset: its trajectory cannot be computed again")
        errors = sgd.run_trajectory(self.problem, self.schedule.rounds, stream_rng(self.seed, "batch-sampling"))
        errors.flags.writeable = False
        self.problem = None  # release the dataset; the errors are cached
        return errors


@dataclass
class RunTrace:
    """Per-iteration record of one seeded run: what its policy chose.

    Iteration j (1-based) lives at array index j-1. ``members`` holds the
    chosen superarm of every iteration back to back (the k used workers for
    the k-sync baseline), delimited by ``member_offsets``, as the narrowest
    unsigned type that holds n (``np.min_scalar_type(n)``: uint8 up to 255 workers, then uint16);
    ``response_times`` is each iteration's slowest member. ``model_errors`` is NaN when latency-only.
    ``member_offsets``, ``employments`` and, but for k-sync, ``cum_employments`` view the schedule's arrays.
    ``member_responses`` replays the draws of ``run_single``, beside it in this module.
    """

    policy: str
    seed: int
    schedule: RoundSchedule
    pool: WorkerPool
    response_times: np.ndarray
    model_errors: np.ndarray
    members: np.ndarray
    pulls: np.ndarray
    suboptimal_pulls: np.ndarray

    def __len__(self) -> int:
        return self.schedule.horizon

    @property
    def member_offsets(self) -> np.ndarray:
        return self.schedule.offsets

    @property
    def employments(self) -> np.ndarray:
        """Workers booked per iteration, read-only: ``schedule.rounds``, or all n for k-sync."""
        ksync = self.policy == "adaptive-ksync"
        return np.broadcast_to(np.int64(self.pool.n), len(self)) if ksync else self.schedule.rounds

    @property
    def member_responses(self) -> np.ndarray:
        """Each member's response time, aligned with ``members``: not stored, but redrawn read-only from
        the seed's latency stream along ``run_single``'s blocks, so each read costs one run's draws."""
        rng, ksync, pool = stream_rng(self.seed, "worker-latency"), self.policy == "adaptive-ksync", self.pool
        out = np.empty(self.members.size)
        for _, arms, resp in self.schedule.blocks(pool.n if ksync else None, self.members, out):
            draws = response_vector(pool, rng, len(arms)) if ksync else rng.standard_exponential(arms.shape)
            resp[:] = np.take_along_axis(draws, arms, axis=1) if ksync else draws * pool.means[arms]
        out.flags.writeable = False
        return out

    @functools.cached_property
    def cum_times(self) -> np.ndarray:
        return np.cumsum(self.response_times)

    @functools.cached_property
    def cum_employments(self) -> np.ndarray:
        return np.cumsum(self.employments) if self.policy == "adaptive-ksync" else self.schedule.offsets[1:]

    @functools.cached_property
    def suboptimal_count(self) -> int:
        return int(self.suboptimal_pulls.sum())

    @functools.cached_property
    def suboptimal_flags(self) -> np.ndarray:
        """Per iteration, whether the played superarm was suboptimal (``policies.suboptimal_rows``, a block at a time).

        Their sum is ``suboptimal_count`` for the bandit and omniscient
        policies. A k-sync run differs by design: it books all n workers and
        charges no pull, while its flags judge the r workers it used.
        """
        blocks = self.schedule.blocks(None, self.members)
        return np.concatenate([suboptimal_rows(self.pool, rows) for _, rows in blocks])

    def final_round_counts(self) -> np.ndarray:
        """Per-worker employment counts within the last round of the schedule."""
        before = self.schedule.horizon - self.schedule.round_lengths()[-1]  # the iterations before the last round
        return np.bincount(self.members[self.schedule.offsets[before] :], minlength=self.pool.n)


def run_single(config: ExperimentConfig, policy: str, seed: int, setup: SeedSetup | None = None) -> RunTrace:
    """Execute one seeded run of one policy over the full round schedule.

    ``setup`` carries what the runs of one seed share (see ``SeedSetup``);
    without it the run builds its own. The scheduling loop runs first, then
    the learning trajectory, which comes from the setup.

    Per-iteration draw accounting (fixed so traces replay bit-exactly):
    bandit and omniscient runs consume r exponential variates (ascending
    member order) from the latency stream, the k-sync baseline n (index
    order), in iteration order; the learning trajectory consumes r*m uniforms
    from the batch stream whatever the policy. Every policy walks each round
    along ``RoundSchedule.blocks``, ``block_rows(width)`` rows at a time (the
    width is r, or n for k-sync, which books all n workers every iteration),
    and draws a block at once, which consumes the stream the same way. The
    bandit draws into one reused buffer and hands it and the block's rows of
    the trace's members to ``select_superarm_cmab``, which fills both in
    place. Each block's row maxima go into ``response_times``; the per-member
    responses are not kept, and ``RunTrace.member_responses``, above, replays
    them. The trace shares the setup's schedule and read-only ``model_errors``.
    Every policy casts its int64 picks into the members' dtype, which ``RunTrace`` states.
    """
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}")
    if setup is None:
        setup = SeedSetup.build(config, seed)
    elif setup.seed != seed:
        raise ValueError(f"setup was built for seed {setup.seed}, not {seed}")
    pool, schedule = setup.pool, setup.schedule

    latency_rng = stream_rng(seed, "worker-latency")
    variant = BANDIT_VARIANTS.get(policy)
    is_ksync = policy == "adaptive-ksync"
    n = pool.n

    members = np.empty(schedule.budget, dtype=np.min_scalar_type(n))
    times = np.empty(schedule.horizon)
    state = BanditState.zeros(n)
    buffer = np.empty(max(BLOCK_VALUES, n)) if variant is not None else None

    for rows, arms in schedule.blocks(n if is_ksync else None, members):
        size, r = arms.shape
        if variant is not None:
            draws = latency_rng.standard_exponential(out=buffer[: arms.size].reshape(size, r))
            select_superarm_cmab(state, variant, pool, draws, arms)  # scales the draws by the members' means
        elif is_ksync:
            # k-sync draws for all n workers and keeps the r fastest of each row
            draws = response_vector(pool, latency_rng, size)
            arms[:] = np.sort(np.argsort(draws, axis=1, kind="stable")[:, :r], axis=1)
            draws = np.take_along_axis(draws, arms, axis=1)
        else:
            arms[:] = arm = select_superarm_optimal(pool, r)
            draws = member_responses(pool, arm, latency_rng, size)
            record_outcome(state, arm, draws, pool)  # the last record_outcome call: perfbench's SPAN_CHECKS needs one
        draws.max(axis=1, out=times[rows])

    return RunTrace(
        policy=policy,
        seed=int(seed),
        schedule=schedule,
        pool=pool,
        response_times=times,
        model_errors=setup.model_errors,
        members=members,
        pulls=np.full(n, schedule.horizon, dtype=np.int64) if is_ksync else state.pulls,
        suboptimal_pulls=state.suboptimal_pulls,
    )


@dataclass(frozen=True)
class _SuperarmCells:
    """A trace's superarm column: each iteration's members joined by "|", made a slice of rows at a time."""

    members: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, rows: slice) -> list:
        lo, hi, _ = rows.indices(len(self))
        bounds = self.offsets[lo : hi + 1].tolist()
        base = bounds[0]
        members = self.members[base : bounds[-1]].tolist()
        return ["|".join(map(str, members[a - base : b - base])) for a, b in zip(bounds, bounds[1:])]


def write_trace_csv(trace: RunTrace, path: str) -> None:
    """Serialize a trace with the fixed header; one row per iteration."""
    horizon = len(trace)
    columns = (
        np.arange(1, horizon + 1),
        trace.schedule.rounds,
        np.broadcast_to(np.str_(trace.policy), horizon),
        np.broadcast_to(np.str_(trace.seed), horizon),  # a seed past int64 is still its digits
        _SuperarmCells(trace.members, trace.member_offsets),
        trace.response_times,
        trace.cum_times,
        trace.employments,
        trace.cum_employments,
        trace.model_errors,
    )
    _write_table(path, dict(zip(TRACE_HEADER.split(","), columns)))


@dataclass
class IdentificationReport:
    """Which workers each run ended up treating as the fastest b.

    ``accuracies[i]`` is run i's overlap with the true fastest b, divided by b.
    """

    identified: list
    accuracies: np.ndarray

    @property
    def mean_accuracy(self) -> float:
        return float(self.accuracies.mean())

    @property
    def exact_matches(self) -> int:
        """Runs that identified all b (overlap / b is 1.0 exactly when overlap == b)."""
        return int(np.count_nonzero(self.accuracies == 1.0))


def identify_fastest(traces) -> IdentificationReport:
    """Most-employed b workers in each run's final round vs the true fastest b."""
    identified = []
    accuracies = []
    for trace in traces:
        b = trace.schedule.b
        counts = trace.final_round_counts()
        chosen = np.sort(np.argsort(-counts, kind="stable")[:b])
        truth = np.zeros(counts.size, dtype=bool)  # a mask: np.intersect1d imports numpy.ma, ~1 MiB resident
        truth[trace.pool.speed_order[:b]] = True
        identified.append(chosen)
        accuracies.append(np.count_nonzero(truth[chosen]) / b)
    return IdentificationReport(identified, np.asarray(accuracies))


def error_at_employments(trace: RunTrace, budget: int) -> float:
    """Model error at the first iteration whose cumulative employments reach ``budget``."""
    idx = int(np.searchsorted(trace.cum_employments, budget, side="left"))
    if idx >= len(trace):
        raise ValueError(f"trace only accumulates {trace.cum_employments[-1]} employments; need {budget}")
    return float(trace.model_errors[idx])


def run_comparison(config: ExperimentConfig):
    """Run every configured (policy, seed) pair and build the figure tables.

    Each seed's ``SeedSetup`` (pool, schedule, learning trajectory) and round
    reference means, read from one gap report on a pinned pool, are computed
    once and shared by every policy. A seed's problem is held from its setup
    until its trajectory is computed, in the first policy's run of the seed.
    Computed schedules must agree across seeds, and a bandit policy's regret
    analysis needs b <= ``SUBSET_ENUMERATION_CAP``; both are checked before any run.

    One pass per policy runs its seeds, writes their trace CSVs and builds
    everything the tables and ``summary.json`` take from them; the policy's
    traces are freed before the next policy runs, so at most one policy's
    traces are held at once.

    Returns a dict with per-policy seed-averaged error curves (indexed by
    iteration, wall-clock time, and cumulative employments), per-worker
    employment profiles sorted fastest to slowest, mean regret curves with
    the worst-case guarantee when the pool is pinned and satisfies its
    assumptions, and the summary, fastest-worker identification included.
    """
    if len(config.policies) < 2:
        raise ValueError("comparison needs at least two policies")
    bandits = [p for p in config.policies if p in BANDIT_VARIANTS]
    if bandits and config.b > SUBSET_ENUMERATION_CAP:
        raise ValueError(f"b={config.b} with a bandit policy; subset enumeration is capped at {SUBSET_ENUMERATION_CAP}")
    setups = [SeedSetup.build(config, s) for s in config.seeds]
    if any(s.schedule.switching_points != setups[0].schedule.switching_points for s in setups):
        raise ValueError("computed schedules differ across seeds; pin data_seed or use an explicit schedule")
    iters = np.arange(1, setups[0].schedule.horizon + 1)  # every curve's and table's iteration index
    bound, references = None, []
    if bandits and config.pool_is_pinned:
        # one pinned pool: one gap report gives every seed's reference means and
        # the worst-case guarantee, the same for every bandit policy
        pool, schedule = setups[0].pool, setups[0].schedule
        gaps = analysis.compute_gaps(pool, schedule)
        references = [gaps.optimal_means] * len(setups)
        bound = analysis.regret_bound_table(pool, schedule, iters, gaps=gaps)
    elif bandits:
        logger.info("regret tables carry no bound column: the pool is not pinned, so each seed draws its own")
        references = [analysis.round_reference_means(s.pool, s.schedule) for s in setups]

    result = {"error_curves": {}, "employment_profiles": {}, "regret": {}}
    summary = result["summary"] = {
        "config": {**config.as_dict(), **RETIRED_SUMMARY_KEYS},
        "budget": setups[0].schedule.budget,
        "policies": {},
        "identification": {},
    }
    for policy in config.policies:
        runs = [run_single(config, policy, s.seed, s) for s in setups]
        if config.out_dir and config.write_traces:
            os.makedirs(config.out_dir, exist_ok=True)
            for trace in runs:
                write_trace_csv(trace, os.path.join(config.out_dir, f"trace_{policy}_{trace.seed}.csv"))
        result["error_curves"][policy] = {
            "iter": iters,
            "cum_time_mean": np.mean([t.cum_times for t in runs], axis=0),
            "cum_employments": runs[0].cum_employments,
            "model_error_mean": np.mean([t.model_errors for t in runs], axis=0),
        }
        if policy != "adaptive-ksync":
            result["employment_profiles"][policy] = np.mean([t.pulls[t.pool.speed_order] for t in runs], axis=0)
        entry = summary["policies"][policy] = {
            "final_error_mean": float(np.mean([t.model_errors[-1] for t in runs])) if config.simulate_sgd else None,
            "final_time_mean": float(np.mean([t.cum_times[-1] for t in runs])),
            "total_employments": int(runs[0].cum_employments[-1]),
            "suboptimal_pulls_mean": float(np.mean([t.suboptimal_count for t in runs])),
        }
        if policy in bandits:
            report = identify_fastest(runs)
            entry["identification_accuracy"] = report.mean_accuracy
            summary["identification"][policy] = {
                "mean_accuracy": report.mean_accuracy,
                "exact_matches": report.exact_matches,
                "identified": [arr.tolist() for arr in report.identified],
            }
            # regret of each run is measured against its own pool's optimum,
            # so per-seed pools average cleanly
            per_run = [
                analysis.empirical_regret(t, s.pool, s.schedule, ref) for t, s, ref in zip(runs, setups, references)
            ]
            result["regret"][policy] = {
                "iter": iters,
                "mean_regret": np.mean(per_run, axis=0),
                **(bound or {}),
            }
        runs = trace = None  # free this policy's traces before the next policy's runs

    if config.out_dir:
        write_comparison_tables(result, config)
    return result


def _column_text(column) -> list:
    """One column's cells: a float array as each value's repr, an integer array as digits, strings as given."""
    if isinstance(column, np.ndarray):
        return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    return column


def _write_table(path: str, columns: dict) -> None:
    """CSV with a header row; strings as given, integers as digits, floats as their repr.

    Each column is an array or a sequence whose slices are lists of cell
    strings, such as ``_SuperarmCells``. Rows are formatted and written one
    block of ``block_rows(len(columns))`` rows at a time, so the text held at
    once follows the block, not the row count.
    """
    values = list(columns.values())
    step = block_rows(len(values))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, len(values[0]), step):
            fh.write(_rows_text(values, slice(lo, lo + step)))


def _rows_text(columns: list, rows: slice) -> str:
    """The CSV lines of ``rows`` of ``columns``, each ending in a newline.

    The cells are freed when this returns, before the next block's are made.
    """
    cells = [_column_text(c[rows]) for c in columns]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def write_comparison_tables(result: dict, config: ExperimentConfig) -> None:
    """Write a comparison's error curves, employment profiles, regret tables and summary.

    The trace CSVs are written by ``run_comparison``'s pass over each policy.
    """
    out = config.out_dir
    # a non-finite number fails here, before any table is written; the trace CSVs are already out
    text = json.dumps(result["summary"], indent=2, sort_keys=True, allow_nan=False)
    os.makedirs(out, exist_ok=True)
    for policy, cols in result["error_curves"].items():
        _write_table(os.path.join(out, f"error_curve_{policy}.csv"), cols)
    for policy, profile in result["employment_profiles"].items():
        _write_table(
            os.path.join(out, f"employments_{policy}.csv"),
            {"speed_rank": np.arange(profile.size), "mean_employments": profile},
        )
    for policy, cols in result["regret"].items():
        _write_table(os.path.join(out, f"regret_{policy}.csv"), cols)
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    logger.info("comparison tables written to %s", out)
