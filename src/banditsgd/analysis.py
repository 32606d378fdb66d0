"""Suboptimality gaps, regret curves, worst-case guarantees, and tail bounds."""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .latency import WorkerPool, expected_max, max_moments, response_vector
from .policies import RoundSchedule, select_superarm_optimal, suboptimal_rows

logger = logging.getLogger(__name__)

# The additive constant per started round in the worst-case regret bound (CUCB's pi^2/3).
ROUND_TAIL = math.pi**2 / 3.0


@dataclass(frozen=True)
class GapReport:
    """Per-round expected-time gaps of a pool under a round schedule.

    ``optimal_means[r-1]`` is the expected completion time of the best
    size-r superarm and ``optimal_variances[r-1]`` its variance,
    ``worst_means[r-1]`` the expected completion time of the worst, and
    ``delta_max[r-1]`` the difference of the two means. ``delta_min`` is the
    smallest amount by which any employable choice's v-th fastest mean can
    exceed the optimal v-th mean (infinity when no strictly slower choice
    exists).
    """

    optimal_means: np.ndarray
    optimal_variances: np.ndarray
    worst_means: np.ndarray
    delta_max: np.ndarray
    delta_min: float


def compute_gaps(pool: WorkerPool, schedule: RoundSchedule) -> GapReport:
    """Exact gap report for rounds 1..b; best and worst superarms come from ``pool.speed_order``.

    The minimum per-arm gap reduces to adjacent distinct-mean gaps: for
    position v, the closest strictly-slower alternative to the optimal v-th
    worker is the next distinct mean value in sorted order, and choosing the
    superarm of size r = v makes any such alternative employable. Positions
    beyond b never occur, so only v <= b contributes. The test suite checks
    the reduction against a brute-force enumeration of every superarm.
    """
    b = schedule.b
    if b > pool.n:
        raise ValueError(f"schedule has {b} rounds but the pool only {pool.n} workers")
    optimal_means = np.empty(b)
    optimal_variances = np.empty(b)
    worst_means = np.empty(b)
    for r in range(1, b + 1):
        best = select_superarm_optimal(pool, r)
        optimal_means[r - 1], optimal_variances[r - 1] = max_moments(pool.rates[best])
        worst_means[r - 1] = expected_max(pool.rates[np.sort(pool.speed_order[pool.n - r :])])

    means, head = pool.sorted_means, pool.sorted_means[:b]
    # next strictly slower mean minus the v-th; a position with none clips to the slowest and gives 0
    gaps = means[np.searchsorted(means, head, side="right").clip(max=pool.n - 1)] - head
    delta_min = float(gaps[gaps > 0].min(initial=np.inf))

    return GapReport(
        optimal_means=optimal_means,
        optimal_variances=optimal_variances,
        worst_means=worst_means,
        delta_max=worst_means - optimal_means,
        delta_min=delta_min,
    )


@dataclass
class RunTrace:
    """Per-iteration record of one seeded run.

    Iteration j (1-based) lives at array index j-1. ``members`` holds the
    chosen superarm of every iteration back to back (the k used workers for
    the k-sync baseline), delimited by ``member_offsets``; ``response_times``
    is each iteration's slowest member. ``model_errors`` is NaN when latency-only.
    """

    policy: str
    seed: int
    schedule: RoundSchedule
    pool: WorkerPool
    rounds: np.ndarray
    response_times: np.ndarray
    employments: np.ndarray
    model_errors: np.ndarray
    member_offsets: np.ndarray
    members: np.ndarray
    pulls: np.ndarray
    suboptimal_pulls: np.ndarray

    def __len__(self) -> int:
        return int(self.rounds.size)

    @property
    def member_responses(self) -> np.ndarray:
        """Each member's response time, aligned with ``members``: not stored, but redrawn read-only from
        the seed's latency stream along ``run_single``'s blocks, so each read costs one run's draws."""
        from .harness import stream_rng  # local import: harness builds on this module

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
        return np.cumsum(self.employments)

    @functools.cached_property
    def suboptimal_count(self) -> int:
        return int(self.suboptimal_pulls.sum())

    @functools.cached_property
    def suboptimal_flags(self) -> np.ndarray:
        """Per iteration, whether the played superarm was suboptimal (``policies.suboptimal_rows``, a round at a time).

        Their sum is ``suboptimal_count`` for the bandit and omniscient
        policies. A k-sync run differs by design: it books all n workers and
        charges no pull, while its flags judge the r workers it used.
        """
        return np.concatenate([suboptimal_rows(self.pool, rows) for rows in self.schedule.round_rows(self.members)])

    def final_round_counts(self) -> np.ndarray:
        """Per-worker employment counts within the last round of the schedule."""
        *_, last = self.schedule.round_rows(self.members)
        return np.bincount(last.ravel(), minlength=self.pool.n)


def round_reference_means(pool: WorkerPool, schedule: RoundSchedule) -> np.ndarray:
    """Expected completion time of the optimal superarm for each round."""
    return np.array(
        [expected_max(pool.rates[select_superarm_optimal(pool, r)]) for r in range(1, schedule.b + 1)]
    )


def empirical_regret(
    trace: RunTrace,
    pool: WorkerPool,
    schedule: RoundSchedule,
    reference_means: np.ndarray | None = None,
) -> np.ndarray:
    """Realized cumulative time minus the optimal policy's expected time, per iteration.

    Single-run curves fluctuate (and may dip below zero); averaging across
    seeds estimates the expected regret.
    """
    if trace.schedule.switching_points != schedule.switching_points:
        raise ValueError("trace was produced under a different schedule")
    if not np.array_equal(trace.pool.rates, pool.rates):
        raise ValueError("trace was produced on a different worker pool")
    if reference_means is None:
        reference_means = round_reference_means(pool, schedule)
    baseline = np.cumsum(reference_means[trace.rounds - 1])
    return trace.cum_times - baseline


def _gaps_for(pool: WorkerPool, schedule: RoundSchedule, gaps: GapReport | None) -> GapReport:
    """The given gap report, checked against the schedule, or a fresh one."""
    if gaps is None:
        return compute_gaps(pool, schedule)
    if gaps.optimal_means.size != schedule.b:
        raise ValueError(f"gap report covers {gaps.optimal_means.size} rounds but the schedule has {schedule.b}")
    return gaps


def regret_bound_curve(pool: WorkerPool, schedule: RoundSchedule, js, *, gaps: GapReport | None = None) -> np.ndarray:
    """Worst-case expected regret of the bandit policy at each iteration j of ``js``.

    max-started-round Delta_max * n * (48 log(j) / min(delta_min^2, delta_min)
    + 1 + u * pi^2/3), with u the number of started rounds. The logarithm is
    ``math.log`` per element, because ``np.log`` may differ from it in the
    last bit.
    """
    u = schedule.rounds_of(js)
    js = np.asarray(js, dtype=np.float64)
    if not pool.theorem_valid:
        raise ValueError("regret bound requires every worker rate >= 1 (rescale time units)")
    gaps = _gaps_for(pool, schedule, gaps)
    if gaps.delta_min == 0:
        raise ValueError("regret bound undefined for delta_min = 0")
    delta_term = np.maximum.accumulate(gaps.delta_max)[u - 1]
    logs = np.fromiter(map(math.log, js.tolist()), np.float64, js.size)
    denom = min(gaps.delta_min**2, gaps.delta_min)
    return delta_term * pool.n * (48.0 * logs / denom + 1.0 + u * ROUND_TAIL)


def regret_bound(pool: WorkerPool, schedule: RoundSchedule, j: float, *, gaps: GapReport | None = None) -> float:
    """``regret_bound_curve`` at the single iteration j."""
    return float(regret_bound_curve(pool, schedule, [j], gaps=gaps)[0])


def regret_bound_table(pool: WorkerPool, schedule: RoundSchedule, js, *, gaps: GapReport | None = None) -> dict | None:
    """The worst-case bound at iterations ``js``, under the three column names ``bounds`` and ``compare`` write.

    Within a run (iterations 1 .. horizon) a logarithm truncated at the
    horizon is ``log j``, so ``bound_log_truncated`` and ``bound_tighter``
    are the ``bound_log_iter`` curve; the output keeps all three. None when
    the bound does not apply: it needs every rate >= 1 and a positive,
    finite minimum gap. Each skip logs its reason once at ``warning``.
    """
    if not pool.theorem_valid:
        logger.warning("regret bound skipped: rate %s is below 1, outside the guarantee's assumption", pool.rates.min())
        return None
    gaps = _gaps_for(pool, schedule, gaps)
    if not 0.0 < gaps.delta_min < math.inf:
        logger.warning("regret bound skipped: delta_min is %s, not positive and finite", gaps.delta_min)
        return None
    curve = regret_bound_curve(pool, schedule, js, gaps=gaps)
    return dict.fromkeys(("bound_log_iter", "bound_log_truncated", "bound_tighter"), curve)


def completion_time_bound(
    pool: WorkerPool,
    schedule: RoundSchedule,
    j: int,
    regret: float,
    epsilon: float,
    *,
    gaps: GapReport | None = None,
) -> tuple[float, float]:
    """Upper bound on the wall-clock time to reach iteration j, with confidence.

    time <= regret + sum over started rounds of mu_opt * length * (1+epsilon),
    valid with probability at least the product over started rounds of
    (1 - var_opt / (mu_opt^2 * length * epsilon^2)), each factor following
    from Chebyshev's inequality on the round's summed response times. Factors
    that go negative (rounds too short for the variance) are clamped to zero.
    ``mu_opt`` and ``var_opt`` are read from ``gaps``, computed when not given.
    ``j`` must lie in the run, 1 .. the schedule's horizon.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    if not math.isfinite(regret):
        raise ValueError(f"regret must be finite, got {regret}")
    schedule.rounds_of(j)  # rejects j outside 1 .. horizon
    gaps = _gaps_for(pool, schedule, gaps)
    time_bound = float(regret)
    prob = 1.0
    clamped = 0
    prev = 0
    for r, t_r in enumerate(schedule.switching_points, start=1):
        if j <= prev:
            break
        length = min(j, t_r) - prev
        mu = float(gaps.optimal_means[r - 1])
        var = float(gaps.optimal_variances[r - 1])
        time_bound += mu * length * (1.0 + epsilon)
        factor = 1.0 - var / (mu * mu * length * epsilon * epsilon)
        if factor < 0.0:
            clamped += 1
            factor = 0.0
        prob *= factor
        prev = t_r
    if clamped:
        logger.warning(
            "completion_time_bound: %d round factor(s) clamped to 0 (Chebyshev weaker than trivial)",
            clamped,
        )
    return time_bound, prob


def subgamma_tail(epsilon: float, sigma2: float, scale: float) -> tuple[float, float]:
    """Right-tail control for a sub-gamma variable with the given variance/scale.

    Returns the pair (threshold, bound): P(Z > sqrt(2 sigma^2 eps) + scale*eps)
    is at most exp(-eps).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    return math.sqrt(2.0 * sigma2 * epsilon) + scale * epsilon, math.exp(-epsilon)


def subgaussian_tail(epsilon: float, sigma2: float) -> float:
    """Left-tail bound for a sub-Gaussian variable: P(Z <= -eps) <= exp(-eps^2 / (2 sigma^2))."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    return math.exp(-(epsilon**2) / (2.0 * sigma2))
