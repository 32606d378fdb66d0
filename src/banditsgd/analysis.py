"""Suboptimality gaps, regret curves, worst-case guarantees, and tail bounds."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .latency import WorkerPool, expected_max, variance_of_max
from .policies import RoundSchedule, select_superarm_optimal

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GapReport:
    """Per-round expected-time gaps of a pool under a round schedule.

    ``optimal_means[r-1]`` is the expected completion time of the best
    size-r superarm, ``worst_means[r-1]`` of the worst, and their difference
    is ``delta_max[r-1]``. ``position_gaps[v-1]`` is the smallest amount by
    which any employable v-th fastest choice can exceed the optimal v-th mean
    (infinity when no strictly slower choice exists); ``delta_min`` is the
    minimum over positions.
    """

    optimal_superarms: tuple
    optimal_means: np.ndarray
    worst_means: np.ndarray
    delta_max: np.ndarray
    position_gaps: np.ndarray
    delta_min: float


def compute_gaps(pool: WorkerPool, schedule: RoundSchedule) -> GapReport:
    """Exact gap report for rounds 1..b.

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
    optimal_superarms = []
    optimal_means = np.empty(b)
    worst_means = np.empty(b)
    slow_order = np.argsort(pool.means, kind="stable")[::-1]
    for r in range(1, b + 1):
        best = select_superarm_optimal(pool, r)
        optimal_superarms.append(best)
        optimal_means[r - 1] = expected_max(pool.rates[best])
        worst_means[r - 1] = expected_max(pool.rates[np.sort(slow_order[:r])])
    delta_max = worst_means - optimal_means

    sorted_means = pool.sorted_means
    position_gaps = np.full(b, np.inf)
    for v in range(1, min(b, pool.n) + 1):
        ref = sorted_means[v - 1]
        slower = sorted_means[sorted_means > ref]
        if slower.size:
            position_gaps[v - 1] = slower[0] - ref
    delta_min = float(position_gaps.min())

    return GapReport(
        optimal_superarms=tuple(optimal_superarms),
        optimal_means=optimal_means,
        worst_means=worst_means,
        delta_max=delta_max,
        position_gaps=position_gaps,
        delta_min=delta_min,
    )


@dataclass
class RunTrace:
    """Per-iteration record of one seeded run.

    Iteration j (1-based) lives at array index j-1. ``members`` holds the
    chosen superarm of every iteration back to back (the k used workers for
    the k-sync baseline), delimited by ``member_offsets``; ``member_responses``
    aligns with it. ``model_errors`` is NaN when the run was latency-only.
    """

    policy: str
    seed: int
    variant: str | None
    schedule: RoundSchedule
    rates: np.ndarray
    rounds: np.ndarray
    response_times: np.ndarray
    cum_times: np.ndarray
    employments: np.ndarray
    cum_employments: np.ndarray
    model_errors: np.ndarray
    member_offsets: np.ndarray
    members: np.ndarray
    member_responses: np.ndarray
    pulls: np.ndarray
    response_sums: np.ndarray
    suboptimal_pulls: np.ndarray
    suboptimal_count: int
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.rounds.size)

    def superarm_at(self, j: int) -> np.ndarray:
        return self.members[self.member_offsets[j - 1] : self.member_offsets[j]]

    def responses_at(self, j: int) -> np.ndarray:
        return self.member_responses[self.member_offsets[j - 1] : self.member_offsets[j]]

    def final_round_counts(self) -> np.ndarray:
        """Per-worker employment counts within the last round of the schedule."""
        start = 0 if self.schedule.b == 1 else self.schedule.switching_points[-2]
        lo = int(self.member_offsets[start])
        return np.bincount(self.members[lo:], minlength=self.rates.size)


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
    if trace.rates.size != pool.n or not np.array_equal(trace.rates, pool.rates):
        raise ValueError("trace was produced on a different worker pool")
    if reference_means is None:
        reference_means = round_reference_means(pool, schedule)
    baseline = np.cumsum(reference_means[trace.rounds - 1])
    return trace.cum_times - baseline


def regret_bound(
    pool: WorkerPool,
    schedule: RoundSchedule,
    j: float,
    *,
    gaps: GapReport | None = None,
    tail_term: str = "pi2/3",
    log_truncated: bool = False,
) -> float:
    """Worst-case expected regret of the bandit policy at iteration j.

    max-started-round Delta_max * n * (48 log(j) / min(delta_min^2, delta_min)
    + 1 + u * pi^2/3), with u the number of started rounds. ``tail_term``
    switches the additive constant to u * pi/3 for comparison;
    ``log_truncated`` freezes the logarithm at the schedule horizon (the two
    forms coincide for j within the schedule).
    """
    if j < 1:
        raise ValueError("iteration must be >= 1")
    if not pool.theorem_valid:
        raise ValueError("regret bound requires every worker rate >= 1 (rescale time units)")
    if gaps is None:
        gaps = compute_gaps(pool, schedule)
    if gaps.delta_min == 0:
        raise ValueError("regret bound undefined for delta_min = 0")
    points = schedule.switching_points
    u = int(np.searchsorted(np.asarray(points), min(j, points[-1]), side="left")) + 1
    u = min(u, schedule.b)
    delta_term = float(gaps.delta_max[:u].max())
    log_val = math.log(min(j, points[-1])) if log_truncated else math.log(j)
    denom = min(gaps.delta_min**2, gaps.delta_min)
    if tail_term == "pi2/3":
        tail = math.pi**2 / 3.0
    elif tail_term == "pi/3":
        tail = math.pi / 3.0
    else:
        raise ValueError(f"unknown tail_term {tail_term!r}")
    return delta_term * pool.n * (48.0 * log_val / denom + 1.0 + u * tail)


def regret_bound_curve(pool, schedule, js, **kwargs) -> np.ndarray:
    gaps = kwargs.pop("gaps", None) or compute_gaps(pool, schedule)
    return np.array([regret_bound(pool, schedule, float(j), gaps=gaps, **kwargs) for j in js])


def completion_time_bound(
    pool: WorkerPool,
    schedule: RoundSchedule,
    j: int,
    regret: float,
    epsilon: float,
) -> tuple[float, float]:
    """Upper bound on the wall-clock time to reach iteration j, with confidence.

    time <= regret + sum over started rounds of mu_opt * length * (1+epsilon),
    valid with probability at least the product over started rounds of
    (1 - var_opt / (mu_opt^2 * length * epsilon^2)), each factor following
    from Chebyshev's inequality on the round's summed response times. Factors
    that go negative (rounds too short for the variance) are clamped to zero.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if j < 1:
        raise ValueError("iteration must be >= 1")
    time_bound = float(regret)
    prob = 1.0
    clamped = 0
    prev = 0
    for r, t_r in enumerate(schedule.switching_points, start=1):
        if j <= prev:
            break
        length = min(j, t_r) - prev
        best = select_superarm_optimal(pool, r)
        mu = expected_max(pool.rates[best])
        var = variance_of_max(pool.rates[best])
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
