"""Scheduling policies: lower-confidence-bound bandit and omniscient selection, and round schedules.

The bandit policy runs in rounds: during round r it employs r workers per
iteration, picking the r arms with the lowest LCBs. An arm's LCB at iteration
j is its empirical mean response time minus a confidence radius evaluated on
the counters as of iteration j-1; unpulled arms score -infinity so every arm
is tried before any is trusted. Selection favors small response times, hence
lower bounds rather than the upper bounds of reward-maximizing bandits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latency import WorkerPool

SUBOPTIMALITY_TOL = 1e-12


@dataclass
class BanditState:
    """Per-worker counters maintained by the bandit policy.

    ``pulls[i]`` counts employments of worker i, ``response_sums[i]`` their
    summed observed response times, and ``suboptimal_pulls[i]`` the
    bookkeeping counter that is incremented for exactly one member (the least
    pulled) whenever a suboptimal superarm is chosen, so its total equals the
    number of suboptimal superarm pulls.
    """

    pulls: np.ndarray
    response_sums: np.ndarray
    suboptimal_pulls: np.ndarray
    current_iteration: int = 0

    @classmethod
    def zeros(cls, n: int) -> "BanditState":
        if n < 1:
            raise ValueError("need at least one worker")
        return cls(
            pulls=np.zeros(n, dtype=np.int64),
            response_sums=np.zeros(n, dtype=np.float64),
            suboptimal_pulls=np.zeros(n, dtype=np.int64),
        )

    @property
    def n(self) -> int:
        return int(self.pulls.size)


@dataclass(frozen=True)
class RadiusVariant:
    """Exploration-scale choice f(j) inside the confidence radius.

    ``plain`` uses f(j) = 2 log j. ``scaled`` multiplies by the smallest
    empirical mean among pulled workers (0 when nothing was pulled yet), which
    shrinks exploration once fast workers look fast.
    """

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in ("plain", "scaled"):
            raise ValueError(f"unknown radius variant {self.tag!r}")

    def exploration_scale(self, state: BanditState, j: float) -> float:
        if j < 1:
            raise ValueError("iteration must be >= 1")
        f = 2.0 * math.log(j)
        if self.tag == "scaled":
            pulled = state.pulls > 0
            if not pulled.any():
                return 0.0
            f *= float((state.response_sums[pulled] / state.pulls[pulled]).min())
        return f


PLAIN = RadiusVariant("plain")
SCALED = RadiusVariant("scaled")


def lcb_values(state: BanditState, variant: RadiusVariant, j: float) -> np.ndarray:
    """LCBs of all workers for the selection at iteration j.

    Pulled workers score empirical mean minus the radius evaluated at
    iteration j-1 on the current counters; unpulled workers score -infinity.
    """
    if j < 1:
        raise ValueError("iteration must be >= 1")
    pulled = state.pulls > 0
    if not pulled.any():
        return np.full(state.n, -np.inf)
    if j == 1:
        raise ValueError("no worker can have pulls before the first iteration")
    f = variant.exploration_scale(state, j - 1)
    t = np.maximum(state.pulls, 1).astype(np.float64)
    out = state.response_sums / t - (np.sqrt(4.0 * f / t) + 2.0 * f / t)
    out[~pulled] = -np.inf
    return out


def select_superarm_cmab(state: BanditState, variant: RadiusVariant, r: int, j: float) -> np.ndarray:
    """The r workers with the lowest LCBs, ties broken by lowest index."""
    if not 1 <= r <= state.n:
        raise ValueError(f"superarm size {r} outside [1, {state.n}]")
    values = lcb_values(state, variant, j)
    order = np.argsort(values, kind="stable")
    return np.sort(order[:r])


def select_superarm_optimal(pool: WorkerPool, r: int) -> np.ndarray:
    """The r workers with the smallest mean response times (index tie-break)."""
    if not 1 <= r <= pool.n:
        raise ValueError(f"superarm size {r} outside [1, {pool.n}]")
    order = np.argsort(pool.means, kind="stable")
    return np.sort(order[:r])


def _suboptimal_given_valid(pool: WorkerPool, arm: np.ndarray, tol: float) -> bool:
    return bool(np.any(np.sort(pool.means[arm]) > pool.sorted_means[: arm.size] + tol))


def superarm_is_suboptimal(pool: WorkerPool, superarm, *, tol: float = SUBOPTIMALITY_TOL) -> bool:
    """Whether the superarm's expected completion time exceeds the optimum.

    Compares the sorted member means against the pool's r smallest means,
    which decides the expected-max comparison: the expected max strictly
    increases when any member's mean strictly increases, and the optimal set
    holds the r smallest means, so a mean multiset mismatch forces a strictly
    larger expected max.
    """
    return _suboptimal_given_valid(pool, pool.validate_superarm(superarm), tol)


def record_outcome(
    state: BanditState,
    superarm,
    responses,
    pool: WorkerPool,
    r: int,
    j: int,
) -> BanditState:
    """Fold one iteration's observations into the counters (in place).

    ``responses[t]`` must be the response time of the ``t``-th member of the
    (ascending) superarm. When the chosen superarm is suboptimal, the
    suboptimal-pull counter of its least-pulled member (lowest index on ties,
    pulls as of before this update) is incremented.
    """
    arm = pool.validate_superarm(superarm)
    responses = np.atleast_1d(np.asarray(responses, dtype=np.float64))
    if responses.size != arm.size:
        raise ValueError(f"got {responses.size} responses for a superarm of size {arm.size}")
    if arm.size != r:
        raise ValueError(f"superarm has {arm.size} members, expected round size {r}")
    if j != state.current_iteration + 1:
        raise ValueError(f"iteration {j} does not follow recorded iteration {state.current_iteration}")

    if _suboptimal_given_valid(pool, arm, SUBOPTIMALITY_TOL):
        least = arm[np.argmin(state.pulls[arm])]  # argmin takes the first, i.e. lowest index
        state.suboptimal_pulls[least] += 1
    state.pulls[arm] += 1
    state.response_sums[arm] += responses
    state.current_iteration = j
    return state


@dataclass(frozen=True)
class RoundSchedule:
    """Switching points T_1 < ... < T_b; round r covers iterations (T_{r-1}, T_r]."""

    switching_points: tuple[int, ...]

    def __post_init__(self) -> None:
        points = tuple(int(t) for t in self.switching_points)
        if len(points) == 0:
            raise ValueError("schedule needs at least one switching point")
        if points[0] < 1 or any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError("switching points must be strictly increasing and >= 1")
        object.__setattr__(self, "switching_points", points)
        object.__setattr__(self, "_points_arr", np.asarray(points, dtype=np.int64))

    @property
    def b(self) -> int:
        return len(self.switching_points)

    @property
    def horizon(self) -> int:
        return self.switching_points[-1]

    def rounds_of(self, js: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._points_arr, js, side="left") + 1

    def round_lengths(self) -> np.ndarray:
        return np.diff(np.concatenate([[0], self._points_arr]))

    @property
    def budget(self) -> int:
        """Total worker employments: sum over rounds of r * (T_r - T_{r-1})."""
        return int((np.arange(1, self.b + 1) * self.round_lengths()).sum())


def compute_schedule(bound_params, b: int, theta: float = 0.1, j_cap: int = 1_000_000) -> RoundSchedule:
    """Switching points from the convergence bound.

    Round r is given the smallest number of iterations after which the bound
    with k=r falls within a factor (1+theta) of its error floor, each round
    starting from the same initial gap; the per-round durations are then laid
    out consecutively. The cumulative points are compressed to fit ``j_cap``
    while staying strictly increasing.
    """
    from .sgd import convergence_bound  # local import; sgd has no policy deps

    if b < 1:
        raise ValueError("need b >= 1")
    if theta <= 0:
        raise ValueError("theta must be > 0")
    if j_cap < b:
        raise ValueError(f"j_cap={j_cap} cannot fit {b} rounds of at least one iteration")
    decay = 1.0 - bound_params.eta * bound_params.convexity
    if decay <= 0:
        raise ValueError("eta * convexity must be < 1 to compute a schedule")

    durations = []
    for r in range(1, b + 1):
        floor = (
            bound_params.eta * bound_params.lipschitz * bound_params.sigma2
            / (2.0 * bound_params.convexity * r * bound_params.s)
        )
        target = (1.0 + theta) * floor
        slack = bound_params.initial_gap - floor
        if slack <= theta * floor:
            d = 1
        else:
            d = max(1, math.ceil(math.log(theta * floor / slack) / math.log(decay)))
            # guard the ceil against float rounding on either side
            while d > 1 and convergence_bound(bound_params, r, d - 1) <= target:
                d -= 1
            while convergence_bound(bound_params, r, d) > target:
                d += 1
        durations.append(d)

    points = []
    cum = 0
    for r, d in enumerate(durations, start=1):
        cum += d
        points.append(min(cum, j_cap - (b - r)))
    return RoundSchedule(tuple(points))
