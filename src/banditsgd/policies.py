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

from .latency import WorkerPool, block_rows

SUBOPTIMALITY_TOL = 1e-12

# compute_schedule's proximity factor and iteration cap
THETA = 0.1
J_CAP = 1_000_000

RADIUS_VARIANTS = ("plain", "scaled")


@dataclass
class BanditState:
    """Per-worker counters maintained by the bandit policy.

    ``pulls[i]`` counts employments of worker i, ``response_sums[i]`` their
    summed observed response times, and ``suboptimal_pulls[i]`` the
    bookkeeping counter that is incremented for exactly one member (the one
    least pulled before that iteration) whenever a suboptimal superarm is
    chosen, so its total equals the number of suboptimal superarm pulls.
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


def suboptimal_rows(pool: WorkerPool, arms: np.ndarray) -> np.ndarray:
    """Which rows of an ``(L, r)`` block of superarms are suboptimal: one bool per row.

    A row is suboptimal when some of its sorted member means exceeds the
    pool's matching entry of ``sorted_means[:r]`` by more than
    ``SUBOPTIMALITY_TOL``. Comparing sorted means decides the expected-max
    comparison: the expected max strictly increases when any member's mean
    strictly increases, and the optimal set holds the r smallest means, so a
    mean multiset mismatch forces a strictly larger expected max. A worker's
    level counts the entries of ``sorted_means + SUBOPTIMALITY_TOL`` below its
    mean, so the v-th smallest member mean exceeds the v-th entry exactly when
    the v-th smallest member level is at least v. Rows are judged on levels,
    in the smallest integer type, ``block_rows(r)`` at a time.
    """
    iterations, r = arms.shape
    flags = np.empty(iterations, dtype=bool)
    levels = np.searchsorted(pool.sorted_means + SUBOPTIMALITY_TOL, pool.means).astype(np.min_scalar_type(pool.n))
    ranks = np.arange(r, dtype=levels.dtype)
    step = block_rows(r)
    for lo in range(0, iterations, step):
        member_levels = levels[arms[lo : lo + step]]
        member_levels.sort(axis=1)
        np.any(member_levels > ranks, axis=1, out=flags[lo : lo + step])
    return flags


def select_superarm_cmab(
    state: BanditState, variant: str, pool: WorkerPool, draws: np.ndarray, arms: np.ndarray
) -> np.ndarray:
    """Play the next ``L`` iterations of one bandit round; write their superarms into ``arms`` and return it.

    ``draws`` is an ``(L, r)`` float64 block of standard exponential variates,
    any run of a round's rows (``run_single`` passes ``block_rows(r)`` at a
    time); its first row is iteration ``j = state.current_iteration + 1``.
    For each iteration in turn this writes the ``r`` workers with the lowest
    LCBs on the counters so far (ties to the lowest index, in ascending order)
    to that row of ``arms``, the caller's integer array of the draws' shape,
    scales that row of ``draws`` in place by the members' mean response times,
    so the row becomes the observed responses, and adds the row to the state's
    pulls and response sums. Each iteration also notes its least-pulled member
    (the charge ``record_outcome`` makes); the block's suboptimal rows
    (``suboptimal_rows``) are charged to those members at the end.

    An arm's LCB at iteration ``j`` is its empirical mean minus the radius
    ``sqrt(4 f / T) + 2 f / T`` with ``f = 2 log(j-1)``; unpulled arms score
    -infinity. ``variant`` is one of ``RADIUS_VARIANTS``: ``plain`` uses that
    ``f``, ``scaled`` multiplies it by the smallest empirical mean among
    pulled workers, which shrinks exploration once fast workers look fast.
    Counts are held as one float64 array within the call (exact for
    integers) and written back to ``state.pulls`` at the end.
    """
    n = state.n
    if variant not in RADIUS_VARIANTS:
        raise ValueError(f"unknown radius variant {variant!r}; choose from {RADIUS_VARIANTS}")
    if not isinstance(draws, np.ndarray) or draws.ndim != 2 or draws.dtype != np.float64:
        raise ValueError(f"draws must be a 2-D float64 array, got {type(draws).__name__} of shape {np.shape(draws)}")
    iterations, r = draws.shape
    if not 1 <= r <= n:
        raise ValueError(f"superarm size {r} outside [1, {n}]")
    if iterations < 1:
        raise ValueError("draws must hold at least one iteration")
    if not isinstance(arms, np.ndarray) or arms.shape != draws.shape:
        raise ValueError(f"arms of shape {np.shape(arms)} do not fit draws of shape {draws.shape}")
    if pool.n != n:
        raise ValueError(f"pool has {pool.n} workers, state has {n}")
    j = state.current_iteration + 1
    if j == 1 and state.pulls.any():
        raise ValueError("no worker can have pulls before the first iteration")

    scaled = variant == "scaled"
    counts = state.pulls.astype(np.float64)
    sums, means = state.response_sums, pool.means
    coef, terms, lcb = np.empty((2, 1)), np.empty((2, n)), np.empty(n)
    radius, linear = terms  # row views, made once
    least = np.empty(iterations, dtype=np.int64)  # each iteration's least-pulled member
    # reductions are slow on small arrays: count_nonzero and argmin stand in for all() and min()
    pulled = np.count_nonzero(counts)
    for i in range(iterations):
        if pulled == 0:
            lcb.fill(-np.inf)
        else:
            # while an arm is unpulled, t counts it as 1 and it scores -inf; after that t is the counts
            unpulled = counts == 0 if pulled < n else None
            t = counts if unpulled is None else np.maximum(counts, 1.0)
            f = 2.0 * math.log(j + i - 1)
            np.divide(sums, t, out=lcb)  # the empirical means
            if scaled:
                if unpulled is not None:
                    lcb[unpulled] = np.inf  # the smallest pulled mean skips them
                f *= float(lcb[lcb.argmin()])
            coef[0, 0] = 4.0 * f
            coef[1, 0] = 2.0 * f
            np.divide(coef, t, out=terms)  # both quotients of the radius sqrt(4 f / t) + 2 f / t at once
            np.sqrt(radius, out=radius)
            radius += linear
            lcb -= radius
            if unpulled is not None:
                lcb[unpulled] = -np.inf
        arm = lcb.argsort(kind="stable")[:r]  # int64, so the indexing below needs no cast
        arm.sort()
        arms[i] = arm
        row = draws[i]
        row *= means[arm]
        seen = counts[arm]
        least[i] = arm[seen.argmin()]  # ties to the lowest index: the row ascends
        counts[arm] = seen + 1.0
        sums[arm] += row
        if pulled < n:
            pulled = np.count_nonzero(counts)
    state.suboptimal_pulls += np.bincount(least[suboptimal_rows(pool, arms)], minlength=n)
    state.pulls[:] = counts
    state.current_iteration += iterations
    return arms


def select_superarm_optimal(pool: WorkerPool, r: int) -> np.ndarray:
    """The r workers with the smallest mean response times (index tie-break): ``pool.speed_order[:r]``."""
    if not 1 <= r <= pool.n:
        raise ValueError(f"superarm size {r} outside [1, {pool.n}]")
    return np.sort(pool.speed_order[:r])


def record_outcome(state: BanditState, superarm, responses, pool: WorkerPool) -> BanditState:
    """Fold the observations of the next iteration into the counters (in place).

    ``responses[t]`` must be the response time of the ``t``-th member of the
    (ascending) superarm of size ``r``. An ``(L, r)`` block folds in the next
    ``L`` iterations of the same superarm, row ``i`` being iteration
    ``state.current_iteration + 1 + i``, with the same result as ``L`` single
    calls: response sums are accumulated row after row, and the state
    advances by ``L`` iterations.

    When the chosen superarm is suboptimal (``suboptimal_rows`` on it as a
    one-row block), the suboptimal-pull counter of its least-pulled member
    (lowest index on ties, pulls as of before this update) is incremented,
    once per iteration.
    """
    arm = pool.validate_superarm(superarm)
    block = np.atleast_2d(np.asarray(responses, dtype=np.float64))
    if block.ndim != 2 or block.shape[0] < 1 or block.shape[1] != arm.size:
        raise ValueError(f"responses of shape {np.shape(responses)} do not fit a superarm of size {arm.size}")

    iterations = block.shape[0]
    if suboptimal_rows(pool, arm[None])[0]:
        state.suboptimal_pulls[arm[state.pulls[arm].argmin()]] += iterations
    state.pulls[arm] += iterations
    # cumsum adds row after row, as single calls would; a pairwise sum would change bits
    state.response_sums[arm] = np.cumsum(np.vstack([state.response_sums[arm], block]), axis=0)[-1]
    state.current_iteration += iterations
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

    def rounds_of(self, js) -> np.ndarray:
        """The round of each iteration of ``js``; a run covers iterations 1 .. horizon, and others are rejected."""
        js = np.asarray(js)
        if (js < 1).any():
            raise ValueError("iteration must be >= 1")
        late = js > self.horizon
        if late.any():
            raise ValueError(f"iteration {js[late][0]} is past the schedule's horizon {self.horizon}")
        return np.searchsorted(self._points_arr, js, side="left") + 1

    def round_lengths(self) -> np.ndarray:
        return np.diff(np.concatenate([[0], self._points_arr]))

    def round_rows(self, flat: np.ndarray):
        """Each round's ``(T_r - T_{r-1}, r)`` view of ``flat``, a per-member array of ``budget`` values."""
        if flat.shape != (self.budget,):
            raise ValueError(f"a per-member array holds {self.budget} values, got shape {flat.shape}")
        lo = 0
        for r, count in enumerate(self.round_lengths().tolist(), start=1):
            yield flat[lo : lo + count * r].reshape(count, r)
            lo += count * r

    def blocks(self, width: int | None, *flats: np.ndarray):
        """``round_rows`` of ``flats`` in blocks of ``block_rows(width or r)`` rows, each with its iterations' slice."""
        lo = 0
        for views in zip(*map(self.round_rows, flats)):
            count, r = views[0].shape
            step = block_rows(width or r)
            for i in range(0, count, step):
                yield (slice(lo + i, lo + min(i + step, count)), *(v[i : i + step] for v in views))
            lo += count

    @property
    def budget(self) -> int:
        """Total worker employments: sum over rounds of r * (T_r - T_{r-1})."""
        return int((np.arange(1, self.b + 1) * self.round_lengths()).sum())


def compute_schedule(bound_params, b: int) -> RoundSchedule:
    """Switching points from the convergence bound.

    Round r is given the smallest number of iterations after which the bound
    with k=r falls within a factor (1+THETA) of its error floor, each round
    starting from the same initial gap; the switching points are the running
    sum of these durations. A schedule that runs past ``J_CAP`` iterations
    is rejected, naming its horizon and the first round that ends past the cap.
    """
    from .sgd import convergence_bound  # local import; sgd has no policy deps

    if b < 1:
        raise ValueError("need b >= 1")
    if bound_params.decay <= 0:
        raise ValueError("eta * convexity must be < 1 to compute a schedule")

    durations = []
    for r in range(1, b + 1):
        floor = bound_params.error_floor(r)
        target = (1.0 + THETA) * floor
        slack = bound_params.initial_gap - floor
        if slack <= THETA * floor:
            d = 1
        else:
            d = max(1, math.ceil(math.log(THETA * floor / slack) / math.log(bound_params.decay)))
            # guard the ceil against float rounding on either side
            while d > 1 and convergence_bound(bound_params, r, d - 1) <= target:
                d -= 1
            while convergence_bound(bound_params, r, d) > target:
                d += 1
        durations.append(d)

    points = np.cumsum(durations)
    if points[-1] > J_CAP:
        late = np.searchsorted(points, J_CAP, side="right") + 1  # the first round that ends past the cap
        raise ValueError(f"computed schedule runs {points[-1]} iterations and round {late} ends past "
                         f"J_CAP={J_CAP}; use a larger eta or explicit switching points")
    return RoundSchedule(tuple(points))
