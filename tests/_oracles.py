"""Independent oracles used to freeze expected test values.

Everything here recomputes quantities by a different route than the package:
subset sums via itertools instead of binary counting, gradients via central
finite differences or per-batch row gathers, LCBs one worker at a time or
as one vector per iteration, gaps via explicit enumeration, runs one
iteration and one draw call at a time, moments from whole 2^k arrays, numpy's
summation rule in Python floats, tail draws and batch keys as one block,
tables one cell at a time, comparisons from every run's trace held at once,
worker means drawn from the whole mean grid.
Keep these free of any dependence on the implementation paths they check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EXHAUSTIVE_N_CAP = 20
EXHAUSTIVE_B_CAP = 10


def brute_expected_max(rates) -> float:
    """Alternating sum over all non-empty subsets, via itertools."""
    rates = list(map(float, rates))
    total = 0.0
    for size in range(1, len(rates) + 1):
        sign = (-1.0) ** (size - 1)
        for combo in itertools.combinations(rates, size):
            total += sign / sum(combo)
    return total


def brute_second_moment_max(rates) -> float:
    rates = list(map(float, rates))
    total = 0.0
    for size in range(1, len(rates) + 1):
        sign = (-1.0) ** (size - 1)
        for combo in itertools.combinations(rates, size):
            total += sign * 2.0 / sum(combo) ** 2
    return total


def brute_variance_of_max(rates) -> float:
    mean = brute_expected_max(rates)
    return brute_second_moment_max(rates) - mean * mean


def full_array_max_moments(rates) -> tuple[float, float]:
    """``latency.max_moments`` from whole 2^k arrays: the bit-identity oracle.

    Subset sums by doubling over all k rates, then one ``np.add.reduce`` per
    moment over the 2^k - 1 non-empty masks' terms.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=np.float64))
    sums = np.zeros(1 << rates.size)
    parity = np.ones(1 << rates.size)  # (-1)^popcount(mask)
    for i, rate in enumerate(rates):
        step = 1 << i
        sums[step : 2 * step] = sums[:step] + rate
        parity[step : 2 * step] = -parity[:step]
    sums, parity = sums[1:], parity[1:]
    mean = -float(np.add.reduce(parity / sums))
    second = -float(np.add.reduce(parity / sums**2))
    return mean, max(2.0 * second - mean * mean, 0.0)


def pairwise_sum(values) -> float:
    """numpy's pairwise summation of a contiguous float64 run, in Python floats.

    Under 8 values: one running sum from 0.0. Up to 128: eight running sums
    over strides of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the remainder added in order. Longer: split at n2 = n//2 - (n//2) % 8 and
    add the two halves' sums.
    """
    values = list(map(float, values))

    def tree(lo, n):
        if n < 8:
            total = 0.0
            for v in values[lo : lo + n]:
                total += v
            return total
        if n <= 128:
            acc = values[lo : lo + 8]
            i = 8
            while i < n - n % 8:
                for j in range(8):
                    acc[j] += values[lo + i + j]
                i += 8
            total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
            for v in values[lo + i : lo + n]:
                total += v
            return total
        n2 = n // 2
        n2 -= n2 % 8
        return tree(lo, n2) + tree(lo + n2, n - n2)

    return 0.0 + tree(0, len(values))


def harmonic_iid_expected_max(lam: float, r: int) -> float:
    """(1/lam) * (1 + 1/2 + ... + 1/r) for r iid rate-lam exponentials."""
    return sum(1.0 / q for q in range(1, r + 1)) / lam


def central_difference_gradient(problem, batch, w) -> np.ndarray:
    """Finite-difference gradient of the batch partial loss at w."""
    rows = problem.X[np.asarray(batch)]
    ys = problem.y[np.asarray(batch)]

    def batch_loss(v):
        resid = rows @ v - ys
        return 0.5 * float(resid @ resid)

    grad = np.empty_like(w)
    for i in range(w.size):
        h = 1e-6 * max(1.0, abs(w[i]))
        hi = w.copy()
        lo = w.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (batch_loss(hi) - batch_loss(lo)) / (2 * h)
    return grad


# ---------------------------------------------------------------- learning layer


def loss(problem, w) -> float:
    """Least-squares objective 0.5 * ||X w - y||^2."""
    resid = problem.X @ w - problem.y
    return 0.5 * float(resid @ resid)


def partial_gradient(problem, w, batch) -> np.ndarray:
    """Gradient of one batch partial sum: sum_{l in batch} x_l (x_l^T w - y_l)."""
    batch = np.atleast_1d(np.asarray(batch, dtype=np.int64))
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    rows = problem.X[batch]
    return rows.T @ (rows @ w - problem.y[batch])


def apply_update(problem, w, gradients, responsive_count) -> np.ndarray:
    """Averaged mini-batch step: w - eta / (responsive_count * s) * sum(gradients)."""
    grads = np.asarray(gradients, dtype=np.float64)
    if grads.ndim == 1:
        grads = grads[None, :]
    if grads.size == 0:
        raise ValueError("need at least one gradient")
    if grads.shape[0] != responsive_count:
        raise ValueError(f"got {grads.shape[0]} gradients for responsive_count={responsive_count}")
    return w - (problem.eta / (responsive_count * problem.s)) * grads.sum(axis=0)


def model_error(problem, w) -> float:
    """Euclidean distance between w and the least-squares solution, via the norm."""
    return float(np.linalg.norm(w - problem.least_squares_target))


def one_block_batches(problem, count, rng) -> np.ndarray:
    """``count`` batches from one ``(count, m)`` key draw and one argpartition."""
    keys = rng.random((count, problem.m))
    return np.argpartition(keys, problem.s - 1, axis=1)[:, : problem.s]


# ---------------------------------------------------------------- scheduling layer


def exploration_scale(state, variant, j) -> float:
    """f(j) = 2 log j; the ``scaled`` variant multiplies it by the smallest
    empirical mean among pulled workers (0 when none was pulled)."""
    if j < 1:
        raise ValueError("iteration must be >= 1")
    f = 2.0 * math.log(j)
    if variant == "scaled":
        means = [total / t for total, t in zip(state.response_sums.tolist(), state.pulls.tolist()) if t > 0]
        f *= min(means) if means else 0.0
    return f


def confidence_radius(state, variant, worker, j) -> float:
    """sqrt(4 f(j) / T_i) + 2 f(j) / T_i for a worker with T_i = pulls > 0."""
    t = int(state.pulls[worker])
    if t <= 0:
        raise ValueError("confidence radius undefined for an unpulled worker")
    f = exploration_scale(state, variant, j)
    return math.sqrt(4.0 * f / t) + 2.0 * f / t


def lcb(state, variant, worker, j) -> float:
    """Lower confidence bound of one worker for the selection at iteration j."""
    if j < 1:
        raise ValueError("iteration must be >= 1")
    if state.pulls[worker] == 0:
        return -math.inf
    if j == 1:
        raise ValueError("no worker can have pulls before the first iteration")
    mean = state.response_sums[worker] / state.pulls[worker]
    return float(mean - confidence_radius(state, variant, worker, j - 1))


def lcb_values(state, variant, j) -> np.ndarray:
    """LCBs of all workers for the selection at iteration j, as one vector.

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
    f = exploration_scale(state, variant, j - 1)
    t = np.maximum(state.pulls, 1).astype(np.float64)
    out = state.response_sums / t - (np.sqrt(4.0 * f / t) + 2.0 * f / t)
    out[~pulled] = -np.inf
    return out


def select_superarm(state, variant, r, j) -> np.ndarray:
    """One iteration's bandit choice: the r workers with the lowest LCBs, ties to the lowest index."""
    if not 1 <= r <= state.n:
        raise ValueError(f"superarm size {r} outside [1, {state.n}]")
    return np.sort(np.argsort(lcb_values(state, variant, j), kind="stable")[:r])


def superarm_at(trace, j) -> np.ndarray:
    """The members a trace employed at iteration j (1-based)."""
    return trace.members[trace.member_offsets[j - 1] : trace.member_offsets[j]]


def responses_at(trace, j) -> np.ndarray:
    """The response times of ``superarm_at(trace, j)``, member by member."""
    return trace.member_responses[trace.member_offsets[j - 1] : trace.member_offsets[j]]


SUBOPTIMALITY_TOL = 1e-12


def superarm_is_suboptimal(pool, superarm, *, tol: float = SUBOPTIMALITY_TOL) -> bool:
    """Whether the superarm's sorted member means exceed the pool's r smallest means.

    That decides the expected-max comparison against the optimal superarm
    (the expected max strictly increases with any member's mean).
    """
    means = np.asarray(pool.means, dtype=np.float64)
    chosen = np.sort(means[np.asarray(superarm, dtype=np.int64)])
    return bool(np.any(chosen > np.sort(means)[: chosen.size] + tol))


def book_iteration(state, pool, superarm, responses) -> None:
    """One iteration's bookkeeping, one member at a time (in place).

    A suboptimal superarm (``superarm_is_suboptimal``) charges one pull to
    its member with the fewest pulls before this update, the lowest index on
    ties; then each member's pull count and response sum take its response.
    """
    arm = [int(w) for w in superarm]
    if superarm_is_suboptimal(pool, arm):
        least = min(arm, key=lambda w: (int(state.pulls[w]), w))
        state.suboptimal_pulls[least] += 1
    for worker, value in zip(arm, np.asarray(responses, dtype=np.float64).tolist()):
        state.pulls[worker] += 1
        state.response_sums[worker] += value
    state.current_iteration += 1


def kth_order_response(rates, k, rng) -> float:
    """One draw per worker, in index order, and its k-th smallest value (k >= 1)."""
    draws = rng.exponential(1.0 / np.asarray(rates, dtype=np.float64))
    return float(np.partition(draws, k - 1)[k - 1])


def order_statistic_check(samples, rng) -> tuple[bool, str]:
    """``verify.check_order_statistics`` one draw call per sample: (passed, detail)."""
    n = 4
    rates = np.ones(n)
    fastest = np.array([kth_order_response(rates, 1, rng) for _ in range(samples)])
    slowest = np.array([kth_order_response(rates, n, rng) for _ in range(samples)])
    ok = True
    details = []
    for label, draws, exact in (("min", fastest, 1.0 / n), ("max", slowest, harmonic_iid_expected_max(1.0, n))):
        se = draws.std(ddof=1) / math.sqrt(samples)
        ok = ok and abs(draws.mean() - exact) <= 3 * se
        details.append(f"{label} mean {draws.mean():.5f} vs {exact:.5f}")
    return bool(ok), "; ".join(details)


def grid_draw_means(config, rng) -> np.ndarray:
    """``n`` worker means drawn from the whole mean grid, built as ``np.linspace`` rounded to 12 decimals."""
    count = int(round((config.mean_max - config.mean_min) / config.mean_step)) + 1
    grid = np.round(np.linspace(config.mean_min, config.mean_max, count), 12)
    return rng.choice(grid, size=config.n, replace=not config.distinct_means)


def reference_run_single(config, policy, seed):
    """``harness.run_single`` one iteration at a time, with one draw call per iteration.

    Every policy asks the latency stream for its iteration's draws when it
    reaches that iteration: a one-row ``member_responses`` block of the chosen
    superarm for the bandit and omniscient policies, a one-row
    ``response_vector`` block for k-sync. The bandit picks with
    ``select_superarm`` on the ``lcb_values`` vector; the bandit and omniscient
    policies book with ``book_iteration``. Each iteration's round and member
    offset are counted here from the switching points, not read from the
    schedule. Returns ``(trace, derived)``: a trace with the same fields as the
    package's run, and a dict of the arrays a package trace reads from its
    schedule or replays from its seed: ``rounds``, ``member_offsets``,
    ``employments``, and ``member_responses`` as they were drawn.
    """
    from banditsgd.harness import BANDIT_VARIANTS, RunTrace, SeedSetup, stream_rng
    from banditsgd.latency import member_responses, response_vector
    from banditsgd.policies import BanditState, select_superarm_optimal

    setup = SeedSetup.build(config, seed)
    pool, schedule = setup.pool, setup.schedule
    latency_rng = stream_rng(seed, "worker-latency")
    variant = BANDIT_VARIANTS.get(policy)
    is_ksync = policy == "adaptive-ksync"
    n, horizon = pool.n, schedule.horizon

    rounds = np.zeros(horizon, dtype=np.int64)
    offsets = np.zeros(horizon + 1, dtype=np.int64)
    r = 1
    for j in range(1, horizon + 1):
        if j > schedule.switching_points[r - 1]:
            r += 1
        rounds[j - 1] = r
        offsets[j] = offsets[j - 1] + r
    members = np.zeros(offsets[-1], dtype=np.int32)
    member_resp = np.zeros(offsets[-1], dtype=np.float64)
    times = np.zeros(horizon)
    employ = np.full(horizon, n, dtype=np.int64) if is_ksync else rounds.copy()
    state = BanditState.zeros(n)
    optimal_sets = [select_superarm_optimal(pool, r) for r in range(1, schedule.b + 1)]

    for j in range(1, horizon + 1):
        r = int(rounds[j - 1])
        if is_ksync:
            draws = response_vector(pool, latency_rng, 1)[0]
            arm = np.sort(np.argsort(draws, kind="stable")[:r])
            resp = draws[arm]
        else:
            arm = optimal_sets[r - 1] if variant is None else select_superarm(state, variant, r, j)
            resp = member_responses(pool, arm, latency_rng, 1)[0]
            book_iteration(state, pool, arm, resp)
        times[j - 1] = resp.max()
        lo = offsets[j - 1]
        members[lo : lo + r] = arm
        member_resp[lo : lo + r] = resp

    if is_ksync:
        pulls, subopt = np.full(n, horizon, dtype=np.int64), np.zeros(n, dtype=np.int64)
    else:
        pulls, subopt = state.pulls, state.suboptimal_pulls
    trace = RunTrace(
        policy=policy,
        seed=int(seed),
        schedule=schedule,
        pool=pool,
        response_times=times,
        model_errors=setup.model_errors,
        members=members,
        pulls=pulls,
        suboptimal_pulls=subopt,
    )
    return trace, {"rounds": rounds, "member_offsets": offsets, "employments": employ, "member_responses": member_resp}


def reference_comparison(config) -> tuple[dict, dict]:
    """``harness.run_comparison``'s tables and summary from separately held ``run_single`` traces.

    Every policy's runs are kept, each built without a shared setup; the
    seed averages are ``np.mean`` over the runs in seed order, regret is
    ``empirical_regret`` against each run's own ``round_reference_means``,
    and identification is ``identify_fastest`` over the policy's runs.
    Returns ``(tables, summary)``: the error curves, employment profiles
    and regret tables by kind, and the ``summary.json`` payload.
    """
    from banditsgd.analysis import empirical_regret, regret_bound_table
    from banditsgd.harness import BANDIT_VARIANTS, RETIRED_SUMMARY_KEYS, identify_fastest, run_single

    traces = {p: [run_single(config, p, s) for s in config.seeds] for p in config.policies}
    first = traces[config.policies[0]][0]
    iters = np.arange(1, first.schedule.horizon + 1)
    bound = regret_bound_table(first.pool, first.schedule, iters) if config.pool_is_pinned else {}
    tables = {"error_curves": {}, "employment_profiles": {}, "regret": {}}
    summary = {
        "config": {**config.as_dict(), **RETIRED_SUMMARY_KEYS},
        "budget": first.schedule.budget,
        "policies": {},
        "identification": {},
    }
    for policy, runs in traces.items():
        tables["error_curves"][policy] = {
            "iter": iters,
            "cum_time_mean": np.mean([t.cum_times for t in runs], axis=0),
            "cum_employments": runs[0].cum_employments,
            "model_error_mean": np.mean([t.model_errors for t in runs], axis=0),
        }
        if policy != "adaptive-ksync":
            tables["employment_profiles"][policy] = np.mean([t.pulls[t.pool.speed_order] for t in runs], axis=0)
        summary["policies"][policy] = {
            "final_error_mean": float(np.mean([t.model_errors[-1] for t in runs])),
            "final_time_mean": float(np.mean([t.cum_times[-1] for t in runs])),
            "total_employments": int(runs[0].cum_employments[-1]),
            "suboptimal_pulls_mean": float(np.mean([t.suboptimal_count for t in runs])),
        }
        if policy in BANDIT_VARIANTS:
            report = identify_fastest(runs)
            summary["policies"][policy]["identification_accuracy"] = report.mean_accuracy
            summary["identification"][policy] = {
                "mean_accuracy": report.mean_accuracy,
                "exact_matches": report.exact_matches,
                "identified": [arr.tolist() for arr in report.identified],
            }
            regrets = [empirical_regret(t, t.pool, t.schedule) for t in runs]
            tables["regret"][policy] = {"iter": iters, "mean_regret": np.mean(regrets, axis=0), **bound}
    return tables, summary


# ---------------------------------------------------------------- output layer


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))


def write_table_by_cell(path, columns) -> None:
    """``harness._write_table`` formatting one value at a time, row by row, all rows at once.

    A column that is not an array is taken as one slice of all its rows.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else c[: len(c)] for c in columns.values()]
    lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in zip(*cols)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- analysis layer


def delta_min_exhaustive(pool, b) -> float:
    """Brute-force minimum per-arm gap over every superarm of size <= b.

    Enumerates all superarms and positions; exponential in n, so capped.
    """
    if pool.n > EXHAUSTIVE_N_CAP or b > EXHAUSTIVE_B_CAP:
        raise ValueError(
            f"exhaustive enumeration capped at n <= {EXHAUSTIVE_N_CAP}, b <= {EXHAUSTIVE_B_CAP}; "
            "use compute_gaps (pairwise reduction) for larger pools"
        )
    if not 1 <= b <= pool.n:
        raise ValueError("need 1 <= b <= n")
    sorted_means = np.sort(pool.means)
    best = math.inf
    for r in range(1, b + 1):
        opt = sorted_means[:r]
        for combo in itertools.combinations(range(pool.n), r):
            member_means = np.sort(pool.means[list(combo)])
            for v in range(r):
                if member_means[v] > opt[v]:
                    best = min(best, member_means[v] - opt[v])
    return best


def fresh_buffer_mc_max_samples(rates, samples, rng) -> np.ndarray:
    """``verify.mc_max_samples`` with a fresh array for each rate's draws."""
    rates = np.atleast_1d(np.asarray(rates, dtype=np.float64))
    acc = rng.standard_exponential(samples) / rates[0]
    for lam in rates[1:]:
        acc = np.maximum(acc, rng.standard_exponential(samples) / lam)
    return acc


def one_block_tail_rates(t, lam, eps_grid, trials, rng) -> dict:
    """``verify.empirical_mean_tail_rates`` from one ``(trials, t)`` draw."""
    from banditsgd.analysis import subgamma_tail, subgaussian_tail

    centered = rng.standard_exponential((trials, t)).mean(axis=1) / lam - 1.0 / lam
    sigma2 = 1.0 / (t * lam * lam)
    out = {}
    for eps in eps_grid:
        threshold, right_bound = subgamma_tail(eps, sigma2, 1.0 / (t * lam))
        out[eps] = {
            "right_freq": float((centered > threshold).mean()),
            "right_bound": right_bound,
            "left_freq": float((centered <= -eps).mean()),
            "left_bound": subgaussian_tail(eps, sigma2),
        }
    return out


def regret_bound(n, switching_points, delta_max, delta_min, j) -> float:
    """The worst-case bound at one iteration j of the run, from a gap report's ``delta_max`` and ``delta_min``.

    Delta_max over started rounds * n * (48 log(j) / min(delta_min^2, delta_min)
    + 1 + u * pi^2/3), u = 1 + the number of switching points before j.
    """
    j = float(j)
    u = 1 + sum(1 for t in switching_points if t < j)
    delta_term = max(float(d) for d in delta_max[:u])
    log_val = math.log(j)
    denom = min(delta_min**2, delta_min)
    return delta_term * n * (48.0 * log_val / denom + 1.0 + u * (math.pi**2 / 3.0))
