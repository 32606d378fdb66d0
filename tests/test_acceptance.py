"""End-to-end acceptance checks.

Each test covers one exit criterion at its stated tolerance and prints a
single pass line when it holds (run with ``pytest -s`` to see them; a failing
criterion fails its test). The 50-worker benchmark runs are produced once per
session by fixtures and shared across criteria, and the policies of one seed
share its SGD trajectory, so the whole module completes in a few minutes.
"""

import math
import os
import time

import numpy as np
import pytest

from banditsgd.analysis import (
    completion_time_bound,
    empirical_regret,
    regret_bound_curve,
    round_reference_means,
)
from banditsgd.harness import (
    ExperimentConfig,
    SeedSetup,
    build_pool,
    error_at_employments,
    identify_fastest,
    run_single,
)
from banditsgd.latency import WorkerPool, expected_max
from banditsgd.policies import BanditState, select_superarm_cmab, select_superarm_optimal
from banditsgd.sgd import BoundParams, batch_gradient, convergence_bound, generate_problem, sample_batches
from banditsgd.verify import empirical_mean_tail_rates, mc_max_mean

from _oracles import brute_expected_max, central_difference_gradient, superarm_at

BENCHMARK_CFG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "benchmark.cfg")


def report(num: int, name: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS")


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def va_config():
    return ExperimentConfig.from_file(BENCHMARK_CFG)


@pytest.fixture(scope="module")
def va_setups(va_config):
    """One setup per seed, so the three policies below share each SGD trajectory."""
    return [SeedSetup.build(va_config, s) for s in va_config.seeds]


@pytest.fixture(scope="module")
def va_plain(va_config, va_setups):
    return [run_single(va_config, "cmab-plain", s.seed, s) for s in va_setups]


@pytest.fixture(scope="module")
def va_scaled(va_config, va_setups):
    return [run_single(va_config, "cmab-scaled", s.seed, s) for s in va_setups]


@pytest.fixture(scope="module")
def va_ksync(va_config, va_setups):
    return [run_single(va_config, "adaptive-ksync", s.seed, s) for s in va_setups]


@pytest.fixture(scope="module")
def small_pool_runs():
    """Ten pinned pools, ten latency-only bandit runs each."""
    out = []
    for pool_seed in range(10):
        cfg = ExperimentConfig(
            n=10,
            b=5,
            m=20,
            d=2,
            seeds=tuple(range(10)),
            policies=("cmab-plain", "optimal"),
            schedule="100,220,360,520,700",
            mean_step=0.01,
            distinct_means=True,
            simulate_sgd=False,
            pool_seed=pool_seed,
        )
        traces = [run_single(cfg, "cmab-plain", s) for s in cfg.seeds]
        out.append((build_pool(cfg, pool_seed), traces))
    return out


@pytest.fixture(scope="module")
def coverage_runs():
    cfg = ExperimentConfig(
        n=5,
        b=5,
        m=10,
        d=2,
        seeds=tuple(range(200)),
        policies=("cmab-plain", "optimal"),
        schedule="60,130,210,300,400",
        worker_means=(0.55, 0.6, 0.65, 0.7, 0.75),
        simulate_sgd=False,
    )
    traces = [run_single(cfg, "cmab-plain", s) for s in cfg.seeds]
    return build_pool(cfg, 0), traces


# ------------------------------------------------------------------ criteria


def test_c01_expected_max_against_monte_carlo():
    """1000 random rate lists: closed form within 3 standard errors, under 2 min."""
    rng = np.random.default_rng(20260809)
    start = time.monotonic()
    misses = 0
    lists = 1000
    for _ in range(lists):
        length = int(rng.integers(1, 9))
        rates = rng.uniform(0.5, 10.0, length)
        mean, se = mc_max_mean(rates, 1_000_000, rng)
        if abs(expected_max(rates) - mean) > 3.0 * se:
            misses += 1
    elapsed = time.monotonic() - start
    assert misses <= 0.01 * lists, f"{misses} of {lists} lists outside 3 standard errors"
    assert elapsed < 120.0, f"Monte Carlo sweep took {elapsed:.0f}s"
    report(1, f"exact max-mean vs Monte Carlo, {lists - misses}/{lists} within 3 SE in {elapsed:.0f}s")


def test_c02_gradient_matches_finite_differences():
    """100 small problems: analytic batch gradient vs central differences, 1e-4 relative."""
    for i in range(100):
        problem = generate_problem(20, 5, np.random.default_rng(1000 + i), b=4, eta=1e-4)
        batches = sample_batches(problem, 1, np.random.default_rng(2000 + i))
        analytic = batch_gradient(problem, problem.w0, batches)
        numeric = central_difference_gradient(problem, batches[0], problem.w0)
        denom = np.maximum(np.abs(analytic), 1e-6 * np.abs(analytic).max())
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() <= 1e-4, f"problem {i}: worst relative error {rel.max():.2e}"
    report(2, "analytic gradients within 1e-4 of central differences")


def test_c03_convergence_bound_shape():
    """Bound equals the gap at j=0, reaches its floor, and is monotone in k and j."""
    ks = range(1, 6)
    js = range(0, 41)
    for eta in (0.05, 0.2):
        for c in (0.5, 1.5):
            if eta * c >= 1:
                continue
            for lip in (1.0, 3.0):
                for sigma2 in (0.5, 2.0):
                    for s in (1, 4):
                        floor1 = eta * lip * sigma2 / (2 * c * s)
                        params = BoundParams(
                            lipschitz=lip, convexity=c, sigma2=sigma2,
                            initial_gap=2 * floor1, s=s, eta=eta,
                        )
                        assert convergence_bound(params, 1, 0) == pytest.approx(params.initial_gap, rel=1e-12)
                        for k in ks:
                            floor_k = floor1 / k
                            assert abs(convergence_bound(params, k, 10_000) - floor_k) <= 1e-9
                            vals = [convergence_bound(params, k, j) for j in js]
                            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
                        for j in js:
                            by_k = [convergence_bound(params, k, j) for k in ks]
                            assert all(b <= a + 1e-12 for a, b in zip(by_k, by_k[1:]))
    report(3, "convergence bound: gap at j=0, floor within 1e-9, monotone in k and j")


def test_c04_fastest_worker_identification(va_config, va_plain, va_scaled):
    """Final-round top-b set vs the truly fastest b workers, both radius variants."""
    plain = identify_fastest(va_plain)
    assert plain.exact_matches >= 9, f"plain variant exact in only {plain.exact_matches}/10 runs"
    scaled = identify_fastest(va_scaled)
    assert scaled.mean_accuracy >= 0.95, f"scaled variant accuracy {scaled.mean_accuracy:.3f}"
    report(
        4,
        f"identification: plain exact {plain.exact_matches}/10, "
        f"scaled accuracy {scaled.mean_accuracy:.3f}",
    )


def test_c05_mean_regret_below_worst_case_bound(small_pool_runs):
    """Across-seed mean regret never exceeds the guarantee, on 10 pinned pools."""
    for pool, traces in small_pool_runs:
        assert pool.theorem_valid
        schedule = traces[0].schedule
        reference = round_reference_means(pool, schedule)
        curves = np.stack([empirical_regret(t, pool, schedule, reference) for t in traces])
        mean_curve = curves.mean(axis=0)
        bound = regret_bound_curve(pool, schedule, np.arange(1, schedule.horizon + 1))
        assert (mean_curve <= bound).all(), "mean regret crossed the worst-case bound"
    report(5, "mean regret at or below the worst-case bound on all 10 pools, all iterations")


def test_c06_completion_time_coverage(coverage_runs):
    """Time-bound coverage over 200 seeds at three checkpoints, eps in {0.5, 1, 2}."""
    pool, traces = coverage_runs
    schedule = traces[0].schedule
    reference = round_reference_means(pool, schedule)
    regrets = np.stack([empirical_regret(t, pool, schedule, reference) for t in traces])
    cum_times = np.stack([t.cum_times for t in traces])
    n_runs = len(traces)
    checkpoints = (schedule.switching_points[0], schedule.horizon // 2, schedule.horizon)
    for j in checkpoints:
        mean_regret_j = regrets[:, j - 1].mean()
        for eps in (0.5, 1.0, 2.0):
            bound, prob = completion_time_bound(pool, schedule, j, mean_regret_j, eps)
            freq = float((cum_times[:, j - 1] <= bound).mean())
            margin = 3.0 * math.sqrt(prob * (1 - prob) / n_runs)
            assert freq >= prob - margin, f"j={j} eps={eps}: coverage {freq:.3f} < {prob:.3f} - {margin:.3f}"
    report(6, "completion-time bound covered at T_1, T_b/2, T_b for eps in {0.5, 1, 2}")


def test_c07_cost_error_tradeoff(va_config, va_plain, va_ksync):
    """At the bandit policy's budget, its error beats the all-workers baseline
    by three orders of magnitude; the baseline is strictly faster in wall clock."""
    budget = va_plain[0].schedule.budget
    cmab_err = float(np.mean([t.model_errors[-1] for t in va_plain]))
    ksync_err = float(np.mean([error_at_employments(t, budget) for t in va_ksync]))
    ratio = ksync_err / cmab_err
    assert ratio >= 1e3, f"error ratio at equal employments only {ratio:.1f}"
    cmab_time = float(np.mean([t.cum_times[-1] for t in va_plain]))
    ksync_time = float(np.mean([t.cum_times[-1] for t in va_ksync]))
    assert ksync_time < cmab_time, "baseline should finish its schedule strictly faster"
    report(7, f"cost-error trade-off: ratio {ratio:.0f} at budget {budget}, "
              f"baseline {ksync_time:.0f} vs bandit {cmab_time:.0f} wall clock")


def test_c08_zero_radius_reduces_to_omniscient():
    """Preloaded truthful means with vanished radii reproduce the optimal sets."""
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        means = rng.uniform(0.1, 0.9, n)
        pool = WorkerPool(1.0 / means)
        state = BanditState(
            pulls=np.ones(n, dtype=np.int64),
            response_sums=means.copy(),
            suboptimal_pulls=np.zeros(n, dtype=np.int64),
        )
        for r in range(1, n + 1):
            # at iteration 2 the radius uses f(1) = 0, so LCBs equal the means;
            # the round step plays one iteration on a copy of the state
            step = BanditState(state.pulls.copy(), state.response_sums.copy(), state.suboptimal_pulls.copy(), 1)
            chosen = select_superarm_cmab(step, "plain", pool, np.ones((1, r)), np.empty((1, r), dtype=np.int64))[0]
            np.testing.assert_array_equal(chosen, select_superarm_optimal(pool, r))
    report(8, "zero-radius policy equals the omniscient selection on 100 pools")


def test_c09_bookkeeping_identities(va_plain, va_scaled, small_pool_runs):
    """Pull totals match the schedule exactly; suboptimal counters match an
    independent recount of suboptimal superarm pulls."""
    for trace in va_plain + va_scaled:
        lengths = trace.schedule.round_lengths()
        expected_pulls = int((np.arange(1, trace.schedule.b + 1) * lengths).sum())
        assert int(trace.pulls.sum()) == expected_pulls

        # recount: a chosen set is suboptimal iff its sorted member means are
        # not the r smallest means (strict monotonicity of the expected max)
        means = trace.pool.means
        sorted_means = np.sort(means)
        recount = 0
        for j in range(1, len(trace) + 1):
            arm = superarm_at(trace, j)
            if np.any(np.sort(means[arm]) > sorted_means[: arm.size] + 1e-12):
                recount += 1
        assert int(trace.suboptimal_pulls.sum()) == recount

    # small pools: recount straight from the expected-max definition
    pool, traces = small_pool_runs[0]
    optimal_value = {
        r: brute_expected_max(pool.rates[select_superarm_optimal(pool, r)])
        for r in range(1, traces[0].schedule.b + 1)
    }
    for trace in traces[:5]:
        recount = 0
        for j in range(1, len(trace) + 1):
            arm = superarm_at(trace, j)
            if brute_expected_max(pool.rates[arm]) > optimal_value[arm.size] + 1e-12:
                recount += 1
        assert int(trace.suboptimal_pulls.sum()) == recount
        assert int(trace.pulls.sum()) == trace.schedule.budget
    report(9, "pull totals equal the budget; suboptimal counters equal the recount")


def test_c10_tail_bounds_on_empirical_means():
    """Centered empirical means of exponentials respect both tail bounds."""
    rng = np.random.default_rng(31)
    trials = 100_000
    eps_grid = (0.25, 0.5, 1.0, 2.0)
    for t in (4, 16, 64):
        for lam in (1.0, 2.0):
            rates = empirical_mean_tail_rates(t, lam, eps_grid, trials, rng)
            for eps, row in rates.items():
                for side in ("right", "left"):
                    bound = row[f"{side}_bound"]
                    margin = 3.0 * math.sqrt(max(bound * (1 - bound), 0.0) / trials)
                    assert row[f"{side}_freq"] <= bound + margin, (
                        f"T={t} lam={lam} eps={eps} {side}: "
                        f"{row[f'{side}_freq']:.4f} > {bound:.4f} + {margin:.4f}"
                    )
    report(10, "sub-gamma right tails and sub-Gaussian left tails hold on the grid")
