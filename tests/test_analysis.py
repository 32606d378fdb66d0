"""Gaps, regret curves, worst-case guarantees, and tail bounds."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd.analysis import (
    completion_time_bound,
    compute_gaps,
    empirical_regret,
    regret_bound,
    regret_bound_curve,
    regret_bound_table,
    subgamma_tail,
    subgaussian_tail,
)
from banditsgd.cli import main
from banditsgd.harness import ExperimentConfig, run_single
from banditsgd.latency import BLOCK_VALUES, WorkerPool, block_rows, expected_max, variance_of_max
from banditsgd.policies import RoundSchedule, select_superarm_optimal
from banditsgd.verify import empirical_mean_tail_rates, mc_max_samples, mc_max_variance

from _memory import traced_call
from _oracles import delta_min_exhaustive, fresh_buffer_mc_max_samples, one_block_tail_rates
from _oracles import regret_bound as oracle_regret_bound


def bandit_only_config(**kw):
    defaults = dict(
        n=4,
        b=3,
        m=8,
        d=2,
        eta=1e-3,
        seeds=(0,),
        policies=("cmab-plain", "optimal"),
        schedule="20,40,60",
        mean_step=0.05,
        distinct_means=True,
        simulate_sgd=False,
        pool_seed=7,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- gaps


def test_gap_report_hand_case():
    pool = WorkerPool([1.0, 2.0, 4.0])  # means 1.0, 0.5, 0.25
    gaps = compute_gaps(pool, RoundSchedule((5, 10)))
    assert gaps.optimal_means[0] == pytest.approx(0.25)
    assert gaps.optimal_means[1] == pytest.approx(7.0 / 12.0)
    assert gaps.worst_means[1] == pytest.approx(1.0 + 0.5 - 1.0 / 3.0)
    assert gaps.delta_max[0] == pytest.approx(0.75)
    assert gaps.delta_max[1] == pytest.approx(0.58333333333, rel=1e-9)
    assert gaps.delta_min == pytest.approx(0.25)


def twelve_worker_pool():
    """12 workers, means on a 0.07 grid below one time unit, under a 6-round schedule."""
    means = np.random.default_rng(12).permutation(np.arange(12) * 0.07 + 0.1)
    return WorkerPool(1.0 / means), RoundSchedule((4, 9, 15, 22, 30, 40))


def test_gap_report_optimal_moments_are_exact():
    pool, sched = twelve_worker_pool()
    gaps = compute_gaps(pool, sched)
    assert gaps.optimal_variances.shape == (sched.b,)
    for r in range(1, sched.b + 1):
        best = pool.rates[select_superarm_optimal(pool, r)]
        assert gaps.optimal_means[r - 1] == expected_max(best)
        assert gaps.optimal_variances[r - 1] == variance_of_max(best)


def test_gap_report_identical_means():
    pool = WorkerPool([2.0, 2.0, 2.0])
    gaps = compute_gaps(pool, RoundSchedule((4, 8)))
    np.testing.assert_allclose(gaps.delta_max, 0.0)
    assert gaps.delta_min == math.inf


def test_gap_positions_beyond_budget_are_excluded():
    # adjacent sorted gap above position b+1 must not shrink delta_min
    pool = WorkerPool(1.0 / np.array([0.1, 0.5, 0.52]))
    gaps = compute_gaps(pool, RoundSchedule((10,)))  # b = 1
    assert gaps.delta_min == pytest.approx(0.4)
    assert delta_min_exhaustive(pool, 1) == pytest.approx(0.4)


@given(
    st.lists(st.floats(0.1, 0.95), min_size=2, max_size=6, unique=True),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_delta_min_reduction_matches_exhaustive(means, data):
    b = data.draw(st.integers(1, len(means)))
    pool = WorkerPool(1.0 / np.array(means))
    points = tuple(range(5, 5 * b + 1, 5))
    reduced = compute_gaps(pool, RoundSchedule(points)).delta_min
    brute = delta_min_exhaustive(pool, b)
    if math.isinf(brute):
        assert math.isinf(reduced)
    else:
        assert reduced == pytest.approx(brute, rel=1e-12)


def test_exhaustive_cap_faults():
    pool = WorkerPool(np.ones(21))
    with pytest.raises(ValueError, match="pairwise reduction"):
        delta_min_exhaustive(pool, 2)
    with pytest.raises(ValueError):
        delta_min_exhaustive(WorkerPool(np.ones(4)), 11)


def test_gap_budget_exceeding_pool_faults():
    with pytest.raises(ValueError):
        compute_gaps(WorkerPool([1.0, 2.0]), RoundSchedule((1, 2, 3)))


def test_gap_report_matches_monte_carlo_estimate():
    from banditsgd.verify import mc_max_mean

    pool = WorkerPool([1.1, 1.4, 2.0, 3.3, 5.0])
    sched = RoundSchedule((5, 10, 15))
    gaps = compute_gaps(pool, sched)
    rng = np.random.default_rng(55)
    order = np.argsort(pool.means)
    for r in range(1, sched.b + 1):
        best_mc, se_b = mc_max_mean(pool.rates[np.sort(order[:r])], 300_000, rng)
        worst_mc, se_w = mc_max_mean(pool.rates[np.sort(order[-r:])], 300_000, rng)
        assert abs(gaps.delta_max[r - 1] - (worst_mc - best_mc)) <= 3 * math.hypot(se_b, se_w)


# ---------------------------------------------------------------- regret


def test_regret_definition_unrolled():
    cfg = bandit_only_config(n=1, b=1, schedule="1", policies=("optimal", "cmab-plain"), distinct_means=False)
    trace = run_single(cfg, "optimal", 0)
    pool = WorkerPool(trace.pool.rates)
    curve = empirical_regret(trace, pool, trace.schedule)
    assert curve.shape == (1,)
    assert curve[0] == pytest.approx(trace.response_times[0] - pool.means[0])


def test_regret_of_omniscient_policy_centers_on_zero():
    cfg = bandit_only_config(seeds=tuple(range(40)))
    traces = [run_single(cfg, "optimal", s) for s in cfg.seeds]
    pool = WorkerPool(traces[0].pool.rates)
    curves = np.stack([empirical_regret(t, pool, t.schedule) for t in traces])
    final = curves[:, -1]
    se = final.std(ddof=1) / math.sqrt(final.size)
    assert abs(final.mean()) <= 3 * se
    assert (curves < 0).any(), "single-run curves should dip below zero somewhere"


def test_regret_trace_mismatch_faults():
    cfg = bandit_only_config()
    trace = run_single(cfg, "cmab-plain", 0)
    other_schedule = RoundSchedule((21, 40, 60))
    with pytest.raises(ValueError):
        empirical_regret(trace, WorkerPool(trace.pool.rates), other_schedule)
    other_pool = WorkerPool(np.roll(trace.pool.rates, 1))
    with pytest.raises(ValueError):
        empirical_regret(trace, other_pool, trace.schedule)


# ---------------------------------------------------------------- worst-case bound


def test_regret_bound_hand_value():
    pool = WorkerPool([1.0, 2.0])  # delta_min = 0.5, round 1 delta_max = 0.5
    sched = RoundSchedule((10,))
    expected = 0.5 * 2 * (48.0 * 1.0 / 0.25 + 1.0 + math.pi**2 / 3.0)
    assert regret_bound(pool, sched, math.e) == pytest.approx(expected, rel=1e-12)


def test_regret_bound_monotone():
    pool = WorkerPool([1.0, 1.5, 3.0])
    sched = RoundSchedule((5, 12, 30))
    js = [1, 2, 5, 6, 12, 13, 30]
    vals = [regret_bound(pool, sched, j) for j in js]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_regret_bound_requires_unit_rates():
    with pytest.raises(ValueError, match="rate"):
        regret_bound(WorkerPool([0.5, 2.0]), RoundSchedule((5,)), 3)


def test_regret_bound_curve_matches_scalar():
    # a 28 000-iteration horizon, every iteration of the run
    pool = WorkerPool(1.0 / np.array([0.9, 0.3, 0.55, 0.1, 0.75, 0.2, 0.45, 0.6]))
    sched = RoundSchedule((1000, 4000, 9000, 17000, 28000))
    gaps = compute_gaps(pool, sched)
    # a delta_max that falls between rounds makes the running max over started rounds matter
    reordered = dataclasses.replace(gaps, delta_max=gaps.delta_max[[2, 0, 4, 1, 3]])
    js = np.arange(1, 28001)
    for report in (gaps, reordered):
        inputs = (pool.n, sched.switching_points, report.delta_max, report.delta_min)
        curve = regret_bound_curve(pool, sched, js, gaps=report)
        scalar = [oracle_regret_bound(*inputs, j) for j in js.tolist()]
        np.testing.assert_array_equal(curve, scalar)
        assert regret_bound(pool, sched, 27000.5, gaps=report) == oracle_regret_bound(*inputs, 27000.5)


def test_regret_bound_table_columns_and_applicability(caplog):
    pool = WorkerPool([1.0, 1.5, 3.0])
    sched = RoundSchedule((5, 12, 30))
    js = np.arange(1, 31)
    with caplog.at_level(logging.WARNING, logger="banditsgd"):
        table = regret_bound_table(pool, sched, js)
    assert caplog.records == []  # an applicable bound logs nothing
    curve = regret_bound_curve(pool, sched, js)
    assert list(table) == ["bound_log_iter", "bound_log_truncated", "bound_tighter"]
    for column in table.values():  # within the horizon the three forms are one curve
        assert column.tobytes() == curve.tobytes()
    # each skip logs its own reason, once
    skips = [
        ([0.5, 2.0], 5, "regret bound skipped: rate 0.5 is below 1, outside the guarantee's assumption"),
        ([2.0, 2.0], 6, "regret bound skipped: delta_min is inf, not positive and finite"),
    ]
    for rates, horizon, reason in skips:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="banditsgd"):
            assert regret_bound_table(WorkerPool(rates), RoundSchedule((horizon,)), js) is None
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("banditsgd.analysis", logging.WARNING, reason)
        ]


PAST_HORIZON_CALLS = {
    "rounds_of": lambda pool, sched, j: sched.rounds_of([1, j]),
    "regret_bound_curve": lambda pool, sched, j: regret_bound_curve(pool, sched, [1, j]),
    "regret_bound": lambda pool, sched, j: regret_bound(pool, sched, j),
    "regret_bound_table": lambda pool, sched, j: regret_bound_table(pool, sched, [j]),
    "completion_time_bound": lambda pool, sched, j: completion_time_bound(pool, sched, j, 0.0, 1.0),
}


@pytest.mark.parametrize(
    "j, message", [(11, "iteration 11 is past the schedule's horizon 10"), (0, "iteration must be >= 1")]
)
@pytest.mark.parametrize("call", [*PAST_HORIZON_CALLS, "bounds --j"])
def test_iterations_outside_the_run_are_rejected(call, j, message, tmp_path, capsys):
    # a run covers iterations 1 .. horizon; RoundSchedule.rounds_of is the one place that says so
    pool, sched = WorkerPool([1.0, 2.0, 4.0]), RoundSchedule((5, 10))
    assert regret_bound_table(pool, sched, [10]) is not None  # the bound applies, so the table checks too
    if call == "bounds --j":
        cfg = tmp_path / "mini.cfg"
        cfg.write_text("n = 3\nb = 2\n")
        assert main(["bounds", "--config", str(cfg), "--rates", "1,2,4", "--schedule", "5,10", "--j", str(j)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        return
    with pytest.raises(ValueError) as exc:
        PAST_HORIZON_CALLS[call](pool, sched, j)
    assert str(exc.value) == message


def test_regret_bound_identical_means_is_zero():
    pool = WorkerPool([2.0, 2.0])
    assert regret_bound(pool, RoundSchedule((6,)), 4) == 0.0


# ---------------------------------------------------------------- completion time


def test_completion_time_bound_single_round_factor():
    pool = WorkerPool([1.0])
    bound, prob = completion_time_bound(pool, RoundSchedule((1,)), 1, 0.0, 2.0)
    assert prob == pytest.approx(0.75)
    assert bound == pytest.approx(1.0 * 1 * 3.0)  # mu * length * (1 + eps)


def test_completion_time_bound_reads_gap_report():
    pool, sched = twelve_worker_pool()
    gaps = compute_gaps(pool, sched)
    for j in sched.switching_points:
        for eps in (0.5, 1.0, 2.0):
            shared = completion_time_bound(pool, sched, j, 3.0, eps, gaps=gaps)
            assert shared == completion_time_bound(pool, sched, j, 3.0, eps)
            assert all(type(value) is float for value in shared)
            # the per-round optimal moments, enumerated afresh at each started round
            time_bound, prob, prev = 3.0, 1.0, 0
            for r, t_r in enumerate(sched.switching_points, start=1):
                if j <= prev:
                    break
                best = pool.rates[select_superarm_optimal(pool, r)]
                mu, var = expected_max(best), variance_of_max(best)
                length = min(j, t_r) - prev
                time_bound += mu * length * (1.0 + eps)
                prob *= max(1.0 - var / (mu * mu * length * eps * eps), 0.0)
                prev = t_r
            assert shared == (time_bound, prob)


def test_bounds_reject_gap_report_of_another_schedule():
    pool, sched = twelve_worker_pool()
    short = compute_gaps(pool, RoundSchedule(sched.switching_points[:3]))
    with pytest.raises(ValueError, match="covers 3 rounds but the schedule has 6"):
        regret_bound(pool, sched, 30, gaps=short)
    with pytest.raises(ValueError, match="covers 3 rounds"):
        regret_bound_curve(pool, sched, [10, 30], gaps=short)
    with pytest.raises(ValueError, match="covers 3 rounds"):
        completion_time_bound(pool, sched, 30, 0.0, 1.0, gaps=short)


def test_completion_time_probability_approaches_one():
    pool = WorkerPool([1.0, 2.0])
    sched = RoundSchedule((10, 20))
    _, p1 = completion_time_bound(pool, sched, 20, 5.0, 1.0)
    _, p2 = completion_time_bound(pool, sched, 20, 5.0, 100.0)
    assert p2 > p1 and p2 > 0.9999


def test_completion_time_doubling_round_length_halves_slack():
    pool = WorkerPool([1.0])
    _, p_short = completion_time_bound(pool, RoundSchedule((10,)), 10, 0.0, 1.0)
    _, p_long = completion_time_bound(pool, RoundSchedule((20,)), 20, 0.0, 1.0)
    assert (1 - p_long) == pytest.approx((1 - p_short) / 2.0, rel=1e-12)


def test_completion_time_clamps_negative_factors(caplog):
    pool = WorkerPool([1.0])
    with caplog.at_level(logging.WARNING):
        _, prob = completion_time_bound(pool, RoundSchedule((1,)), 1, 0.0, 0.5)
    assert prob == 0.0
    assert any("clamped" in rec.message for rec in caplog.records)


def test_completion_time_faults():
    pool = WorkerPool([1.0])
    with pytest.raises(ValueError):
        completion_time_bound(pool, RoundSchedule((1,)), 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        completion_time_bound(pool, RoundSchedule((1,)), 0, 0.0, 1.0)
    with pytest.raises(ValueError, match="iteration 11 is past the schedule's horizon 10"):
        completion_time_bound(pool, RoundSchedule((10,)), 11, 0.0, 1.0)


# ---------------------------------------------------------------- tails


def test_subgamma_tail_values():
    threshold, bound = subgamma_tail(1.0, 1.0, 1.0)
    assert bound == pytest.approx(math.exp(-1))
    assert threshold == pytest.approx(math.sqrt(2) + 1)
    threshold0, bound0 = subgamma_tail(0.0, 4.0, 2.0)
    assert threshold0 == 0.0 and bound0 == 1.0
    with pytest.raises(ValueError):
        subgamma_tail(-0.1, 1.0, 1.0)


def test_subgaussian_tail_values():
    assert subgaussian_tail(0.0, 1.0) == 1.0
    assert subgaussian_tail(1.0, 1.0) == pytest.approx(math.exp(-0.5))
    with pytest.raises(ValueError):
        subgaussian_tail(1.0, 0.0)
    with pytest.raises(ValueError):
        subgaussian_tail(-1.0, 1.0)


@pytest.mark.parametrize("trials", [1, 7, block_rows(64) + 1, block_rows(4), block_rows(4) + 1, 20_000])
def test_tail_rates_stream_equals_one_block(trials):
    # blocks of block_rows(t) rows consume the stream as one (trials, t) block does
    eps_grid = (0.25, 0.5, 1.0, 2.0)
    for t, lam in ((4, 1.0), (64, 2.0)):
        streamed_rng, block_rng = np.random.default_rng(trials), np.random.default_rng(trials)
        streamed = empirical_mean_tail_rates(t, lam, eps_grid, trials, streamed_rng)
        block = one_block_tail_rates(t, lam, eps_grid, trials, block_rng)
        assert repr(streamed) == repr(block)
        assert streamed_rng.bit_generator.state == block_rng.bit_generator.state


def test_tail_rates_memory_follows_the_block():
    # one block of variates plus the trials' centered means; blocks of 4096
    # rows would hold 2 MiB of variates at t=64
    trials = 20_000
    rng = np.random.default_rng(3)
    _, peak, _ = traced_call(lambda: empirical_mean_tail_rates(64, 1.0, (0.5, 1.0), trials, rng))
    assert peak <= 2 * (BLOCK_VALUES + trials) * 8, f"the tail rates traced {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("rates", [[2.0], [0.7, 3.0], [1.0, 2.5, 4.0, 9.5], list(np.linspace(0.5, 10.0, 8))])
def test_mc_max_buffer_equals_fresh_draws(rates):
    # one reused draw buffer, and centering in place, give the same floats and
    # leave the generator where fresh arrays leave it
    samples = 1001
    reused_rng, fresh_rng = np.random.default_rng(len(rates)), np.random.default_rng(len(rates))
    draws, fresh = mc_max_samples(rates, samples, reused_rng), fresh_buffer_mc_max_samples(rates, samples, fresh_rng)
    assert np.array_equal(draws, fresh)
    assert reused_rng.bit_generator.state == fresh_rng.bit_generator.state
    centered_sq = (fresh - fresh.mean()) ** 2
    expected = (float(centered_sq.mean()), float(centered_sq.std(ddof=1) / math.sqrt(samples)))
    assert mc_max_variance(rates, samples, np.random.default_rng(len(rates))) == expected


def test_mc_max_variance_holds_two_sample_arrays():
    # the accumulator and one reused draw buffer, then the draws and std's one
    # temporary; a fresh array per rate, or centering out of place, holds three
    samples = 100_000
    rng = np.random.default_rng(5)
    _, peak, _ = traced_call(lambda: mc_max_variance(np.linspace(0.5, 10.0, 8), samples, rng))
    assert peak <= 2.2 * samples * 8, f"mc_max_variance traced {peak / 2**20:.2f} MiB"
