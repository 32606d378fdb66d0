"""Gaps, regret curves, worst-case guarantees, and tail bounds."""

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
    subgamma_tail,
    subgaussian_tail,
)
from banditsgd.harness import ExperimentConfig, run_single
from banditsgd.latency import WorkerPool
from banditsgd.policies import RoundSchedule

from _oracles import delta_min_exhaustive


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
    pool = WorkerPool(trace.rates)
    curve = empirical_regret(trace, pool, trace.schedule)
    assert curve.shape == (1,)
    assert curve[0] == pytest.approx(trace.response_times[0] - pool.means[0])


def test_regret_of_omniscient_policy_centers_on_zero():
    cfg = bandit_only_config(seeds=tuple(range(40)))
    traces = [run_single(cfg, "optimal", s) for s in cfg.seeds]
    pool = WorkerPool(traces[0].rates)
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
        empirical_regret(trace, WorkerPool(trace.rates), other_schedule)
    other_pool = WorkerPool(np.roll(trace.rates, 1))
    with pytest.raises(ValueError):
        empirical_regret(trace, other_pool, trace.schedule)


# ---------------------------------------------------------------- worst-case bound


def test_regret_bound_hand_value():
    pool = WorkerPool([1.0, 2.0])  # delta_min = 0.5, round 1 delta_max = 0.5
    sched = RoundSchedule((10,))
    expected = 0.5 * 2 * (48.0 * 1.0 / 0.25 + 1.0 + math.pi**2 / 3.0)
    assert regret_bound(pool, sched, math.e) == pytest.approx(expected, rel=1e-12)
    smaller = regret_bound(pool, sched, math.e, tail_term="pi/3")
    assert smaller == pytest.approx(0.5 * 2 * (192.0 + 1.0 + math.pi / 3.0), rel=1e-12)
    assert smaller < expected


def test_regret_bound_monotone_and_truncation():
    pool = WorkerPool([1.0, 1.5, 3.0])
    sched = RoundSchedule((5, 12, 30))
    js = [1, 2, 5, 6, 12, 13, 30]
    vals = [regret_bound(pool, sched, j) for j in js]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    for j in js:
        assert regret_bound(pool, sched, j, log_truncated=True) == pytest.approx(
            regret_bound(pool, sched, j), rel=1e-12
        )
    # beyond the horizon the truncated form freezes the logarithm
    assert regret_bound(pool, sched, 100, log_truncated=True) < regret_bound(pool, sched, 100)


def test_regret_bound_requires_unit_rates():
    with pytest.raises(ValueError, match="rate"):
        regret_bound(WorkerPool([0.5, 2.0]), RoundSchedule((5,)), 3)


def test_regret_bound_curve_matches_scalar():
    pool = WorkerPool([1.0, 1.5, 3.0])
    sched = RoundSchedule((5, 12, 30))
    js = np.arange(1, 31)
    curve = regret_bound_curve(pool, sched, js)
    np.testing.assert_allclose(curve, [regret_bound(pool, sched, int(j)) for j in js], rtol=1e-12)


def test_regret_bound_identical_means_is_zero():
    pool = WorkerPool([2.0, 2.0])
    assert regret_bound(pool, RoundSchedule((6,)), 4) == 0.0


# ---------------------------------------------------------------- completion time


def test_completion_time_bound_single_round_factor():
    pool = WorkerPool([1.0])
    bound, prob = completion_time_bound(pool, RoundSchedule((1,)), 1, 0.0, 2.0)
    assert prob == pytest.approx(0.75)
    assert bound == pytest.approx(1.0 * 1 * 3.0)  # mu * length * (1 + eps)


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
