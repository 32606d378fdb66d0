"""Selection policies, bandit bookkeeping, and round scheduling."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banditsgd.latency import WorkerPool, expected_max, kth_order_response
from banditsgd.policies import (
    PLAIN,
    SCALED,
    BanditState,
    RoundSchedule,
    compute_schedule,
    lcb_values,
    record_outcome,
    select_superarm_cmab,
    select_superarm_optimal,
    superarm_is_suboptimal,
)
from banditsgd.sgd import BoundParams

from _oracles import confidence_radius, lcb


def state_with(pulls, sums, iteration=0):
    pulls = np.asarray(pulls, dtype=np.int64)
    return BanditState(
        pulls=pulls,
        response_sums=np.asarray(sums, dtype=np.float64),
        suboptimal_pulls=np.zeros(pulls.size, dtype=np.int64),
        current_iteration=iteration,
    )


def seeded_state(pool):
    """One-pull-per-arm state whose empirical means equal the true means."""
    return state_with(np.ones(pool.n), pool.means)


# ---------------------------------------------------------------- radius / lcb


def test_radius_zero_at_first_iteration():
    st8 = state_with([4], [2.0])
    assert confidence_radius(st8, PLAIN, 0, 1) == 0.0


def test_radius_plain_value():
    st8 = state_with([4], [2.0])
    assert confidence_radius(st8, PLAIN, 0, math.e) == pytest.approx(math.sqrt(2) + 1, rel=1e-12)


def test_radius_decreasing_in_pulls():
    values = [
        confidence_radius(state_with([t], [0.5 * t]), PLAIN, 0, 10) for t in (1, 2, 5, 20, 100)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_radius_unpulled_faults():
    with pytest.raises(ValueError):
        confidence_radius(state_with([0], [0.0]), PLAIN, 0, 2)


def test_scaled_variant_scale():
    st8 = state_with([2, 0, 4], [1.0, 0.0, 0.8])  # means 0.5, -, 0.2
    assert SCALED.exploration_scale(st8, math.e) == pytest.approx(2.0 * 0.2)
    assert SCALED.exploration_scale(state_with([0, 0], [0.0, 0.0]), 5) == 0.0
    assert PLAIN.exploration_scale(st8, math.e) == pytest.approx(2.0)


def test_lcb_unpulled_is_minus_infinity():
    st8 = state_with([0, 3], [0.0, 1.5])
    assert lcb(st8, PLAIN, 0, 5) == -math.inf


def test_lcb_zero_radius_leaves_mean():
    st8 = state_with([1], [0.4])
    assert lcb(st8, PLAIN, 0, 2) == pytest.approx(0.4)


def test_lcb_plain_value():
    # f(j-1) = 2 requires j-1 = e; radius = sqrt(2) + 1
    st8 = state_with([4], [2.0])
    assert lcb(st8, PLAIN, 0, math.e + 1) == pytest.approx(0.5 - (math.sqrt(2) + 1), rel=1e-12)


def test_lcb_before_first_iteration_with_pulls_faults():
    with pytest.raises(ValueError):
        lcb(state_with([2], [1.0]), PLAIN, 0, 1)
    with pytest.raises(ValueError):
        lcb_values(state_with([2], [1.0]), PLAIN, 1)


@given(
    st.lists(st.integers(0, 30), min_size=2, max_size=6),
    st.integers(2, 1000),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_lcb_scalar_matches_vectorized_and_below_mean(pulls, j, scaled):
    rng = np.random.default_rng(sum(pulls) + j)
    sums = rng.uniform(0.1, 2.0, len(pulls)) * np.maximum(pulls, 1)
    sums[np.array(pulls) == 0] = 0.0
    st8 = state_with(pulls, sums)
    variant = SCALED if scaled else PLAIN
    vec = lcb_values(st8, variant, j)
    for i in range(len(pulls)):
        assert lcb(st8, variant, i, j) == pytest.approx(vec[i], rel=1e-12, abs=1e-12) or (
            vec[i] == -math.inf and lcb(st8, variant, i, j) == -math.inf
        )
        if pulls[i] > 0:
            assert vec[i] <= sums[i] / pulls[i] + 1e-12


# ---------------------------------------------------------------- selection


def test_select_all_unpulled_takes_lowest_indices():
    st8 = BanditState.zeros(6)
    np.testing.assert_array_equal(select_superarm_cmab(st8, PLAIN, 3, 1), [0, 1, 2])


def test_select_unpulled_worker_always_included():
    st8 = state_with([3, 0, 2], [0.3, 0.0, 0.1])
    assert 1 in select_superarm_cmab(st8, PLAIN, 1, 7)


def test_select_returns_r_distinct_members():
    st8 = state_with([5, 1, 2, 9], [2.0, 0.1, 0.4, 3.0])
    arm = select_superarm_cmab(st8, PLAIN, 3, 4)
    assert arm.size == 3 and np.unique(arm).size == 3


def test_select_size_fault():
    with pytest.raises(ValueError):
        select_superarm_cmab(BanditState.zeros(3), PLAIN, 4, 1)
    with pytest.raises(ValueError):
        select_superarm_optimal(WorkerPool([1.0, 2.0]), 3)


def test_select_optimal_cases():
    pool = WorkerPool([1.0, 2.0, 4.0])  # means 1.0, 0.5, 0.25
    np.testing.assert_array_equal(select_superarm_optimal(pool, 2), [1, 2])
    np.testing.assert_array_equal(select_superarm_optimal(pool, 3), [0, 1, 2])


@given(st.lists(st.floats(0.2, 5.0), min_size=2, max_size=8, unique=True), st.data())
@settings(max_examples=50, deadline=None)
def test_select_optimal_invariant_under_monotone_transform(means, data):
    assume(np.diff(np.sort(means)).min() > 1e-9)  # keep squared means distinct in float64
    pool = WorkerPool(1.0 / np.array(means))
    r = data.draw(st.integers(1, len(means)))
    # squaring is strictly increasing on positive means
    transformed = WorkerPool(1.0 / np.array(means) ** 2)
    np.testing.assert_array_equal(select_superarm_optimal(pool, r), select_superarm_optimal(transformed, r))


def test_seeded_truth_with_zero_radius_reduces_to_optimal():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        means = rng.uniform(0.1, 0.9, n)
        pool = WorkerPool(1.0 / means)
        st8 = seeded_state(pool)
        for r in range(1, n + 1):
            np.testing.assert_array_equal(
                select_superarm_cmab(st8, PLAIN, r, 2),  # f(1) = 0, radii vanish
                select_superarm_optimal(pool, r),
            )


# ---------------------------------------------------------------- outcomes


def test_record_outcome_optimal_leaves_counters():
    pool = WorkerPool([4.0, 2.0, 1.0])
    st8 = BanditState.zeros(3)
    record_outcome(st8, [0, 1], [0.3, 0.6], pool, 2, 1)
    assert st8.suboptimal_pulls.sum() == 0
    np.testing.assert_array_equal(st8.pulls, [1, 1, 0])
    np.testing.assert_allclose(st8.response_sums, [0.3, 0.6, 0.0])
    assert st8.current_iteration == 1


def test_record_outcome_suboptimal_increments_least_pulled():
    pool = WorkerPool([4.0, 2.0, 1.0])  # optimal pair is {0, 1}
    st8 = state_with([3, 2, 2], [0.9, 1.0, 2.0], iteration=7)
    record_outcome(st8, [0, 2], [0.2, 1.1], pool, 2, 8)
    np.testing.assert_array_equal(st8.suboptimal_pulls, [0, 0, 1])  # worker 2 least pulled among {0, 2}
    st9 = state_with([2, 2, 2], [0.9, 1.0, 2.0], iteration=7)
    record_outcome(st9, [0, 2], [0.2, 1.1], pool, 2, 8)
    np.testing.assert_array_equal(st9.suboptimal_pulls, [1, 0, 0])  # tie broken by lowest index


def test_record_outcome_faults():
    pool = WorkerPool([1.0, 2.0])
    st8 = BanditState.zeros(2)
    with pytest.raises(ValueError):
        record_outcome(st8, [0, 1], [0.5], pool, 2, 1)
    with pytest.raises(ValueError):
        record_outcome(st8, [0], [0.5], pool, 2, 1)
    with pytest.raises(ValueError):
        record_outcome(st8, [0], [0.5], pool, 1, 5)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_bookkeeping_invariants_random_walk(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    pool = WorkerPool(rng.uniform(0.5, 5.0, n))
    st8 = BanditState.zeros(n)
    employments = 0
    for j in range(1, 40):
        r = int(rng.integers(1, n + 1))
        arm = np.sort(rng.choice(n, size=r, replace=False))
        record_outcome(st8, arm, rng.exponential(pool.means[arm]), pool, r, j)
        employments += r
    assert st8.pulls.sum() == employments
    assert np.all(st8.suboptimal_pulls <= st8.pulls)
    assert np.all(st8.pulls >= 0)


def test_suboptimality_decider_exact_vs_sorted_means():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        means = np.round(rng.uniform(0.1, 0.9, n), 3)
        pool = WorkerPool(1.0 / means)
        r = int(rng.integers(1, n + 1))
        arm = np.sort(rng.choice(n, size=r, replace=False))
        # ground truth straight from the expected-max definition
        best = select_superarm_optimal(pool, r)
        truth = expected_max(pool.rates[arm]) > expected_max(pool.rates[best]) + 1e-12
        assert superarm_is_suboptimal(pool, arm) == truth


# ---------------------------------------------------------------- k-sync draw


def test_ksync_k_equals_n_waits_for_slowest():
    pool = WorkerPool([1.0, 2.0, 4.0])
    t = kth_order_response(pool, 3, np.random.default_rng(5))
    assert t == np.random.default_rng(5).exponential(pool.means).max()


def test_ksync_fastest_of_two_empirical_mean():
    pool = WorkerPool([1.0, 1.0])
    rng = np.random.default_rng(6)
    draws = np.array([kth_order_response(pool, 1, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.01


# ---------------------------------------------------------------- scheduling


def unit_params(eta=0.1):
    return BoundParams(lipschitz=1.0, convexity=1.0, sigma2=1.0, initial_gap=1.0, s=1, eta=eta)


def test_schedule_first_round_closed_form():
    sched = compute_schedule(unit_params(), 1, theta=0.1, j_cap=10**6)
    assert sched.switching_points == (50,)


def test_schedule_huge_theta_single_iteration_rounds():
    sched = compute_schedule(unit_params(), 4, theta=1e12, j_cap=10**6)
    assert sched.switching_points == (1, 2, 3, 4)


def test_schedule_strictly_increasing_and_capped():
    sched = compute_schedule(unit_params(), 3, theta=0.1, j_cap=60)
    points = sched.switching_points
    assert all(b > a for a, b in zip(points, points[1:]))
    assert points[-1] <= 60
    uncapped = compute_schedule(unit_params(), 3, theta=0.1, j_cap=10**6)
    assert uncapped.switching_points == (50, 107, 168)


def test_schedule_faults():
    with pytest.raises(ValueError):
        compute_schedule(unit_params(eta=1.0), 2)  # eta * c = 1, no decay
    with pytest.raises(ValueError):
        compute_schedule(unit_params(), 2, theta=0.0)
    with pytest.raises(ValueError):
        compute_schedule(unit_params(), 5, j_cap=4)


def test_round_schedule_accessors():
    sched = RoundSchedule((50, 107, 168))
    assert sched.b == 3 and sched.horizon == 168
    np.testing.assert_array_equal(sched.rounds_of(np.array([1, 50, 51, 107, 168])), [1, 1, 2, 2, 3])
    assert sched.budget == 1 * 50 + 2 * 57 + 3 * 61
    np.testing.assert_array_equal(sched.round_lengths(), [50, 57, 61])
    with pytest.raises(ValueError):
        RoundSchedule((5, 5))
    with pytest.raises(ValueError):
        RoundSchedule(())
