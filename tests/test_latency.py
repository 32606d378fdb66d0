"""Latency model: sampling contracts and exact order-statistic moments."""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd.harness import ExperimentConfig, build_pool
from banditsgd.latency import (
    WorkerPool,
    expected_max,
    max_moments,
    member_responses,
    response_vector,
    variance_of_max,
)
from banditsgd.verify import check_order_statistics, mc_max_mean, mc_max_samples

from _garbage import cyclic_package_garbage
from _memory import traced_call
from _oracles import (
    brute_expected_max,
    brute_variance_of_max,
    full_array_max_moments,
    harmonic_iid_expected_max,
    kth_order_response,
    order_statistic_check,
    pairwise_sum,
)

BENCHMARK_CFG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "benchmark.cfg")

rate_lists = st.lists(st.floats(0.05, 50.0), min_size=1, max_size=8)


def test_pool_validation():
    with pytest.raises(ValueError):
        WorkerPool([])
    with pytest.raises(ValueError):
        WorkerPool([1.0, -2.0])
    with pytest.raises(ValueError):
        WorkerPool([1.0, 0.0])
    # a positive rate whose mean overflows is rejected before anything reads the mean
    with pytest.raises(ValueError, match=r"every worker mean 1 / rate must be finite, got rates \[1e-320, 1.0\]"):
        WorkerPool([1e-320, 1.0])
    pool = WorkerPool([2.0, 1.0])
    assert pool.n == 2
    assert pool.theorem_valid
    assert not WorkerPool([0.5, 2.0]).theorem_valid
    np.testing.assert_allclose(pool.means, [0.5, 1.0])
    tied = WorkerPool([1.0, 4.0, 2.0, 4.0, 1.0])  # means 1, 0.25, 0.5, 0.25, 1
    np.testing.assert_array_equal(tied.speed_order, [1, 3, 2, 0, 4])  # ties: lower index first
    np.testing.assert_array_equal(tied.sorted_means, tied.means[tied.speed_order])
    for name in ("rates", "means", "speed_order", "sorted_means"):
        with pytest.raises(ValueError):
            getattr(tied, name)[0] = 1.0


# Single-worker draws go through member_responses with a one-member superarm,
# which consumes exactly one variate per row.


def test_sample_response_replay_and_positivity():
    pool = WorkerPool([1.0])
    a = member_responses(pool, [0], np.random.default_rng(1234), 1)
    b = member_responses(pool, [0], np.random.default_rng(1234), 1)
    assert a.shape == (1, 1) and a[0, 0] == b[0, 0]
    assert a[0, 0] > 0


def test_sample_response_index_fault():
    pool = WorkerPool([1.0, 2.0])
    with pytest.raises(ValueError):
        member_responses(pool, [2], np.random.default_rng(0), 1)
    with pytest.raises(ValueError):
        member_responses(pool, [-1], np.random.default_rng(0), 1)


def test_sample_response_empirical_mean():
    pool = WorkerPool([2.0])
    draws = member_responses(pool, [0], np.random.default_rng(7), 200_000)[:, 0]
    assert abs(draws.mean() - 0.5) < 0.005


def test_sample_response_survival_probability():
    pool = WorkerPool([10.0])
    draws = member_responses(pool, [0], np.random.default_rng(8), 200_000)[:, 0]
    assert abs((draws > 0.1).mean() - math.exp(-1)) < 0.005


def test_superarm_singleton_equals_single_draw():
    pool = WorkerPool([1.0, 3.0])
    a = member_responses(pool, [1], np.random.default_rng(5), 1)
    b = np.random.default_rng(5).exponential(pool.means[1])
    assert a.shape == (1, 1) and a[0, 0] == b


def test_superarm_draw_accounting():
    # consumes exactly |superarm| variates, ascending index order
    pool = WorkerPool([1.0, 2.0, 4.0])
    rng = np.random.default_rng(11)
    got = member_responses(pool, [2, 0], rng, 1)[0]
    ref = np.random.default_rng(11).exponential(pool.means[[0, 2]])
    np.testing.assert_array_equal(got, ref)
    # generator advanced by exactly two variates
    assert rng.exponential(1.0) == np.random.default_rng(11).exponential(np.ones(3))[2]


@pytest.mark.parametrize("iterations", [1, 3, 2000])
def test_block_draws_equal_single_calls(iterations):
    # row i equals the i-th of L per-iteration draws of the same scales
    pool = WorkerPool(np.linspace(0.3, 9.0, 12))
    arm = [1, 4, 5, 11]
    block_rng, single_rng = np.random.default_rng(31), np.random.default_rng(31)
    members = member_responses(pool, arm, block_rng, iterations)
    workers = response_vector(pool, block_rng, iterations)
    assert members.shape == (iterations, len(arm)) and workers.shape == (iterations, pool.n)
    single_members = np.array([single_rng.exponential(pool.means[arm]) for _ in range(iterations)])
    single_workers = np.array([single_rng.exponential(pool.means) for _ in range(iterations)])
    assert members.tobytes() == single_members.tobytes()
    assert workers.tobytes() == single_workers.tobytes()
    # both generators end in the same state
    assert block_rng.random() == single_rng.random()
    with pytest.raises(ValueError, match="iterations"):
        member_responses(pool, arm, block_rng, 0)


def test_superarm_empirical_means():
    rng = np.random.default_rng(21)
    pool = WorkerPool([1.0, 1.0])
    draws = member_responses(pool, [0, 1], rng, 100_000).max(axis=1)
    assert abs(draws.mean() - 1.5) < 0.01
    pool2 = WorkerPool([2.0, 4.0])
    draws2 = member_responses(pool2, [0, 1], rng, 100_000).max(axis=1)
    assert abs(draws2.mean() - 7.0 / 12.0) < 0.005


def test_superarm_faults():
    pool = WorkerPool([1.0, 2.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        member_responses(pool, [], rng, 1)
    with pytest.raises(ValueError):
        member_responses(pool, [0, 0], rng, 1)
    with pytest.raises(ValueError):
        member_responses(pool, [0, 5], rng, 1)


# The k-th order statistic of a draw is a row reduction of a response_vector
# block; the per-draw oracle partitions one draw call at a time.


def test_kth_order_extremes_and_faults():
    pool = WorkerPool([1.0, 2.0, 3.0])
    block = response_vector(pool, np.random.default_rng(3), 60)
    reduced = np.concatenate([block[:20].min(axis=1), np.sort(block[20:40], axis=1)[:, 1], block[40:].max(axis=1)])
    oracle_rng = np.random.default_rng(3)
    per_draw = [kth_order_response(pool.rates, k, oracle_rng) for k in (1, 2, 3) for _ in range(20)]
    assert reduced.tolist() == per_draw
    for bad in (0, -1):
        with pytest.raises(ValueError, match="iterations"):
            response_vector(pool, np.random.default_rng(0), bad)


def test_kth_order_min_of_iid_pool():
    n = 5
    pool = WorkerPool(np.ones(n))
    draws = response_vector(pool, np.random.default_rng(13), 100_000).min(axis=1)
    assert abs(draws.mean() - 1.0 / n) < 0.01 / n


def test_kth_order_max_matches_superarm_oracle():
    pool = WorkerPool([1.0, 1.0])
    draws = response_vector(pool, np.random.default_rng(17), 100_000).max(axis=1)
    assert abs(draws.mean() - 1.5) < 0.01


@pytest.mark.parametrize("samples", [2, 5, 50])
def test_order_statistics_check_matches_per_draw_oracle(samples):
    outcomes = set()
    for seed in range(25):
        block_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = check_order_statistics(samples, block_rng)
        assert (result.passed, result.detail) == order_statistic_check(samples, oracle_rng)
        assert block_rng.bit_generator.state == oracle_rng.bit_generator.state
        outcomes.add(result.passed)
    if samples < 50:
        assert outcomes == {True, False}  # both branches were compared


def test_order_statistics_check_without_samples_draws_nothing():
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    result = check_order_statistics(0, rng)
    assert not result.passed and result.detail == "no samples"
    assert rng.bit_generator.state == before


def test_expected_max_closed_cases():
    assert expected_max([4.0]) == pytest.approx(0.25, rel=1e-12)
    assert expected_max([1.0, 1.0]) == pytest.approx(1.5, rel=1e-12)
    assert expected_max([2.0, 4.0]) == pytest.approx(7.0 / 12.0, rel=1e-12)


def test_expected_max_faults():
    with pytest.raises(ValueError):
        expected_max([])
    with pytest.raises(ValueError):
        expected_max([1.0, -1.0])
    with pytest.raises(ValueError, match="capped at 25"):
        expected_max(np.ones(26))


@pytest.mark.parametrize(
    "rates",
    [[1e200, 1e200], [1e308, 1e308], [1e-200, 1e-200], [1e-154, 1e-154], [1e-150] * 25],
    ids=["total-squared-overflows", "total-overflows", "inverse-square-overflows", "second-sum-overflows", "k=25"],
)
def test_max_moments_rejects_rates_it_cannot_represent(rates):
    # each once divided by zero or overflowed, and printed a ZeroDivisionError or a NaN moment
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"rates \[.*\] are too large or too small for exact moments"):
            max_moments(rates)
    # the extremes the check still admits give finite moments without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for admitted in ([1e150, 1e150], [1e-140] * 25, [1e153, 1e153]):
            assert all(map(math.isfinite, max_moments(admitted)))


@given(rate_lists)
@settings(max_examples=60, deadline=None)
def test_expected_max_matches_bruteforce(rates):
    assert expected_max(rates) == pytest.approx(brute_expected_max(rates), rel=1e-9, abs=1e-12)


@given(rate_lists, st.floats(0.05, 50.0))
@settings(max_examples=60, deadline=None)
def test_expected_max_monotone_under_append(rates, extra):
    assert expected_max(list(rates) + [extra]) >= expected_max(rates) - 1e-12


@given(st.floats(0.1, 10.0), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_expected_max_iid_harmonic_form(lam, r):
    assert expected_max([lam] * r) == pytest.approx(harmonic_iid_expected_max(lam, r), rel=1e-9)


def test_expected_max_high_mask_enumeration():
    # past 20 rates the one pairwise tree still equals np.add.reduce over the
    # one 2^k - 1 term array; 25 is the cap itself
    for k in (21, 22, 25):
        assert expected_max([2.5] * k) == pytest.approx(harmonic_iid_expected_max(2.5, k), rel=1e-9)
    for k in (21, 22):
        rates = np.linspace(0.3, 9.0, k)
        moments = max_moments(rates)
        assert moments == full_array_max_moments(rates)
        assert moments[0] > max_moments(rates[:20])[0]  # more workers, a later maximum


def _grid_rate_lists():
    rng = np.random.default_rng(2024)
    for k in range(1, 23):
        for _ in range(3):
            yield 1.0 / (rng.integers(1, 101, k) / 100.0)
    yield [3.0]
    yield [0.7] * 17
    yield [1.0, 1.0, 2.0, 2.0] * 5
    for seed in (0, 5):
        pool = build_pool(ExperimentConfig.from_file(BENCHMARK_CFG, pool_seed=seed), seed)
        for r in range(1, 21):
            yield pool.rates[np.sort(pool.speed_order[:r])]
            yield pool.rates[np.sort(pool.speed_order[pool.n - r :])]


def test_max_moments_bit_identical_to_full_array_sum():
    # ==, not approx: the blocked enumeration reproduces ndarray.sum's pairwise tree
    checked = 0
    for rates in _grid_rate_lists():
        got = max_moments(rates)
        want = full_array_max_moments(rates)
        assert got == want, (len(rates), got, want)
        assert (expected_max(rates), variance_of_max(rates)) == want
        checked += 1
    assert checked == 22 * 3 + 3 + 2 * 2 * 20


def test_max_moments_memory_is_bounded_by_the_block():
    # one call holds a few blocks, and returning frees them: with the cyclic
    # collector off, consecutive calls must not pile up their buffers. Lists
    # of 5 and 14 rates take the same tree, as one leaf
    rates = 1.0 / (np.arange(1, 21) / 20.0)
    with cyclic_package_garbage() as left:
        _, peak, _ = traced_call(lambda: max_moments(rates))

        def first_calls_at_new_lengths():
            for k in (5, 14, *range(15, 23)):
                max_moments(1.0 / (np.arange(1, k + 1) / k))

        # warm up only k=20, so what the first call at each new length keeps is traced
        _, _, growth = traced_call(first_calls_at_new_lengths, warm_up=lambda: max_moments(rates))
    assert peak <= 4 * 2**20, f"a 20-rate max_moments traced {peak / 2**20:.1f} MiB"
    assert growth <= 0.5 * 2**20, f"ten calls (k = 5, 14, 15..22) still held {growth / 2**20:.2f} MiB after returning"
    assert not left, f"max_moments left package objects to the cyclic collector: {left}"


def test_numpy_sums_float64_along_the_pairwise_tree():
    # max_moments is bit-identical to the full-array sum only while this rule holds
    rng = np.random.default_rng(12)
    for n in [*range(1, 301), 2**14 - 1, 2**14 + 1, 2**20 - 1, 2**20]:
        values = rng.standard_normal(n) * rng.uniform(0.01, 1e3, n)
        assert float(np.add.reduce(values)) == pairwise_sum(values.tolist()), (
            f"np.add.reduce over {n} contiguous float64 no longer follows numpy's pairwise rule "
            "(runs under 8 summed in order, up to 128 in eight interleaved sums, longer runs split "
            "at n//2 - (n//2) % 8); latency._inclusion_exclusion_sum replicates that tree"
        )


@given(rate_lists)
@settings(max_examples=60, deadline=None)
def test_max_moments_is_both_moments_from_one_enumeration(rates):
    mean, var = max_moments(rates)
    assert (mean, var) == (expected_max(rates), variance_of_max(rates))
    assert mean == pytest.approx(brute_expected_max(rates), rel=1e-9, abs=1e-12)
    assert var == pytest.approx(brute_variance_of_max(rates), rel=1e-8, abs=1e-10)


def test_variance_closed_cases():
    assert variance_of_max([2.0]) == pytest.approx(0.25, rel=1e-12)
    assert variance_of_max([1.0, 1.0]) == pytest.approx(1.25, rel=1e-12)


@given(rate_lists)
@settings(max_examples=60, deadline=None)
def test_variance_matches_bruteforce_and_nonnegative(rates):
    var = variance_of_max(rates)
    assert var >= 0.0
    assert var == pytest.approx(brute_variance_of_max(rates), rel=1e-8, abs=1e-10)


def test_moments_match_monte_carlo():
    rng = np.random.default_rng(99)
    rates = np.array([0.6, 1.7, 3.1, 8.0])
    mean, se = mc_max_mean(rates, 400_000, rng)
    assert abs(expected_max(rates) - mean) <= 3 * se
    draws = mc_max_samples(rates, 400_000, rng)
    centered_sq = (draws - draws.mean()) ** 2
    se_var = centered_sq.std(ddof=1) / math.sqrt(draws.size)
    assert abs(variance_of_max(rates) - centered_sq.mean()) <= 3 * se_var
