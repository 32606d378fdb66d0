"""Latency model: sampling contracts and exact order-statistic moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd import latency
from banditsgd.latency import (
    WorkerPool,
    expected_max,
    kth_order_response,
    member_responses,
    variance_of_max,
)
from banditsgd.verify import mc_max_mean, mc_max_samples

from _oracles import brute_expected_max, brute_variance_of_max, harmonic_iid_expected_max

rate_lists = st.lists(st.floats(0.05, 50.0), min_size=1, max_size=8)


def test_pool_validation():
    with pytest.raises(ValueError):
        WorkerPool([])
    with pytest.raises(ValueError):
        WorkerPool([1.0, -2.0])
    with pytest.raises(ValueError):
        WorkerPool([1.0, 0.0])
    pool = WorkerPool([2.0, 1.0])
    assert pool.n == 2
    assert pool.theorem_valid
    assert not WorkerPool([0.5, 2.0]).theorem_valid
    np.testing.assert_allclose(pool.means, [0.5, 1.0])


# Single-worker draws go through member_responses with a one-member superarm,
# which consumes exactly one variate per call.


def test_sample_response_replay_and_positivity():
    pool = WorkerPool([1.0])
    a = member_responses(pool, [0], np.random.default_rng(1234))
    b = member_responses(pool, [0], np.random.default_rng(1234))
    assert a.shape == (1,) and a[0] == b[0]
    assert a[0] > 0


def test_sample_response_index_fault():
    pool = WorkerPool([1.0, 2.0])
    with pytest.raises(ValueError):
        member_responses(pool, [2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        member_responses(pool, [-1], np.random.default_rng(0))


def test_sample_response_empirical_mean():
    pool = WorkerPool([2.0])
    rng = np.random.default_rng(7)
    draws = np.array([member_responses(pool, [0], rng)[0] for _ in range(200_000)])
    assert abs(draws.mean() - 0.5) < 0.005


def test_sample_response_survival_probability():
    pool = WorkerPool([10.0])
    rng = np.random.default_rng(8)
    draws = np.array([member_responses(pool, [0], rng)[0] for _ in range(200_000)])
    assert abs((draws > 0.1).mean() - math.exp(-1)) < 0.005


def test_superarm_singleton_equals_single_draw():
    pool = WorkerPool([1.0, 3.0])
    a = member_responses(pool, [1], np.random.default_rng(5))
    b = np.random.default_rng(5).exponential(pool.means[1])
    assert a.shape == (1,) and a[0] == b


def test_superarm_draw_accounting():
    # consumes exactly |superarm| variates, ascending index order
    pool = WorkerPool([1.0, 2.0, 4.0])
    rng = np.random.default_rng(11)
    got = member_responses(pool, [2, 0], rng)
    ref = np.random.default_rng(11).exponential(pool.means[[0, 2]])
    np.testing.assert_array_equal(got, ref)
    # generator advanced by exactly two variates
    assert rng.exponential(1.0) == np.random.default_rng(11).exponential(np.ones(3))[2]


def test_superarm_empirical_means():
    rng = np.random.default_rng(21)
    pool = WorkerPool([1.0, 1.0])
    draws = np.array([member_responses(pool, [0, 1], rng).max() for _ in range(100_000)])
    assert abs(draws.mean() - 1.5) < 0.01
    pool2 = WorkerPool([2.0, 4.0])
    draws2 = np.array([member_responses(pool2, [0, 1], rng).max() for _ in range(100_000)])
    assert abs(draws2.mean() - 7.0 / 12.0) < 0.005


def test_superarm_faults():
    pool = WorkerPool([1.0, 2.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        member_responses(pool, [], rng)
    with pytest.raises(ValueError):
        member_responses(pool, [0, 0], rng)
    with pytest.raises(ValueError):
        member_responses(pool, [0, 5], rng)


def test_kth_order_extremes_and_faults():
    pool = WorkerPool([1.0, 2.0, 3.0])
    val = kth_order_response(pool, 3, rng=np.random.default_rng(3))
    ref = np.random.default_rng(3).exponential(pool.means)
    assert val == ref.max()
    assert kth_order_response(pool, 1, np.random.default_rng(3)) == ref.min()
    with pytest.raises(ValueError):
        kth_order_response(pool, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        kth_order_response(pool, 4, np.random.default_rng(0))


def test_kth_order_min_of_iid_pool():
    n = 5
    pool = WorkerPool(np.ones(n))
    rng = np.random.default_rng(13)
    draws = np.array([kth_order_response(pool, 1, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 1.0 / n) < 0.01 / n


def test_kth_order_max_matches_superarm_oracle():
    pool = WorkerPool([1.0, 1.0])
    rng = np.random.default_rng(17)
    draws = np.array([kth_order_response(pool, 2, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 1.5) < 0.01


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


def test_expected_max_chunked_enumeration(monkeypatch):
    rates = np.linspace(0.3, 9.0, 8)
    reference = expected_max(rates)
    monkeypatch.setattr(latency, "_CHUNK_BITS", 3)
    assert expected_max(rates) == pytest.approx(reference, rel=1e-12)
    assert variance_of_max(rates) == pytest.approx(variance_of_max(np.array(rates)), rel=1e-12)


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
