"""Learning problem, gradients, updates, and the convergence bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsgd.latency import BLOCK_VALUES
from banditsgd.sgd import (
    BoundParams,
    SgdProblem,
    batch_gradient,
    convergence_bound,
    estimate_bound_params,
    generate_problem,
    model_error,
    sample_batches,
)

import _oracles
from _memory import traced_call
from _oracles import apply_update, central_difference_gradient, loss, partial_gradient


def make_problem(m=40, d=5, b=4, eta=1e-5, seed=0):
    return generate_problem(m, d, np.random.default_rng(seed), b=b, eta=eta)


def tiny_problem(X, y, w, eta=1.0, s=1):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    target, *_ = np.linalg.lstsq(X, y, rcond=None)
    return SgdProblem(X=X, y=y, w0=w.copy(), eta=eta, s=s, least_squares_target=target)


def test_shapes_and_ranges():
    p = make_problem(m=30, d=4, b=5)
    assert p.X.shape == (30, 4) and p.y.shape == (30,) and p.w0.shape == (4,)
    assert p.s == 6 and p.s * 5 == p.m
    assert np.all(p.X >= 1.0) and np.all(p.X <= 10.0)
    assert np.all(p.w0 >= 1.0) and np.all(p.w0 <= 100.0)


def test_padding_when_budget_does_not_divide():
    p = generate_problem(13, 3, np.random.default_rng(1), b=5, eta=1e-4)
    assert p.m == 15 and p.s == 3
    assert np.all(p.X[13:] == 0.0) and np.all(p.y[13:] == 0.0)


def test_least_squares_residual():
    p = make_problem()
    normal_resid = p.X.T @ (p.X @ p.least_squares_target - p.y)
    assert np.linalg.norm(normal_resid) <= 1e-6 * np.linalg.norm(p.X.T @ p.y)


def test_rank_deficient_faults():
    with pytest.raises(ValueError, match="rank"):
        generate_problem(3, 5, np.random.default_rng(0), b=1, eta=1e-4)


def test_batch_size_and_distinctness():
    p = make_problem(m=40, d=5, b=4)
    batch = sample_batches(p, 1, np.random.default_rng(2))[0]
    assert batch.size == p.s
    assert np.unique(batch).size == p.s
    assert batch.min() >= 0 and batch.max() < p.m


def test_single_worker_batch_is_every_row_once():
    # at b = 1 the batch is all m rows: the m keys are still drawn, and each
    # row of the result holds every sample exactly once
    p = make_problem(m=13, d=3, b=1)
    assert p.s == p.m
    rng = np.random.default_rng(6)
    batches = sample_batches(p, 4, rng)
    assert batches.shape == (4, p.m)
    for batch in batches:
        np.testing.assert_array_equal(np.sort(batch), np.arange(p.m))
    after = np.random.default_rng(6)
    after.random((4, p.m))
    assert rng.random() == after.random()  # the stream moved past the keys


def test_batch_uniformity():
    p = make_problem(m=20, d=3, b=4)  # s = 5
    draws = 100_000
    batches = sample_batches(p, draws, np.random.default_rng(3))
    counts = np.bincount(batches.ravel(), minlength=p.m)
    prob = p.s / p.m
    se = np.sqrt(prob * (1 - prob) / draws)
    np.testing.assert_array_less(np.abs(counts / draws - prob), 3 * se)


def test_batches_independent_across_workers():
    p = make_problem(m=40, d=5, b=4)
    rng = np.random.default_rng(4)
    pairs = sample_batches(p, 2, rng)
    seen_diff = any(
        not np.array_equal(np.sort(sample_batches(p, 2, rng)[0]), np.sort(sample_batches(p, 2, rng)[1]))
        for _ in range(10)
    )
    assert seen_diff
    assert pairs.shape == (2, p.s)


def test_batches_match_sequential_single_calls():
    # at m = 2000 a block holds block_rows(2000) = 8 rows, so 20 batches cross two block seams
    for m, b, count in ((40, 4, 3), (2000, 20, 20)):
        p = make_problem(m=m, d=5, b=b)
        block = sample_batches(p, count, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        singles = [sample_batches(p, 1, rng)[0] for _ in range(count)]
        np.testing.assert_array_equal(block, np.stack(singles))
        np.testing.assert_array_equal(block, _oracles.one_block_batches(p, count, np.random.default_rng(9)))


def test_partial_gradient_hand_case():
    p = tiny_problem(X=[[2.0]], y=[4.0], w=[1.0])
    assert partial_gradient(p, p.w0, [0]) == pytest.approx(-4.0)
    assert batch_gradient(p, p.w0, np.array([[0]])) == pytest.approx(-4.0)


def test_partial_gradient_stationarity():
    p = make_problem()
    scale = 1e-6 * np.linalg.norm(p.X.T @ p.y)
    assert np.linalg.norm(partial_gradient(p, p.least_squares_target, np.arange(p.m))) <= scale
    assert np.linalg.norm(batch_gradient(p, p.least_squares_target, np.arange(p.m)[None, :])) <= scale


def test_partial_gradient_partition_sums_to_full():
    p = make_problem(m=24, d=4, b=4)
    full = partial_gradient(p, p.w0, np.arange(p.m))
    blocks = np.arange(24).reshape(4, 6)
    parts = sum(partial_gradient(p, p.w0, block) for block in blocks)
    np.testing.assert_allclose(parts, full, rtol=1e-12)
    np.testing.assert_allclose(batch_gradient(p, p.w0, blocks), full, rtol=1e-12)


def test_partial_gradient_empty_faults():
    p = make_problem()
    with pytest.raises(ValueError):
        partial_gradient(p, p.w0, [])


def test_gradient_matches_central_differences():
    p = make_problem(m=20, d=5, b=4, seed=11)
    batches = sample_batches(p, 1, np.random.default_rng(12))
    analytic = batch_gradient(p, p.w0, batches)
    numeric = central_difference_gradient(p, batches[0], p.w0)
    denom = np.maximum(np.abs(analytic), 1e-6 * np.abs(analytic).max())
    assert np.all(np.abs(analytic - numeric) / denom <= 1e-4)


def test_apply_update_cases():
    p = tiny_problem(X=[[1.0, 0.0], [0.0, 1.0]], y=[1.0, 2.0], w=[5.0, 5.0])
    w = p.w0
    np.testing.assert_array_equal(apply_update(p, w, [np.zeros(2)], 1), w)

    g = np.array([1.0, -2.0])
    np.testing.assert_allclose(apply_update(p, w, [g], 1), w - g)
    np.testing.assert_allclose(apply_update(p, w, [g, g], 2), w - g)  # averaging two equal gradients

    with pytest.raises(ValueError):
        apply_update(p, w, np.empty((0, 2)), 0)
    with pytest.raises(ValueError):
        apply_update(p, w, [g], 2)


def test_model_error_zero_at_target_and_permutation_invariant():
    p = make_problem(seed=5)
    assert model_error(p, p.least_squares_target) == 0.0
    assert model_error(p, p.w0) == pytest.approx(_oracles.model_error(p, p.w0), rel=1e-12)

    q = make_problem(seed=5)
    perm = np.random.default_rng(6).permutation(q.m)
    shuffled = tiny_problem(q.X[perm], q.y[perm], q.w0, eta=q.eta, s=q.s)
    assert model_error(shuffled, q.w0) == pytest.approx(model_error(q, q.w0), rel=1e-9)


def test_full_batch_descent_reduces_error():
    p = make_problem(m=60, d=4, b=1, eta=1e-5, seed=8)
    w = p.w0
    for _ in range(50):
        w = apply_update(p, w, [partial_gradient(p, w, np.arange(p.m))], 1)
    assert model_error(p, w) < model_error(p, p.w0)


def test_convergence_bound_values():
    params = BoundParams(lipschitz=1.0, convexity=1.0, sigma2=1.0, initial_gap=1.0, s=1, eta=0.1)
    assert convergence_bound(params, 1, 0) == pytest.approx(1.0)
    assert convergence_bound(params, 1, 1) == pytest.approx(0.905)
    floor = 0.05
    assert convergence_bound(params, 1, 10_000) == pytest.approx(floor, abs=1e-12)


def test_convergence_bound_faults():
    params = BoundParams(lipschitz=1.0, convexity=1.0, sigma2=1.0, initial_gap=1.0, s=1, eta=2.0)
    with pytest.raises(ValueError):
        convergence_bound(params, 1, 1)
    good = BoundParams(lipschitz=1.0, convexity=1.0, sigma2=1.0, initial_gap=1.0, s=1, eta=0.1)
    with pytest.raises(ValueError):
        convergence_bound(good, 0, 1)
    with pytest.raises(ValueError):
        convergence_bound(good, 1, -1)


@given(
    st.floats(0.01, 0.5),
    st.floats(0.1, 1.9),
    st.integers(1, 6),
    st.integers(0, 60),
)
@settings(max_examples=80, deadline=None)
def test_convergence_bound_monotone(eta, c, k, j):
    if eta * c >= 1:
        return
    params = BoundParams(lipschitz=2.0, convexity=c, sigma2=1.5, initial_gap=50.0, s=2, eta=eta)
    assert convergence_bound(params, k + 1, j) <= convergence_bound(params, k, j) + 1e-12
    if params.initial_gap >= params.eta * params.lipschitz * params.sigma2 / (2 * c * k * params.s):
        assert convergence_bound(params, k, j + 1) <= convergence_bound(params, k, j) + 1e-12


def test_estimate_bound_params_sane():
    p = make_problem(m=200, d=10, b=10, eta=1e-5, seed=3)
    params = estimate_bound_params(p)
    assert params.convexity > 0 and params.lipschitz >= params.convexity
    assert params.sigma2 > 0 and params.initial_gap > 0
    assert params.eta * params.convexity < 1
    assert params.s == p.s
    # the initial gap measures the per-sample objective suboptimality
    assert params.initial_gap == pytest.approx((loss(p, p.w0) - loss(p, p.least_squares_target)) / p.m)


def test_estimate_bound_params_memory_follows_the_block():
    # squared row norms a block of rows at a time: an (m, d) temporary would
    # be 1.6 MB (12 blocks) at the benchmark's m=2000, d=100
    p = make_problem(m=2000, d=100, b=20, eta=1e-4, seed=2)
    _, peak, _ = traced_call(lambda: estimate_bound_params(p))
    assert peak <= 3 * BLOCK_VALUES * 8, f"estimate_bound_params traced {peak / 2**20:.2f} MiB"


def test_sample_batches_memory_follows_the_block():
    # keys drawn and partitioned a block of rows at a time: two (20, 2000)
    # arrays, the keys and their argpartition, would be 0.64 MB (5 blocks)
    p = make_problem(m=2000, d=5, b=20)
    rng = np.random.default_rng(4)
    _, peak, _ = traced_call(lambda: sample_batches(p, 20, rng))
    assert peak <= 3 * BLOCK_VALUES * 8, f"sample_batches traced {peak / 2**20:.2f} MiB"
