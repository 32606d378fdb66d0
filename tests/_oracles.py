"""Independent oracles used to freeze expected test values.

Everything here recomputes quantities by a different route than the package:
subset sums via itertools instead of binary counting, gradients via central
finite differences or per-batch row gathers, LCBs one worker at a time, gaps
via explicit enumeration. Keep these free of any dependence on the
implementation paths they check.
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


# ---------------------------------------------------------------- scheduling layer


def confidence_radius(state, variant, worker, j) -> float:
    """sqrt(4 f(j) / T_i) + 2 f(j) / T_i for a worker with T_i = pulls > 0."""
    t = int(state.pulls[worker])
    if t <= 0:
        raise ValueError("confidence radius undefined for an unpulled worker")
    f = variant.exploration_scale(state, j)
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
