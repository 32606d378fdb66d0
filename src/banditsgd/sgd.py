"""Synthetic least-squares problem, mini-batch gradients, and the convergence bound.

The learning task is unregularized least squares on synthetic data: feature
entries uniform on [1, 10], labels are a noisy linear response, and the model
starts uniform on [1, 100] per coordinate. Progress is measured as the
Euclidean distance to the analytical least-squares solution, which keeps the
analysis independent of the data scale.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .latency import block_rows

logger = logging.getLogger(__name__)


@dataclass
class SgdProblem:
    """One generated least-squares instance.

    ``X`` is zero-padded so that the parallelism budget ``b`` divides the row
    count ``m``; padded rows carry zero labels and contribute nothing to any
    gradient. ``s = m / b`` is the per-worker batch size and ``w0`` the
    initial model; the run loop owns the current model.
    """

    X: np.ndarray
    y: np.ndarray
    w0: np.ndarray
    eta: float
    s: int
    least_squares_target: np.ndarray

    @property
    def m(self) -> int:
        return int(self.X.shape[0])

    @property
    def d(self) -> int:
        return int(self.X.shape[1])


@dataclass(frozen=True)
class BoundParams:
    """Constants of the expected-deviation bound for k-of-b mini-batch SGD.

    ``lipschitz`` and ``convexity`` are the extreme curvatures of the descent
    objective, ``sigma2`` the per-sample gradient variance, ``initial_gap`` the
    starting objective suboptimality. ``eta * convexity < 1`` is required for
    the transient term to decay.
    """

    lipschitz: float
    convexity: float
    sigma2: float
    initial_gap: float
    s: int
    eta: float

    def __post_init__(self) -> None:
        for name in ("lipschitz", "convexity", "sigma2", "initial_gap", "eta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.s < 1:
            raise ValueError("batch size s must be >= 1")

    @property
    def decay(self) -> float:
        """Per-iteration contraction 1 - eta*c of the transient term."""
        return 1.0 - self.eta * self.convexity

    def error_floor(self, k: int) -> float:
        """The bound's floor eta * L * sigma^2 / (2 c k s) when waiting for k workers."""
        return self.eta * self.lipschitz * self.sigma2 / (2.0 * self.convexity * k * self.s)


def generate_problem(m: int, d: int, rng: np.random.Generator, *, b: int, eta: float) -> SgdProblem:
    """Sample a fresh least-squares instance.

    Draw order (all from ``rng``): the m*d feature entries, the d-vector of
    true coefficients, the m label noises, then the d-vector initial model.
    Rows of zeros are appended afterwards when ``b`` does not divide ``m``.
    """
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if b < 1:
        raise ValueError("need b >= 1")
    X = rng.uniform(1.0, 10.0, size=(m, d))
    w_true = rng.uniform(1.0, 100.0, size=d)
    y = X @ w_true + rng.standard_normal(m)
    w0 = rng.uniform(1.0, 100.0, size=d)

    pad = (-m) % b
    if pad:
        X = np.vstack([X, np.zeros((pad, d))])
        y = np.concatenate([y, np.zeros(pad)])
    target, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < d:
        raise ValueError("feature matrix is rank-deficient; regenerate with a new seed")
    return SgdProblem(
        X=X,
        y=y,
        w0=w0,
        eta=float(eta),
        s=(m + pad) // b,
        least_squares_target=target,
    )


def sample_batches(problem: SgdProblem, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent uniform batches without replacement, one per row.

    Each batch consumes ``m`` uniform variates (a random key per sample; the
    batch is the ``s`` smallest keys), so row ``t`` of the result is exactly
    what the ``t``-th of ``count`` sequential single-batch calls would return.
    Keys are drawn and partitioned ``block_rows(m)`` rows at a time, in row
    order, which consumes the stream the same way; only the ``(count, s)``
    result outlives a block. At ``b = 1`` (``s == m``) a row holds every
    sample once, in no set order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    m, s = problem.m, problem.s
    batches = np.empty((count, s), dtype=np.intp)
    step = block_rows(m)
    for lo in range(0, count, step):
        keys = rng.random((min(step, count - lo), m))
        batches[lo : lo + step] = np.argpartition(keys, s - 1, axis=1)[:, :s]
    return batches


def batch_gradient(problem: SgdProblem, w: np.ndarray, batches: np.ndarray) -> np.ndarray:
    """Summed gradient of the batch partial losses at ``w``, one batch per row.

    Equals sum over batches of sum_{l in batch} x_l (x_l^T w - y_l). Sample l
    contributes once per batch containing it, so the sum is X^T times the
    occurrence-weighted full residual, with no row gather.
    """
    weights = np.bincount(batches.ravel(), minlength=problem.m).astype(np.float64)
    resid = problem.X @ w
    resid -= problem.y
    resid *= weights
    return resid @ problem.X


def model_error(problem: SgdProblem, w: np.ndarray) -> float:
    """Euclidean distance between ``w`` and the least-squares solution."""
    delta = w - problem.least_squares_target
    return math.sqrt(float(delta @ delta))


def run_trajectory(problem: SgdProblem, rounds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Model error after each iteration of mini-batch SGD started from ``w0``.

    Iteration j (1-based) draws ``rounds[j-1]`` batches from ``rng`` and steps
    by ``eta / (s * r)`` times their summed gradient. The trajectory reads only
    ``rounds``, never which workers computed the batches. Raises
    ``ValueError`` naming the first iteration whose model error is not finite.
    """
    errors = np.empty(len(rounds))
    w = problem.w0.copy()
    step_base = problem.eta / problem.s
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below names a divergence
        for j, r in enumerate(rounds.tolist(), start=1):
            # sample_batches draws the keys a block of rows at a time, so the step
            # holds one block of keys and the (r, s) batches, never an (r, m) array
            w = w - (step_base / r) * batch_gradient(problem, w, sample_batches(problem, r, rng))
            err = model_error(problem, w)
            if not math.isfinite(err):
                raise ValueError(f"model error is {err} at iteration {j}; eta={problem.eta} is too large to converge")
            errors[j - 1] = err
    return errors


def convergence_bound(params: BoundParams, k: int, j: int) -> float:
    """Expected-deviation bound after ``j`` iterations waiting for ``k`` workers.

    floor + (1 - eta*c)^j * (initial_gap - floor), with ``decay`` and
    ``error_floor(k)`` read from ``params``. Requires eta * c < 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if j < 0:
        raise ValueError("j must be >= 0")
    if params.decay <= 0:
        raise ValueError("eta * convexity must be < 1 for the bound to hold")
    floor = params.error_floor(k)
    return floor + params.decay**j * (params.initial_gap - floor)


def estimate_bound_params(problem: SgdProblem) -> BoundParams:
    """Empirical bound constants for a generated problem.

    The update normalizes gradient sums by the number of contributing samples,
    so the effective descent objective is the per-sample average loss F/m.
    Curvatures are therefore the extreme eigenvalues of X^T X / m, sigma^2 the
    exact variance of a single-sample gradient at w0, and the initial gap the
    per-sample objective suboptimality at w0. All estimates are logged. The
    squared row norms are summed one block of rows (``block_rows(d)``) at a
    time, so no ``(m, d)`` temporary is built.
    """
    m = problem.m
    second_moment = problem.X.T @ problem.X / m
    eigs = np.linalg.eigvalsh(second_moment)
    convexity, lipschitz = float(eigs[0]), float(eigs[-1])
    if convexity <= 0:
        raise ValueError("per-sample curvature is not positive definite")

    resid0 = problem.X @ problem.w0 - problem.y
    mean_grad = problem.X.T @ resid0 / m
    row_sq_norms = np.empty(m)
    step = block_rows(problem.d)
    for lo in range(0, m, step):
        row_sq_norms[lo : lo + step] = np.square(problem.X[lo : lo + step]).sum(axis=1)
    mean_sq_norm = float(((resid0**2) * row_sq_norms).mean())
    sigma2 = mean_sq_norm - float(mean_grad @ mean_grad)
    resid_opt = problem.X @ problem.least_squares_target - problem.y
    initial_gap = (0.5 * float(resid0 @ resid0) - 0.5 * float(resid_opt @ resid_opt)) / m

    params = BoundParams(
        lipschitz=lipschitz,
        convexity=convexity,
        sigma2=sigma2,
        initial_gap=initial_gap,
        s=problem.s,
        eta=problem.eta,
    )
    logger.info(
        "estimated bound constants: L=%.6g c=%.6g sigma2=%.6g gap=%.6g (eta*c=%.3g)",
        lipschitz, convexity, sigma2, initial_gap, problem.eta * convexity,
    )
    if problem.eta * convexity >= 1:
        logger.warning("eta * convexity = %.3g >= 1: the transient never decays", problem.eta * convexity)
    return params
