"""Monte Carlo oracle suite: sampled statistics against the closed forms.

Each check draws fresh samples and compares an empirical statistic with the
corresponding exact formula or bound, passing when the discrepancy stays
within three standard errors (checks over many random instances allow a 1%
miss rate, which is what a 3-sigma rule predicts). A comparison that yields
NaN, as with too few samples for a standard error, counts as a miss. The
tail check's ``(trials, t)`` variates are drawn one block of
``latency.BLOCK_VALUES`` at a time, so its memory follows the block, not the
trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import subgamma_tail, subgaussian_tail
from .latency import WorkerPool, block_rows, expected_max, response_vector, variance_of_max


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def mc_max_samples(rates, samples: int, rng: np.random.Generator) -> np.ndarray:
    """``samples`` draws of the maximum of independent exponentials.

    Accumulates one rate at a time, each rate's draws into one reused
    buffer, so a call holds two sample-sized arrays whatever the rate count.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=np.float64))
    acc = rng.standard_exponential(samples)
    acc /= rates[0]
    nxt = np.empty_like(acc)
    for lam in rates[1:]:
        rng.standard_exponential(out=nxt)
        nxt /= lam
        np.maximum(acc, nxt, out=acc)
    return acc


def mc_max_mean(rates, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """(Monte Carlo mean, its standard error)."""
    draws = mc_max_samples(rates, samples, rng)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(samples))


def mc_max_variance(rates, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """(Monte Carlo variance, its standard error via the fourth moment)."""
    draws = mc_max_samples(rates, samples, rng)
    draws -= draws.mean()  # centered and squared in place: no second sample-sized array
    np.square(draws, out=draws)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(samples))


def check_closed_form(exact, sampled, lists: int, samples: int, rng: np.random.Generator) -> CheckResult:
    """``exact(rates)`` against the Monte Carlo ``sampled(rates, samples, rng) -> (value, se)``
    on ``lists`` random rate lists of 1 to 8 rates."""
    misses = 0
    for _ in range(lists):
        length = int(rng.integers(1, 9))
        rates = rng.uniform(0.5, 10.0, length)
        value, se = sampled(rates, samples, rng)
        if not abs(exact(rates) - value) <= 3.0 * se:
            misses += 1
    allowed = max(1, math.ceil(0.01 * lists))
    return CheckResult(
        f"{exact.__name__} vs Monte Carlo",
        misses <= allowed,
        f"{misses}/{lists} outside 3 standard errors (allowed {allowed})",
    )


def check_order_statistics(samples: int, rng: np.random.Generator) -> CheckResult:
    """Sampled fastest and slowest responses of an iid pool against closed forms.

    The row minima of one ``(samples, n)`` block and the row maxima of a
    second. With fewer than two samples, too few for a standard error, the
    check is a miss and draws nothing.
    """
    name = "fastest and slowest response vs closed forms"
    if samples < 2:
        return CheckResult(name, False, "one sample" if samples else "no samples")
    n = 4
    pool = WorkerPool(np.ones(n))
    ok = True
    details = []
    for label, reduce, exact in (("min", np.min, 1.0 / n), ("max", np.max, expected_max(pool.rates))):
        draws = reduce(response_vector(pool, rng, samples), axis=1)
        se = draws.std(ddof=1) / math.sqrt(samples)
        ok = ok and abs(draws.mean() - exact) <= 3 * se
        details.append(f"{label} mean {draws.mean():.5f} vs {exact:.5f}")
    return CheckResult(name, bool(ok), "; ".join(details))


def empirical_mean_tail_rates(
    t: int, lam: float, eps_grid, trials: int, rng: np.random.Generator
) -> dict:
    """Observed tail frequencies of the centered mean of ``t`` iid exponentials.

    The centered mean sits in the sub-gamma class (variance 1/(t lam^2), scale
    1/(t lam)) on the right and the sub-Gaussian class (same variance) on the
    left, so each observed frequency should respect the matching bound.
    The ``(trials, t)`` variates are drawn one block at a time, in
    ``block_rows(t)`` rows of ``t``, so a call holds one block of variates
    whatever ``t`` and ``trials``; rows fill the stream in order, so the row
    means and the generator state after equal those of one ``(trials, t)``
    draw.
    """
    centered = np.empty(trials)
    step = block_rows(t)
    for lo in range(0, trials, step):
        rows = min(step, trials - lo)
        centered[lo : lo + rows] = rng.standard_exponential((rows, t)).mean(axis=1)
    centered /= lam  # the row means of the draws, then centered, in place
    centered -= 1.0 / lam
    sigma2 = 1.0 / (t * lam * lam)
    scale = 1.0 / (t * lam)
    out = {}
    for eps in eps_grid:
        threshold, right_bound = subgamma_tail(eps, sigma2, scale)
        left_bound = subgaussian_tail(eps, sigma2)
        out[eps] = {
            "right_freq": float((centered > threshold).mean()),
            "right_bound": right_bound,
            "left_freq": float((centered <= -eps).mean()),
            "left_bound": left_bound,
        }
    return out


def check_tail_bounds(trials: int, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    ok = True
    for t in (4, 16, 64):
        for lam in (1.0, 2.0):
            rates = empirical_mean_tail_rates(t, lam, (0.25, 0.5, 1.0, 2.0), trials, rng)
            for eps, row in rates.items():
                for side in ("right", "left"):
                    bound = row[f"{side}_bound"]
                    margin = 3.0 * math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
                    excess = row[f"{side}_freq"] - (bound + margin)
                    worst = max(worst, excess)
                    if excess > 0:
                        ok = False
    return CheckResult("sub-gamma / sub-Gaussian tail bounds", ok, f"worst excess {worst:.2e}")


def oracle_suite(lists: int, samples: int, trials: int, seed: int) -> list[CheckResult]:
    for name, value, least in (("lists", lists, 1), ("samples", samples, 2), ("trials", trials, 1)):
        if value < least:  # a standard error needs two samples
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return [
        check_closed_form(expected_max, mc_max_mean, lists, samples, rng),
        check_closed_form(variance_of_max, mc_max_variance, max(lists // 2, 5), samples, rng),
        check_order_statistics(min(samples, 200_000) // 20, rng),
        check_tail_bounds(trials, rng),
    ]
