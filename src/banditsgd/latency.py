"""Exponential worker-latency model and exact order-statistic moments.

Workers respond after independent exponentially distributed delays. The
sampling helpers draw ``L`` iterations at once and consume a documented
number of variates from the caller's generator, so traces replay bit-exactly:
``member_responses`` returns an ``(L, r)`` block, one variate per member of
the superarm in ascending member order, and ``response_vector`` an ``(L, n)``
block, one per worker in index order. Rows are drawn one after another, so a
block consumes the stream exactly as ``L`` one-row blocks do and equals them
bit for bit (an exponential draw of scale ``s`` is ``s`` times a standard
exponential draw). Order statistics of a draw, such as the k-th fastest
response that k-sync waits for, are row reductions of a block.

The moment formulas enumerate the non-empty subsets of the rate list
(inclusion-exclusion over the joint survival function), which is exact but
exponential in the list length, hence the hard cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# 2^25 terms is the largest enumeration we allow before failing loudly;
# beyond that the caller should rethink, not silently approximate.
SUBSET_ENUMERATION_CAP = 25
_CHUNK_BITS = 20


@dataclass(frozen=True)
class WorkerPool:
    """Pool of workers with independent exponential response times.

    ``rates[i]`` is the rate of worker ``i`` (so ``means[i] = 1/rates[i]`` is
    its expected response time). Workers are indexed from 0. ``speed_order``
    ranks them fastest first (lower index on ties) and ``sorted_means`` is
    ``means[speed_order]``; all four arrays are computed once, read-only.
    """

    rates: np.ndarray
    means: np.ndarray = field(init=False, repr=False, compare=False)
    speed_order: np.ndarray = field(init=False, repr=False, compare=False)
    sorted_means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rates = np.atleast_1d(np.asarray(self.rates, dtype=np.float64)).copy()
        if rates.ndim != 1 or rates.size == 0:
            raise ValueError("worker pool needs a non-empty 1-D rate list")
        if not np.all(np.isfinite(rates)) or np.any(rates <= 0):
            raise ValueError("every worker rate must be finite and > 0")
        means = 1.0 / rates
        order = np.argsort(means, kind="stable")
        for name, arr in (("rates", rates), ("means", means), ("speed_order", order), ("sorted_means", means[order])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.rates.size)

    @property
    def theorem_valid(self) -> bool:
        """True when every mean response time is at most one time unit.

        The regret guarantee assumes this; it is a flag rather than a hard
        constraint so that pools outside the assumption remain simulable
        (time units are dimensionless and can always be rescaled).
        """
        return float(self.rates.min()) >= 1.0

    def validate_superarm(self, superarm) -> np.ndarray:
        """Canonicalize an index set: ascending, distinct, in range."""
        arm = np.atleast_1d(np.asarray(superarm, dtype=np.int64))
        if arm.size == 0:
            raise ValueError("superarm must be non-empty")
        if arm.size > 1 and not (arm[1:] > arm[:-1]).all():
            arm = np.sort(arm)
            if (arm[1:] == arm[:-1]).any():
                raise ValueError("superarm contains duplicate worker indices")
        if arm[0] < 0 or arm[-1] >= self.n:
            raise ValueError("superarm contains out-of-range worker indices")
        return arm


def _draw(scales: np.ndarray, rng: np.random.Generator, iterations: int) -> np.ndarray:
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    return rng.exponential(scales, size=(int(iterations), scales.size))


def response_vector(pool: WorkerPool, rng: np.random.Generator, iterations: int) -> np.ndarray:
    """An ``(L, n)`` block of draws, ``L = iterations``: one per worker and row, in index order."""
    return _draw(pool.means, rng, iterations)


def member_responses(pool: WorkerPool, superarm, rng: np.random.Generator, iterations: int) -> np.ndarray:
    """An ``(L, r)`` block of draws for a superarm, ``L = iterations``.

    Each row consumes exactly ``len(superarm)`` exponential variates, in
    ascending worker-index order; column ``t`` belongs to the ``t``-th member
    of the canonicalized (sorted) superarm.
    """
    arm = pool.validate_superarm(superarm)
    return _draw(pool.means[arm], rng, iterations)


def _validated_rates(rates) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(rates, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("rate list must be non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("every rate must be finite and > 0")
    if arr.size > SUBSET_ENUMERATION_CAP:
        raise ValueError(
            f"rate list has {arr.size} entries; subset enumeration is capped at "
            f"{SUBSET_ENUMERATION_CAP} (2^{SUBSET_ENUMERATION_CAP} terms). Split the "
            "computation or use a Monte Carlo estimate instead."
        )
    return arr


def _inclusion_exclusion_sum(rates: np.ndarray) -> tuple[float, float]:
    """Sums over non-empty subsets S of (-1)^(|S|-1) / (sum of rates in S)^p.

    Returns the p=1 and the p=2 sum, both from one enumeration of the subset
    sums. Enumerates subsets by binary counting over the low ``_CHUNK_BITS``
    indices and loops over the high indices, bounding memory at a few arrays
    of 2^_CHUNK_BITS floats.
    """
    n_low = min(rates.size, _CHUNK_BITS)
    size_low = 1 << n_low
    low_sums = np.zeros(size_low)
    low_parity = np.ones(size_low)  # (-1)^popcount(mask)
    for i in range(n_low):
        step = 1 << i
        low_sums[step : 2 * step] = low_sums[:step] + rates[i]
        low_parity[step : 2 * step] = -low_parity[:step]

    high_rates = rates[n_low:]
    total1 = total2 = 0.0
    for hmask in range(1 << high_rates.size):
        if hmask == 0:
            # skip the empty set once; the high part adds nothing to the sums
            sums, parity, hparity = low_sums[1:], low_parity[1:], 1.0
        else:
            bits = [i for i in range(high_rates.size) if hmask >> i & 1]
            sums = low_sums + float(high_rates[bits].sum())
            parity = low_parity
            hparity = -1.0 if len(bits) % 2 else 1.0
        # (-1)^(|S|-1) = -(-1)^(|S|)
        total1 -= hparity * float((parity / sums).sum())
        terms = sums**2
        total2 -= hparity * float(np.divide(parity, terms, out=terms).sum())
    return total1, total2


def max_moments(rates) -> tuple[float, float]:
    """Exact mean and variance of the maximum of independent exponentials.

    E[max] = sum over non-empty subsets S of (-1)^(|S|-1) / sum_{i in S} rates_i
    and E[max^2] = the same sum with 2 / (sum rates)^2, from one enumeration.
    """
    mean, second = _inclusion_exclusion_sum(_validated_rates(rates))
    return mean, max(2.0 * second - mean * mean, 0.0)


def expected_max(rates) -> float:
    """Exact mean of the maximum of independent exponentials (see ``max_moments``)."""
    return max_moments(rates)[0]


def variance_of_max(rates) -> float:
    """Exact variance of the maximum of independent exponentials (see ``max_moments``)."""
    return max_moments(rates)[1]
