"""Exponential worker-latency model and exact order-statistic moments.

Workers respond after independent exponentially distributed delays. Sampling
helpers consume a documented number of variates from the caller's generator so
traces replay bit-exactly. The moment formulas enumerate the non-empty subsets
of the rate list (inclusion-exclusion over the joint survival function), which
is exact but exponential in the list length, hence the hard cap.
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
    its expected response time). Workers are indexed from 0. ``means`` and
    their ascending copy ``sorted_means`` are computed once, read-only.
    """

    rates: np.ndarray
    means: np.ndarray = field(init=False, repr=False, compare=False)
    sorted_means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rates = np.atleast_1d(np.asarray(self.rates, dtype=np.float64)).copy()
        if rates.ndim != 1 or rates.size == 0:
            raise ValueError("worker pool needs a non-empty 1-D rate list")
        if not np.all(np.isfinite(rates)) or np.any(rates <= 0):
            raise ValueError("every worker rate must be finite and > 0")
        means = 1.0 / rates
        sorted_means = np.sort(means)
        for name, arr in (("rates", rates), ("means", means), ("sorted_means", sorted_means)):
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
        if arm.size > 1 and not np.all(arm[1:] > arm[:-1]):
            arm = np.sort(arm)
            if np.any(arm[1:] == arm[:-1]):
                raise ValueError("superarm contains duplicate worker indices")
        if arm[0] < 0 or arm[-1] >= self.n:
            raise ValueError("superarm contains out-of-range worker indices")
        return arm


def response_vector(pool: WorkerPool, rng: np.random.Generator) -> np.ndarray:
    """One fresh draw per worker, in index order (consumes ``n`` variates)."""
    return rng.exponential(pool.means)


def member_responses(pool: WorkerPool, superarm, rng: np.random.Generator) -> np.ndarray:
    """Fresh per-member draws for a superarm.

    Consumes exactly ``len(superarm)`` exponential variates, in ascending
    worker-index order; element ``t`` belongs to the ``t``-th member of the
    canonicalized (sorted) superarm.
    """
    arm = pool.validate_superarm(superarm)
    return rng.exponential(pool.means[arm])


def kth_order_response(pool: WorkerPool, k: int, rng: np.random.Generator) -> float:
    """Draw all ``n`` workers (index order) and return the k-th smallest, k >= 1."""
    k = int(k)
    if not 1 <= k <= pool.n:
        raise ValueError(f"k={k} outside [1, {pool.n}]")
    draws = response_vector(pool, rng)
    return float(np.partition(draws, k - 1)[k - 1])


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


def _inclusion_exclusion_sum(rates: np.ndarray, power: int) -> float:
    """Sum over non-empty subsets S of (-1)^(|S|-1) / (sum of rates in S)^power.

    Enumerates subsets by binary counting over the low ``_CHUNK_BITS`` indices
    and loops over the high indices, bounding memory at 2^_CHUNK_BITS floats.
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
    total = 0.0
    for hmask in range(1 << high_rates.size):
        if hmask == 0:
            hsum, hparity = 0.0, 1.0
        else:
            bits = [i for i in range(high_rates.size) if hmask >> i & 1]
            hsum = float(high_rates[bits].sum())
            hparity = -1.0 if len(bits) % 2 else 1.0
        sums = low_sums + hsum
        start = 1 if hmask == 0 else 0  # skip the empty set once
        terms = low_parity[start:] / (sums[start:] ** power if power != 1 else sums[start:])
        # (-1)^(|S|-1) = -(-1)^(|S|)
        total -= hparity * float(terms.sum())
    return total


def expected_max(rates) -> float:
    """Exact mean of the maximum of independent exponentials.

    E[max] = sum over non-empty subsets S of (-1)^(|S|-1) / sum_{i in S} rates_i.
    """
    arr = _validated_rates(rates)
    return _inclusion_exclusion_sum(arr, 1)


def variance_of_max(rates) -> float:
    """Exact variance of the maximum of independent exponentials.

    Uses E[max^2] = sum over non-empty subsets S of (-1)^(|S|-1) * 2 / (sum rates)^2.
    """
    arr = _validated_rates(rates)
    mean = _inclusion_exclusion_sum(arr, 1)
    second_moment = 2.0 * _inclusion_exclusion_sum(arr, 2)
    return max(second_moment - mean * mean, 0.0)
