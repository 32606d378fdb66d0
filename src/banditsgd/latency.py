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
(inclusion-exclusion over the joint survival function). The enumeration is
exact and its time is exponential in the list length, hence the hard cap.
Its memory is not: the terms of the 2^k - 1 non-empty masks are built and
summed in blocks of 2^14, combined along numpy's own pairwise-summation
tree, so the totals are bit-identical to ``np.add.reduce`` over that one
array while a call holds a few blocks, about 1 MiB, at any list length, and
frees them when it returns. That block, ``BLOCK_VALUES``, is the package's
one budget for working sets that grow with a horizon or a trial count:
``block_rows(width)`` rows of ``width`` values make one block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# 2^25 terms is the largest enumeration we allow before failing loudly;
# beyond that the caller should rethink, not silently approximate.
SUBSET_ENUMERATION_CAP = 25
# The package's one block budget: a working set that grows with a horizon, a
# trial count or a subset count is built BLOCK_VALUES values at a time. The
# array of subset terms is built and summed in leaves of BLOCK_VALUES masks.
_BLOCK_BITS = 14
BLOCK_VALUES = 1 << _BLOCK_BITS


def block_rows(width: int) -> int:
    """Rows of ``width`` values that one block holds: ``max(1, BLOCK_VALUES // width)``."""
    return max(1, BLOCK_VALUES // width)


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


def _subset_table(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum and parity (-1)^popcount of every subset mask of ``rates``, by doubling.

    Mask ``m`` sums its set bits' rates left to right in ascending bit order,
    starting from 0.0.
    """
    sums = np.zeros(1 << rates.size)
    parity = np.ones(1 << rates.size)
    for i, rate in enumerate(rates.tolist()):
        step = 1 << i
        np.add(sums[:step], rate, out=sums[step : 2 * step])
        np.negative(parity[:step], out=parity[step : 2 * step])
    return sums, parity


def _leaf(table, upper: list, work, start: int, count: int) -> tuple[float, float]:
    """``np.add.reduce`` of parity / sums and of parity / sums**2 over masks ``start .. start+count-1``.

    Built in ``work`` from ``table`` (the low ``_BLOCK_BITS`` bits' sums and
    parities) and ``upper`` (the higher bits' rates, added one at a time in
    ascending bit order). The range spans at most two table blocks.
    """
    table_sums, table_parity = table
    sums, parity, scratch = (a[:count] for a in work)
    pos = start
    while pos < start + count:
        block, lo = divmod(pos, BLOCK_VALUES)
        hi = min(BLOCK_VALUES, start + count - block * BLOCK_VALUES)
        piece = slice(pos - start, pos - start + hi - lo)
        piece_sums = sums[piece]
        np.copyto(piece_sums, table_sums[lo:hi])
        sign = 1.0
        for i, rate in enumerate(upper):
            if block >> i & 1:
                piece_sums += rate
                sign = -sign
        np.multiply(table_parity[lo:hi], sign, out=parity[piece])
        pos = hi + block * BLOCK_VALUES
    first = float(np.add.reduce(np.divide(parity, sums, out=scratch)))
    np.multiply(sums, sums, out=scratch)
    return first, float(np.add.reduce(np.divide(parity, scratch, out=scratch)))


def _tree(table, upper: list, work, start: int, count: int) -> tuple[float, float]:
    """``_leaf`` totals combined along numpy's pairwise tree (split at ``n//2 - (n//2) % 8``)."""
    if count <= BLOCK_VALUES:
        return _leaf(table, upper, work, start, count)
    half = count // 2
    half -= half % 8
    left = _tree(table, upper, work, start, half)
    right = _tree(table, upper, work, start + half, count - half)
    return left[0] + right[0], left[1] + right[1]


def _inclusion_exclusion_sum(rates: np.ndarray) -> tuple[float, float]:
    """Sums over non-empty subsets S of (-1)^(|S|-1) / (sum of rates in S)^p.

    Returns the p=1 and the p=2 sum, both from one enumeration of the subset
    sums, and bit-identical to ``np.add.reduce`` over the one array of the
    2^k - 1 non-empty masks' terms. That array is summed along numpy's
    pairwise tree (split ``n`` at ``n//2 - (n//2) % 8``) down to leaves of
    at most ``BLOCK_VALUES`` masks, and only the leaves are built: the sums of
    the low ``_BLOCK_BITS`` bits come from one table, the higher bits are
    added one at a time in ascending bit order; a list of at most
    ``_BLOCK_BITS`` rates is one leaf. Memory is the table and three arrays of
    ``min(2^k - 1, BLOCK_VALUES)`` floats. They go to the module-level
    ``_tree`` and ``_leaf``: a self-calling nested closure over them would
    sit in a reference cycle and keep them past the return.
    """
    count = (1 << rates.size) - 1
    work = tuple(np.empty(min(count, BLOCK_VALUES)) for _ in range(3))
    first, second = _tree(_subset_table(rates[:_BLOCK_BITS]), rates[_BLOCK_BITS:].tolist(), work, 1, count)
    # (-1)^(|S|-1) = -(-1)^|S|
    return -first, -second


def max_moments(rates) -> tuple[float, float]:
    """Exact mean and variance of the maximum of independent exponentials.

    E[max] = sum over non-empty subsets S of (-1)^(|S|-1) / sum_{i in S} rates_i
    and E[max^2] = the same sum with 2 / (sum rates)^2, from one enumeration.
    The enumeration is exact and bit-identical to ``np.add.reduce`` over the
    one array of the 2^k - 1 non-empty subsets' terms; its memory is bounded
    by the block size (2^14 subsets), not by 2^k, and is freed when the call
    returns.
    """
    mean, second = _inclusion_exclusion_sum(_validated_rates(rates))
    return mean, max(2.0 * second - mean * mean, 0.0)


def expected_max(rates) -> float:
    """Exact mean of the maximum of independent exponentials (see ``max_moments``)."""
    return max_moments(rates)[0]


def variance_of_max(rates) -> float:
    """Exact variance of the maximum of independent exponentials (see ``max_moments``)."""
    return max_moments(rates)[1]
