"""Selection policies, bandit bookkeeping, and round scheduling."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banditsgd.harness import ExperimentConfig, run_single, stream_rng
from banditsgd.latency import WorkerPool, block_rows, expected_max
from banditsgd.policies import (
    J_CAP,
    BanditState,
    RoundSchedule,
    compute_schedule,
    record_outcome,
    select_superarm_cmab,
    select_superarm_optimal,
)
from banditsgd.sgd import BoundParams

from _memory import traced_call
from test_harness import BLOCK_SEAMS
from _oracles import (
    book_iteration,
    confidence_radius,
    exploration_scale,
    lcb,
    lcb_values,
    select_superarm,
    superarm_is_suboptimal,
)


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


def select_one(state, variant, r, j, pool=None):
    """The round step's choice at iteration j: an L=1 block on a copy of ``state`` advanced to j-1."""
    copy = state_with(state.pulls.copy(), state.response_sums.copy(), iteration=j - 1)
    pool = WorkerPool(np.ones(state.n)) if pool is None else pool
    return select_superarm_cmab(copy, variant, pool, np.ones((1, r)), np.empty((1, r), dtype=np.int64))[0]


# ---------------------------------------------------------------- radius / lcb


def test_radius_zero_at_first_iteration():
    st8 = state_with([4], [2.0])
    assert confidence_radius(st8, "plain", 0, 1) == 0.0


def test_radius_plain_value():
    st8 = state_with([4], [2.0])
    assert confidence_radius(st8, "plain", 0, math.e) == pytest.approx(math.sqrt(2) + 1, rel=1e-12)


def test_radius_decreasing_in_pulls():
    values = [
        confidence_radius(state_with([t], [0.5 * t]), "plain", 0, 10) for t in (1, 2, 5, 20, 100)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_radius_unpulled_faults():
    with pytest.raises(ValueError):
        confidence_radius(state_with([0], [0.0]), "plain", 0, 2)


def test_scaled_variant_scale():
    st8 = state_with([2, 0, 4], [1.0, 0.0, 0.8])  # means 0.5, -, 0.2
    assert exploration_scale(st8, "scaled", math.e) == pytest.approx(2.0 * 0.2)
    assert exploration_scale(state_with([0, 0], [0.0, 0.0]), "scaled", 5) == 0.0
    assert exploration_scale(st8, "plain", math.e) == pytest.approx(2.0)


def test_lcb_unpulled_is_minus_infinity():
    st8 = state_with([0, 3], [0.0, 1.5])
    assert lcb(st8, "plain", 0, 5) == -math.inf


def test_lcb_zero_radius_leaves_mean():
    st8 = state_with([1], [0.4])
    assert lcb(st8, "plain", 0, 2) == pytest.approx(0.4)


def test_lcb_plain_value():
    # f(j-1) = 2 requires j-1 = e; radius = sqrt(2) + 1
    st8 = state_with([4], [2.0])
    assert lcb(st8, "plain", 0, math.e + 1) == pytest.approx(0.5 - (math.sqrt(2) + 1), rel=1e-12)


def test_lcb_before_first_iteration_with_pulls_faults():
    with pytest.raises(ValueError):
        lcb(state_with([2], [1.0]), "plain", 0, 1)
    with pytest.raises(ValueError):
        lcb_values(state_with([2], [1.0]), "plain", 1)
    with pytest.raises(ValueError):
        select_one(state_with([2], [1.0]), "plain", 1, 1)


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
    variant = "scaled" if scaled else "plain"
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
    np.testing.assert_array_equal(select_one(st8, "plain", 3, 1), [0, 1, 2])


def test_select_unpulled_worker_always_included():
    st8 = state_with([3, 0, 2], [0.3, 0.0, 0.1])
    assert 1 in select_one(st8, "plain", 1, 7)


def test_select_returns_r_distinct_members():
    st8 = state_with([5, 1, 2, 9], [2.0, 0.1, 0.4, 3.0])
    arm = select_one(st8, "plain", 3, 4)
    assert arm.size == 3 and np.unique(arm).size == 3


def test_select_size_fault():
    with pytest.raises(ValueError):
        select_one(BanditState.zeros(3), "plain", 4, 1)
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
                select_one(st8, "plain", r, 2),  # f(1) = 0, radii vanish
                select_superarm_optimal(pool, r),
            )


def random_state(rng, n, pulled_share, max_pulls=40):
    pulls = np.where(rng.random(n) < pulled_share, rng.integers(1, max_pulls, n), 0)
    return state_with(pulls, rng.uniform(0.1, 1.0, n) * pulls, iteration=int(pulls.sum()) + 1)


@given(st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_round_step_matches_per_iteration_oracle(seed, scaled):
    # repeated means exercise the tolerance side of the suboptimality test, and
    # few starting pulls the lowest-index tie-break of the suboptimal charge
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    pool = WorkerPool(1.0 / rng.choice([0.2, 0.4, 0.6, 0.8], size=n))
    variant = "scaled" if scaled else "plain"
    pulled_share = float(rng.choice([0.0, 0.5, 1.0]))
    start = random_state(rng, n, pulled_share, max_pulls=int(rng.choice([3, 40])))
    oracle = state_with(start.pulls.copy(), start.response_sums.copy(), iteration=start.current_iteration)
    # two consecutive calls, each with its own r: the state carries the iteration from one to the next
    for _ in range(2):
        r = int(rng.integers(1, n + 1))
        draws = rng.standard_exponential((int(rng.integers(1, 30)), r))
        j0 = start.current_iteration + 1
        responses = draws.copy()
        arms = select_superarm_cmab(start, variant, pool, responses, np.empty(draws.shape, dtype=np.int32))
        for i, j in enumerate(range(j0, j0 + draws.shape[0])):
            arm = select_superarm(oracle, variant, r, j)
            np.testing.assert_array_equal(arms[i], arm)
            row = draws[i] * pool.means[arm]
            assert responses[i].tobytes() == row.tobytes()
            book_iteration(oracle, pool, arm, row)
        assert start.pulls.dtype == oracle.pulls.dtype
        for name in ("pulls", "response_sums", "suboptimal_pulls"):
            assert getattr(start, name).tobytes() == getattr(oracle, name).tobytes(), name
        assert start.current_iteration == oracle.current_iteration == j0 + draws.shape[0] - 1


@pytest.mark.parametrize("n", [50, 500])
def test_round_step_temporaries_are_o_l_r(n):
    # the round writes into the caller's int32 arms, made outside the trace, and
    # holds one (L,) row of least-pulled members and, in the once-per-round
    # suboptimality test, one block of member levels (one byte each at n = 50,
    # two at n = 500) and numpy's 64 KiB buffer for their int32 indices. It
    # peaks at 0.56 (n = 50) and 0.71 (n = 500) times the bound's unit, the
    # least row and two float64 blocks; float64 member means traced 1.24 and
    # 1.30. A suboptimality test that built the round's (L, r) member means
    # at once traced 5.3 times the unit, and an (L, n) temporary, such as a
    # one-hot running count of pulls, would trace more still. The factor 0.85
    # sits above both round-step peaks and below the float64 member means
    iterations, r = 9000, 20
    rng = np.random.default_rng(4)
    pool = WorkerPool(rng.uniform(1.0, 10.0, n))
    state, draws = BanditState.zeros(n), rng.standard_exponential((iterations, r))
    arms = np.empty((iterations, r), dtype=np.int32)
    filled, peak, _ = traced_call(
        lambda: select_superarm_cmab(state, "plain", pool, draws, arms),
        warm_up=lambda: select_superarm_cmab(
            BanditState.zeros(n), "plain", pool, np.ones((2, r)), np.empty((2, r), dtype=np.int32)
        ),
    )
    assert filled is arms
    assert state.suboptimal_pulls.sum() > 0  # the charge ran
    kept = iterations * 8 + 2 * block_rows(r) * r * 8  # the least-pulled members and one block of means and indices
    assert peak <= 0.85 * kept, f"the round step traced {peak / kept:.2f} times its least row and one block"


def test_round_step_faults_leave_state_untouched():
    pool = WorkerPool([1.0, 2.0, 4.0])
    st8 = state_with([2, 1, 3], [0.9, 0.4, 1.2], iteration=6)
    before = (st8.pulls.copy(), st8.response_sums.copy(), st8.suboptimal_pulls.copy())
    cases = [
        (np.ones((2, 4)), "plain", None),  # r = 4 > n
        (np.ones((2, 0)), "plain", None),  # r = 0
        (np.ones(3), "plain", None),  # 1-D
        (np.ones((2, 2, 1)), "plain", None),  # 3-D
        (np.ones((2, 2)), "Plain", None),  # not a radius variant
        (np.ones((2, 2)), "plain", np.empty((2, 3), dtype=np.int32)),  # arms wider than the draws
        (np.ones((2, 2)), "plain", np.empty((3, 2), dtype=np.int32)),  # arms longer than the draws
        (np.ones((2, 2)), "plain", [[0, 1], [0, 1]]),  # arms not an array
    ]
    for draws, variant, arms in cases:
        kept = draws.copy()
        with pytest.raises(ValueError):
            select_superarm_cmab(st8, variant, pool, draws, np.empty(draws.shape, np.int32) if arms is None else arms)
        assert draws.tobytes() == kept.tobytes()
        for got, want in zip((st8.pulls, st8.response_sums, st8.suboptimal_pulls), before):
            assert got.tobytes() == want.tobytes()
        assert st8.current_iteration == 6


# ---------------------------------------------------------------- outcomes


def test_record_outcome_optimal_leaves_counters():
    pool = WorkerPool([4.0, 2.0, 1.0])
    st8 = BanditState.zeros(3)
    record_outcome(st8, [0, 1], [0.3, 0.6], pool)
    assert st8.suboptimal_pulls.sum() == 0
    np.testing.assert_array_equal(st8.pulls, [1, 1, 0])
    np.testing.assert_allclose(st8.response_sums, [0.3, 0.6, 0.0])
    assert st8.current_iteration == 1


def test_record_outcome_suboptimal_increments_least_pulled():
    pool = WorkerPool([4.0, 2.0, 1.0])  # optimal pair is {0, 1}
    st8 = state_with([3, 2, 2], [0.9, 1.0, 2.0], iteration=7)
    record_outcome(st8, [0, 2], [0.2, 1.1], pool)
    np.testing.assert_array_equal(st8.suboptimal_pulls, [0, 0, 1])  # worker 2 least pulled among {0, 2}
    st9 = state_with([2, 2, 2], [0.9, 1.0, 2.0], iteration=7)
    record_outcome(st9, [0, 2], [0.2, 1.1], pool)
    np.testing.assert_array_equal(st9.suboptimal_pulls, [1, 0, 0])  # tie broken by lowest index


def test_record_outcome_faults():
    pool = WorkerPool([1.0, 2.0])
    st8 = BanditState.zeros(2)
    with pytest.raises(ValueError):
        record_outcome(st8, [0, 1], [0.5], pool)


def test_record_outcome_rejects_a_pool_of_another_size():
    # as select_superarm_cmab does, and before any counter moves
    st8 = BanditState.zeros(5)
    with pytest.raises(ValueError, match="pool has 3 workers, state has 5"):
        record_outcome(st8, [0, 1], np.ones((2, 2)), WorkerPool([1.0, 2.0, 3.0]))
    assert not st8.pulls.any() and not st8.response_sums.any() and not st8.suboptimal_pulls.any()
    assert st8.current_iteration == 0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_bookkeeping_invariants_random_walk(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    pool = WorkerPool(rng.uniform(0.5, 5.0, n))
    st8 = BanditState.zeros(n)
    employments = 0
    for _ in range(39):
        r = int(rng.integers(1, n + 1))
        arm = np.sort(rng.choice(n, size=r, replace=False))
        record_outcome(st8, arm, rng.exponential(pool.means[arm]), pool)
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
        st8 = record_outcome(BanditState.zeros(n), arm, pool.means[arm], pool)
        assert st8.suboptimal_pulls.sum() == truth


@pytest.mark.parametrize("arm", [[0, 2, 5], [1, 3, 4], [4]])
def test_record_outcome_block_equals_single_calls(arm):
    pool = WorkerPool(1.0 / np.array([0.2, 0.7, 0.3, 0.9, 0.5, 0.4]))  # optimal triple {0, 2, 5}
    assert superarm_is_suboptimal(pool, arm) == (arm != [0, 2, 5])
    for seed in range(3):  # a pairwise sum matches the row-by-row one on some draws, not on all
        rng = np.random.default_rng(seed)
        pulls = rng.integers(1, 30, pool.n)
        sums = rng.uniform(0.1, 1.0, pool.n) * pulls
        block = rng.exponential(pool.means[arm], size=(500, len(arm)))
        single = state_with(pulls.copy(), sums.copy(), iteration=9)
        for row in block:
            record_outcome(single, arm, row, pool)
        batched = record_outcome(state_with(pulls.copy(), sums.copy(), iteration=9), arm, block, pool)
        np.testing.assert_array_equal(batched.pulls, single.pulls)
        assert batched.response_sums.tobytes() == single.response_sums.tobytes()
        np.testing.assert_array_equal(batched.suboptimal_pulls, single.suboptimal_pulls)
        assert batched.current_iteration == single.current_iteration == 509
        assert batched.suboptimal_pulls.sum() == (500 if arm != [0, 2, 5] else 0)


def test_record_outcome_block_shape_faults():
    pool = WorkerPool([1.0, 2.0, 4.0])
    for bad in (np.ones((4, 3)), np.ones((4, 2, 1)), np.ones((0, 2))):
        with pytest.raises(ValueError, match="do not fit"):
            record_outcome(BanditState.zeros(3), [0, 1], bad, pool)


# ---------------------------------------------------------------- k-sync draw


def ksync_trace(worker_means, schedule, seed):
    """An adaptive-ksync run of a latency-only config and the draws of its latency stream."""
    n, b = len(worker_means), schedule.count(",") + 1
    cfg = ExperimentConfig(n=n, b=b, schedule=schedule, worker_means=worker_means, simulate_sgd=False, seeds=(seed,))
    trace = run_single(cfg, "adaptive-ksync", seed)
    draws = stream_rng(seed, "worker-latency").exponential(worker_means, size=(len(trace), n))
    return trace, draws


def test_ksync_k_equals_n_waits_for_slowest():
    # rounds of 1, 2 and 3 workers; from iteration 3 on r = n
    trace, draws = ksync_trace((1.0, 0.5, 0.25), "1,2,40", seed=5)
    np.testing.assert_array_equal(trace.response_times[2:], draws[2:].max(axis=1))
    assert trace.response_times[0] == draws[0].min()
    assert trace.response_times[1] == np.sort(draws[1])[1]


def test_ksync_fastest_of_two_empirical_mean():
    trace, draws = ksync_trace((1.0, 1.0), "100000", seed=6)
    np.testing.assert_array_equal(trace.response_times, draws.min(axis=1))
    assert abs(trace.response_times.mean() - 0.5) < 0.01


# ---------------------------------------------------------------- scheduling


def unit_params(eta=0.1, initial_gap=1.0):
    return BoundParams(lipschitz=1.0, convexity=1.0, sigma2=1.0, initial_gap=initial_gap, s=1, eta=eta)


def test_schedule_first_round_closed_form():
    sched = compute_schedule(unit_params(), 1)
    assert sched.switching_points == (50,)


def test_schedule_huge_theta_single_iteration_rounds():
    # an initial gap already within THETA of every round's floor (0.05 / k) needs one iteration per round
    sched = compute_schedule(unit_params(initial_gap=0.01), 4)
    assert sched.switching_points == (1, 2, 3, 4)


def test_schedule_strictly_increasing_and_capped():
    assert compute_schedule(unit_params(), 3).switching_points == (50, 107, 168)
    assert compute_schedule(unit_params(eta=2e-5), 1).switching_points == (690769,)
    # a schedule longer than J_CAP fails, naming its horizon and the first round that ends past the cap
    for eta, b, horizon, late in ((1e-6, 3, 52225462, 1), (2e-5, 2, 1416195, 2)):
        message = f"computed schedule runs {horizon} iterations and round {late} ends past J_CAP={J_CAP}; "
        with pytest.raises(ValueError, match=re.escape(message + "use a larger eta or explicit switching points")):
            compute_schedule(unit_params(eta=eta), b)


def test_schedule_faults():
    with pytest.raises(ValueError):
        compute_schedule(unit_params(eta=1.0), 2)  # eta * c = 1, no decay
    with pytest.raises(ValueError, match="need b >= 1"):
        compute_schedule(unit_params(), 0)


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


def test_round_schedule_rejects_non_integer_points():
    # a float point is not truncated to the iteration before it
    for points, shown in (((1.5, 2.7), "(1.5, 2.7)"), (np.array([10.9, 20.2]), "[10.9 20.2]"), ((3, 4.0), "(3, 4.0)")):
        with pytest.raises(ValueError, match=re.escape(f"switching points must be integers, got {shown}")):
            RoundSchedule(points)
    # Python and numpy integers, as compute_schedule passes them, are kept as Python ints
    sched = RoundSchedule((np.int64(3), np.int32(5), 9))
    assert sched.switching_points == (3, 5, 9) and all(type(t) is int for t in sched.switching_points)
    assert RoundSchedule(np.array([10, 20])).switching_points == (10, 20)


def test_round_schedule_geometry_is_read_only_and_built_once():
    sched = RoundSchedule((2, 5, 6))
    assert sched.rounds.tobytes() == np.array([1, 1, 2, 2, 2, 3], dtype=np.int64).tobytes()
    assert sched.offsets.tobytes() == np.array([0, 1, 2, 4, 6, 8, 11], dtype=np.int64).tobytes()
    assert sched.rounds is sched.rounds and sched.offsets is sched.offsets
    for array in (sched.rounds, sched.offsets):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("width", [None, 64])
@pytest.mark.parametrize(
    "points",
    [(7,), (50, 107, 168), tuple(map(int, BLOCK_SEAMS["schedule"].split(",")))],
    ids=["one-round", "three-rounds", "block-seams"],
)
def test_blocks_tile_the_member_array_in_order(points, width):
    sched = RoundSchedule(points)
    flat = np.arange(sched.budget)
    blocks = list(sched.blocks(width, flat, -flat))
    # each round in runs of block_rows(width or r) rows, the last run of a round shorter
    expected, lo = [], 0
    for r, t in enumerate(points, start=1):
        step = block_rows(width or r)
        expected += [(start, min(start + step, t), r) for start in range(lo, t, step)]
        lo = t
    assert [(rows.start, rows.stop, view.shape[1]) for rows, view, _ in blocks] == expected
    assert all(view.shape[0] == rows.stop - rows.start for rows, view, _ in blocks)
    # the views tile the array in order, and are views, not copies: a run writes through them
    np.testing.assert_array_equal(np.concatenate([view.ravel() for _, view, _ in blocks]), flat)
    assert all(np.shares_memory(view, flat) for _, view, _ in blocks)
    assert all(np.array_equal(other, -view) for _, view, other in blocks)
    for wrong in (np.arange(sched.budget - 1), np.arange(sched.budget + 1), flat.reshape(1, -1)):
        for flats in ((wrong,), (flat, wrong)):
            with pytest.raises(ValueError, match=f"a per-member array holds {sched.budget} values"):
                next(sched.blocks(width, *flats))
