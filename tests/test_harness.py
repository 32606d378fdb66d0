"""Orchestration: configs, streams, traces, CSV schema, and comparisons."""

import ast
import csv
import dataclasses
import functools
import glob
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from banditsgd import analysis, harness, sgd
from banditsgd.harness import (
    TRACE_HEADER,
    ExperimentConfig,
    RunTrace,
    SeedSetup,
    build_pool,
    build_problem,
    error_at_employments,
    identify_fastest,
    resolve_schedule,
    run_comparison,
    run_single,
    stream_rng,
    write_trace_csv,
)
from banditsgd.latency import BLOCK_VALUES, block_rows
from banditsgd.policies import J_CAP, BanditState, RoundSchedule, compute_schedule, record_outcome
from banditsgd.sgd import sample_batches

from _garbage import cyclic_package_garbage
from _memory import traced_call
from _oracles import (
    apply_update,
    grid_draw_means,
    model_error,
    one_block_batches,
    partial_gradient,
    reference_comparison,
    reference_run_single,
    responses_at,
    superarm_at,
    write_table_by_cell,
)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
BENCHMARK_CFG = os.path.join(CONFIG_DIR, "benchmark.cfg")


def small_config(**kw):
    defaults = dict(
        n=6,
        b=3,
        m=24,
        d=3,
        eta=1e-4,
        seeds=(0, 1),
        policies=("cmab-plain", "optimal", "adaptive-ksync"),
        schedule="15,35,60",
        mean_step=0.05,
        distinct_means=True,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=3, b=4)
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(policies=("nope",))
    with pytest.raises(ValueError):
        ExperimentConfig(schedule="10,20")  # b = 20 switching points expected
    with pytest.raises(ValueError):
        ExperimentConfig(schedule="a,b", b=2, n=4)
    for bad in (
        dict(eta=0.0),
        dict(eta=-1e-4),
        dict(m=0),
        dict(d=0),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    with pytest.raises(ValueError, match="computed schedule mode needs the learning problem"):
        ExperimentConfig(schedule="computed", simulate_sgd=False)
    for bad_mean in (math.inf, math.nan, 0.0, -0.5):
        with pytest.raises(ValueError, match="worker_means must all be finite and > 0"):
            ExperimentConfig(n=3, b=2, schedule="5,10", worker_means=(0.5, bad_mean, 1.0))
    # two pins of one pool contradict each other: build_pool would ignore pool_seed
    with pytest.raises(ValueError, match="worker_means fixes the pool; pool_seed=4 would be ignored"):
        ExperimentConfig(n=3, b=2, schedule="5,10", worker_means=(0.5, 0.7, 1.0), pool_seed=4)
    for schedule in ("3,2,1", "0,1,2", "1,1,2"):
        with pytest.raises(ValueError, match=f"schedule '{schedule}': switching points must be strictly increasing"):
            ExperimentConfig(n=5, b=3, schedule=schedule)
    with pytest.raises(ValueError, match="seeds must all be >= 0"):
        ExperimentConfig(seeds=(0, -1))
    for key in ("pool_seed", "data_seed"):
        with pytest.raises(ValueError, match=f"{key} must be >= 0"):
            ExperimentConfig(**{key: -1})
    # an infinite step would only fail at the first iteration of a run
    with pytest.raises(ValueError, match="eta must be finite and > 0, got inf"):
        ExperimentConfig(eta=math.inf)
    for key, value in (("seeds", (0, 0)), ("policies", ("optimal", "optimal"))):
        with pytest.raises(ValueError, match=f"{key} must not repeat an entry"):
            ExperimentConfig(**{key: value})
    with pytest.raises(ValueError, match="mean_max < inf"):
        ExperimentConfig(mean_max=math.inf)
    for step in (math.inf, math.nan):
        with pytest.raises(ValueError, match="mean_step must be finite and > 0"):
            ExperimentConfig(mean_step=step)
    with pytest.raises(ValueError, match="mean_step=0.3 must divide mean_max - mean_min into whole steps"):
        ExperimentConfig(mean_step=0.3)
    # (0.8 - 0.2) / 0.05 is 12.000000000000002: a whole number within rounding, so the grid holds 13 values
    grid_of_13 = dict(mean_min=0.2, mean_max=0.8, mean_step=0.05, distinct_means=True, b=1, schedule="5")
    assert build_pool(ExperimentConfig(n=13, **grid_of_13), 0).n == 13
    with pytest.raises(ValueError, match="distinct means need a grid of at least n=14 values; got 13"):
        ExperimentConfig(n=14, **grid_of_13)
    # ends that round out of range, and grids past an int64 index, fail by the key at fault
    for bad, message in (
        (dict(mean_min=1e-13, mean_max=1e-13), r"mean_min=1e-13 rounds to 0.0 at 12 decimals; need > 0"),
        (dict(mean_min=5e-13, mean_max=5e-13), r"mean_min=5e-13 rounds to 0.0"),
        (dict(mean_max=1e300, mean_step=1e300), r"mean_max=1e\+300 rounds to inf at 12 decimals; need a finite value"),
        (dict(mean_max=1e290), r"mean_step=0.1 makes more than 2\*\*63 - 1 grid values"),
        (dict(mean_max=0.1 + 2.0**63 * 1e-6, mean_step=1e-6), r"mean_step=1e-06 makes more than 2\*\*63 - 1"),
        (dict(mean_max=1e300, mean_step=1e-300), r"mean_step=1e-300 makes more than 2\*\*63 - 1"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**bad)
    # a mean whose rate overflows fails before build_pool divides
    with pytest.raises(ValueError, match=r"worker_means must all be finite and > 0 with finite 1 / mean, got \(1e-320"):
        ExperimentConfig(n=2, b=1, schedule="5", worker_means=(1e-320, 0.5))


CONFIG_NAMES = sorted(os.path.basename(p) for p in glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_config_file_parses(name):
    # configs/ is the one place an experiment shape is written
    ExperimentConfig.from_file(os.path.join(CONFIG_DIR, name))


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_config_computed_schedule_fits_under_j_cap(name):
    # a computed schedule past J_CAP fails, so every shipped shape must stay under it
    cfg = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, name), schedule="computed")
    assert resolve_schedule(cfg, build_problem(cfg, 0)).horizon < J_CAP


def test_committed_configs_load():
    # the benchmark's config templates load on their own, before it appends the seed lines
    paths = glob.glob(os.path.join(CONFIG_DIR, os.pardir, "perfbench", "configs", "*.cfg"))
    assert len(paths) >= 4
    for path in paths:
        ExperimentConfig.from_file(path)


def _as_text(value) -> str:
    """A field value as a config file writes it."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return str(value)


def _same_typed(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_typed, a, b))
    return type(a) is type(b) and a == b


def test_config_fields_round_trip_through_text():
    every_other_field_set = dict(
        n=6,
        b=3,
        m=24,
        d=3,
        eta=2e-4,
        seeds=(3, 5),
        policies=("cmab-scaled", "optimal"),
        schedule="15,35,60",
        mean_min=0.2,
        mean_max=0.8,
        mean_step=0.05,
        distinct_means=True,
        data_seed=7,
        simulate_sgd=False,
        out_dir="results/x",
        write_traces=False,
    )
    # worker_means and pool_seed each pin the pool, so one config sets one of them
    listed = ExperimentConfig(**every_other_field_set, worker_means=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5))
    seeded = ExperimentConfig(**every_other_field_set, pool_seed=4)
    fields = dataclasses.fields(ExperimentConfig)
    assert all(getattr(listed, f.name) != f.default or f.name == "pool_seed" for f in fields)
    assert all(getattr(seeded, f.name) != f.default or f.name == "worker_means" for f in fields)
    # the defaults leave the optional fields at None
    for config in (listed, seeded, ExperimentConfig()):
        text = {f.name: _as_text(getattr(config, f.name)) for f in fields}
        parsed = ExperimentConfig.from_mapping(text)
        for f in fields:
            assert _same_typed(getattr(parsed, f.name), getattr(config, f.name)), f.name


@pytest.mark.parametrize(
    "key, value",
    [
        ("variant", "plain"),
        ("bound_tail_term", "pi2/3"),
        ("mc_lists", "2"),
        ("mc_samples", "100"),
        ("theta", "0.2"),
        ("j_cap", "500"),
    ],
)
def test_retired_knobs_are_unknown_config_keys(tmp_path, key, value):
    # each bandit policy names its radius variant, the bound has one tail constant,
    # verify's sizes are only its flags, and the computed schedule's proximity
    # factor and iteration cap are compute_schedule's constants
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        ExperimentConfig.from_mapping({key: value})
    path = tmp_path / "exp.cfg"
    path.write_text(f"n = 6\nb = 3\nschedule = 15,35,60\n{key} = {value}\n")
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        ExperimentConfig.from_file(str(path))


def test_config_distinct_grid_needs_enough_values():
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(n=50, b=5, distinct_means=True, schedule="1,2,3,4,5")
    # the grid is not used when the means are listed
    ExperimentConfig(n=50, b=5, distinct_means=True, schedule="1,2,3,4,5", worker_means=(0.5,) * 50)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
# comment
n = 6
b = 3
m = 24
d = 3
seeds = 0, 1
policies = cmab-plain, optimal
schedule = 15,35,60
distinct_means = true
mean_step = 0.05
pool_seed = 4
""".strip()
        + "\n"
    )
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.n == 6 and cfg.b == 3
    assert cfg.seeds == (0, 1)
    assert cfg.policies == ("cmab-plain", "optimal")
    assert cfg.switching_points() == (15, 35, 60)
    assert cfg.distinct_means is True
    assert cfg.pool_seed == 4
    # flag-style overrides win over file values
    cfg2 = ExperimentConfig.from_file(str(path), schedule="20,40,80")
    assert cfg2.switching_points() == (20, 40, 80)


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        ExperimentConfig.from_file(str(path))


def test_benchmark_cfg_shape():
    cfg = ExperimentConfig.from_file(BENCHMARK_CFG)
    assert cfg.n == 50 and cfg.b == 20
    points = cfg.switching_points()
    assert len(points) == 20 and points[-1] == 28_000
    assert cfg.distinct_means
    sched = RoundSchedule(points)
    assert sched.budget == sum(r * 1000 for r in range(1, 20)) + 20 * 9000


# ---------------------------------------------------------------- streams / pools


def test_streams_are_independent():
    a = stream_rng(3, "data-generation").random(5)
    # heavy consumption of another stream must not shift this one
    lat = stream_rng(3, "worker-latency")
    lat.random(10_000)
    b = stream_rng(3, "data-generation").random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, stream_rng(3, "batch-sampling").random(5))
    assert not np.array_equal(a, stream_rng(4, "data-generation").random(5))


def test_build_pool_distinct_means():
    cfg = small_config()
    pool = build_pool(cfg, 0)
    means = pool.means
    assert np.unique(np.round(means, 9)).size == cfg.n
    assert means.min() >= cfg.mean_min - 1e-12 and means.max() <= cfg.mean_max + 1e-12
    assert pool.theorem_valid
    assert not cfg.pool_is_pinned
    # pinned pool ignores the run seed
    cfg2 = small_config(pool_seed=11)
    assert cfg2.pool_is_pinned
    np.testing.assert_array_equal(build_pool(cfg2, 0).rates, build_pool(cfg2, 5).rates)


GRID_SHAPES = [(0.1, 0.9, 0.1), (0.2, 0.8, 0.05), (0.5, 0.5, 0.1), (0.05, 1.0, 0.01), (1.0, 10.0, 0.25),
               (3e-12, 9e-12, 1e-12), (1e3, 1e6, 1e3), (0.1, 0.9, 1e-5)]


@pytest.mark.parametrize("low, high, step", GRID_SHAPES)
def test_build_pool_draws_the_grid_by_index(low, high, step):
    # indices drawn from the grid's size, mapped to values, give the whole grid's draw bit for bit
    for n in (1, 5, 50):
        for distinct in (False, True):
            try:
                cfg = ExperimentConfig(n=n, b=1, schedule="5", simulate_sgd=False, mean_min=low, mean_max=high,
                                       mean_step=step, distinct_means=distinct)
            except ValueError as exc:
                assert distinct and "distinct means need a grid" in str(exc)
                continue
            for seed in range(8):
                want = 1.0 / grid_draw_means(cfg, stream_rng(seed, "mean-assignment"))
                assert build_pool(cfg, seed).rates.tobytes() == want.tobytes(), (n, distinct, seed)


def test_build_pool_memory_follows_n_not_the_grid():
    # 800 001 grid values at this step: building them once took 12.8 MB. The index draw traces about
    # 9.2 KB at every step from 1e-2 to 5e-13; the bound leaves a 3.5x margin over that.
    cfg = ExperimentConfig(n=50, b=1, schedule="5", simulate_sgd=False, mean_step=1e-6, distinct_means=True)
    pool, peak, _ = traced_call(lambda: build_pool(cfg, 3))
    assert pool.n == 50
    assert peak <= 32 * 1024, f"build_pool traced {peak} B at mean_step=1e-6"


def test_pool_and_data_reuse_across_policies():
    cfg = small_config()
    t1 = run_single(cfg, "cmab-plain", 1)
    t2 = run_single(cfg, "adaptive-ksync", 1)
    np.testing.assert_array_equal(t1.pool.rates, t2.pool.rates)
    # same batch stream, same data: identical error trajectories
    np.testing.assert_array_equal(t1.model_errors, t2.model_errors)


# ---------------------------------------------------------------- traces


def test_trace_structure_and_bookkeeping():
    cfg = small_config()
    sched = RoundSchedule(cfg.switching_points())
    for policy in cfg.policies:
        trace = run_single(cfg, policy, 0)
        assert len(trace) == sched.horizon
        np.testing.assert_array_equal(trace.schedule.rounds, sched.rounds_of(np.arange(1, sched.horizon + 1)))
        np.testing.assert_allclose(trace.cum_times, np.cumsum(trace.response_times))
        np.testing.assert_array_equal(trace.cum_employments, np.cumsum(trace.employments))
        if policy == "adaptive-ksync":
            assert np.all(trace.employments == cfg.n)
            assert np.all(trace.pulls == sched.horizon)
        else:
            np.testing.assert_array_equal(trace.employments, trace.schedule.rounds)
            assert trace.pulls.sum() == sched.budget
        for j in (1, sched.horizon // 2, sched.horizon):
            arm = superarm_at(trace, j)
            assert arm.size == trace.schedule.rounds[j - 1]  # k-sync stores the k used workers
            assert np.all(np.diff(arm) > 0)
            assert responses_at(trace, j).size == arm.size
            if policy != "adaptive-ksync":
                assert trace.response_times[j - 1] == pytest.approx(responses_at(trace, j).max())


# the trace's array fields: what its policy chose and observed
TRACE_ARRAYS = tuple(f.name for f in dataclasses.fields(RunTrace) if f.type == "np.ndarray")


def _block_seam_points(n):
    """Switching points for n = b workers that put rounds across the draw blocks of ``run_single``.

    Rounds 1 .. n-3 take one iteration each. Round n-2 is one k-sync block
    long (``block_rows(n)`` rows of n draws), round n-1 one omniscient block
    (``block_rows(n - 1)`` rows of r = n-1) and several k-sync blocks, and
    round n one block plus one row for both (r = n).
    """
    lengths = [1] * (n - 3) + [block_rows(n), block_rows(n - 1), block_rows(n) + 1]
    return ",".join(map(str, np.cumsum(lengths)))


BLOCK_SEAMS = dict(n=64, b=64, schedule=_block_seam_points(64), mean_step=0.01)


@pytest.mark.parametrize(
    "shape",
    [
        dict(n=10, b=5, schedule="30,70,120,180,250", mean_step=0.01),
        dict(n=50, b=20, schedule=",".join(str(6 * r) for r in range(1, 20)) + ",150", mean_step=0.01),
        dict(n=6, b=3, schedule="1,2,5", mean_step=0.05),
        dict(n=5, b=5, schedule="4,9,15,22,40", mean_step=0.05),
        # tied sorted means: the tolerance side of the suboptimality test
        dict(n=12, b=4, schedule="20,50,90,140", mean_step=0.1, distinct_means=False),
        dict(n=9, b=9, schedule="1,2,3,4,5,6,7,8,9", mean_step=0.1, distinct_means=False),
        dict(n=1, b=1, schedule="40", mean_step=0.1),
        BLOCK_SEAMS,
    ],
    ids=[
        "n10-b5",
        "n50-b20",
        "one-iteration-round",
        "b-equals-n",
        "repeated-means",
        "coarse-b-equals-n",
        "n1",
        "block-seams",
    ],
)
@pytest.mark.parametrize("policy", ["cmab-plain", "cmab-scaled", "optimal", "adaptive-ksync"])
def test_run_single_matches_per_iteration_reference(shape, policy):
    assert TRACE_ARRAYS == ("response_times", "model_errors", "members", "pulls", "suboptimal_pulls")
    cfg = ExperimentConfig(**{"distinct_means": True, **shape}, simulate_sgd=False)
    for seed in (0, 5):
        trace, (reference, derived) = run_single(cfg, policy, seed), reference_run_single(cfg, policy, seed)
        assert trace.pool.rates.tobytes() == reference.pool.rates.tobytes()
        # the fields against the reference's, and what the trace reads from its schedule or replays
        # from its seed against the reference's own per-iteration construction
        pairs = [(getattr(trace, name), getattr(reference, name), name) for name in TRACE_ARRAYS]
        pairs += [(trace.schedule.rounds if name == "rounds" else getattr(trace, name), want, name)
                  for name, want in derived.items()]
        assert len(pairs) == 9
        for got, want, name in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def test_ksync_time_is_kth_smallest_of_full_vector():
    cfg = small_config()
    trace = run_single(cfg, "adaptive-ksync", 3)
    lat = stream_rng(3, "worker-latency")
    pool = build_pool(cfg, 3)
    for j in range(1, len(trace) + 1):
        draws = lat.exponential(pool.means)
        r = trace.schedule.rounds[j - 1]
        assert trace.response_times[j - 1] == pytest.approx(np.partition(draws, r - 1)[r - 1])
        np.testing.assert_array_equal(superarm_at(trace, j), np.sort(np.argsort(draws, kind="stable")[:r]))


def test_cmab_member_responses_accumulate_into_sums():
    # the trace is the record: booking its members and responses one iteration
    # at a time gives the run's counters, with each worker's responses summed
    cfg = small_config()
    trace = run_single(cfg, "cmab-plain", 2)
    state = BanditState.zeros(cfg.n)
    sums = np.zeros(cfg.n)
    for j in range(1, len(trace) + 1):
        arm, resp = superarm_at(trace, j), responses_at(trace, j)
        record_outcome(state, arm, resp, trace.pool)
        sums[arm] += resp
    np.testing.assert_allclose(sums, state.response_sums)
    np.testing.assert_array_equal(state.pulls, trace.pulls)
    np.testing.assert_array_equal(state.suboptimal_pulls, trace.suboptimal_pulls)


def test_bandit_only_mode():
    cfg = small_config(simulate_sgd=False)
    trace = run_single(cfg, "cmab-plain", 0)
    assert np.isnan(trace.model_errors).all()
    with pytest.raises(ValueError, match="computed schedule"):
        run_single(small_config(simulate_sgd=False, schedule="computed"), "cmab-plain", 0)


def test_trace_shares_the_setups_read_only_arrays():
    cfg = small_config(simulate_sgd=False)
    setup = SeedSetup.build(cfg, 0)
    schedule = setup.schedule
    rounds, offsets = schedule.rounds, schedule.offsets
    assert not rounds.flags.writeable and not offsets.flags.writeable
    for policy in cfg.policies:
        trace = run_single(cfg, policy, 0, setup)
        # built once: every policy's trace reads the same two objects
        assert trace.schedule.rounds is rounds and trace.schedule.offsets is offsets, policy
        assert trace.member_offsets is offsets, policy
        assert not trace.employments.flags.writeable, policy
        assert not trace.model_errors.flags.writeable, policy
        if policy != "adaptive-ksync":
            assert np.shares_memory(trace.employments, rounds), policy
    assert setup.model_errors.dtype == np.float64 and setup.model_errors.shape == rounds.shape


def test_suboptimal_flags_sum_to_the_suboptimal_count():
    policies = ("cmab-plain", "cmab-scaled", "optimal", "adaptive-ksync")
    shapes = [dict(), dict(n=12, b=4, schedule="20,50,90,140", mean_step=0.1, distinct_means=False)]
    for shape in shapes:
        cfg = small_config(simulate_sgd=False, policies=policies, **shape)
        charged = 0
        for policy in cfg.policies:
            for seed in (0, 1, 2):
                trace = run_single(cfg, policy, seed)
                flags = trace.suboptimal_flags
                assert flags.dtype == bool and flags.shape == (len(trace),)
                if policy == "adaptive-ksync":
                    # by design: k-sync books all n workers and charges nothing,
                    # while its flags judge the r workers it used
                    assert trace.suboptimal_count == 0
                    continue
                assert int(flags.sum()) == trace.suboptimal_count, (policy, seed)
                charged += trace.suboptimal_count
                if policy == "optimal":
                    assert not flags.any()
        assert charged > 0


def test_final_round_counts_at_one_round_count_every_member():
    # with one round the final round is the whole run, so the counts are the pulls
    cfg = small_config(b=1, schedule="40", simulate_sgd=False, policies=("cmab-plain", "cmab-scaled", "optimal"))
    for policy in cfg.policies:
        trace = run_single(cfg, policy, 0)
        np.testing.assert_array_equal(trace.final_round_counts(), trace.pulls)
        assert trace.final_round_counts().sum() == 40


def test_compare_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 1 MiB of resident memory; np.intersect1d and np.unique import it
    quick = os.path.join(CONFIG_DIR, "quick.cfg")
    script = (
        "import sys\n"
        "from banditsgd.cli import main\n"
        f"assert main(['compare', '--config', {quick!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(CONFIG_DIR), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False", "compare imported numpy.ma"


def test_computed_schedule_end_to_end():
    cfg = small_config(schedule="computed", m=60, d=3, b=3, n=6, eta=1e-3)
    trace = run_single(cfg, "optimal", 0)
    expected = compute_schedule(sgd.estimate_bound_params(build_problem(cfg, 0)), cfg.b)
    assert trace.schedule == expected
    assert trace.schedule.b == 3
    assert trace.schedule.horizon < J_CAP
    # a step this small needs more than J_CAP iterations, so the schedule fails when it is resolved
    slow = small_config(schedule="computed", m=60, d=3, b=3, n=6, eta=1e-6)
    with pytest.raises(ValueError, match=f"runs 6398571 iterations and round 1 ends past J_CAP={J_CAP}"):
        resolve_schedule(slow, build_problem(slow, 0))


# ---------------------------------------------------------------- CSV


def test_trace_csv_schema_and_determinism(tmp_path):
    cfg = small_config()
    trace = run_single(cfg, "cmab-plain", 0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(trace, str(p1))
    write_trace_csv(run_single(cfg, "cmab-plain", 0), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + trace.schedule.horizon
    with open(p1, newline="") as fh:
        rows = list(csv.DictReader(fh))
    first = rows[0]
    assert first["iter"] == "1" and first["policy"] == "cmab-plain" and first["seed"] == "0"
    assert first["superarm"] == "0"  # round 1, all arms unpulled, lowest index
    assert int(rows[-1]["cum_employments"]) == trace.schedule.budget
    got = [int(tok) for tok in rows[20]["superarm"].split("|")]
    np.testing.assert_array_equal(got, superarm_at(trace, 21))
    assert float(rows[-1]["model_error"]) == pytest.approx(trace.model_errors[-1])


# ---------------------------------------------------------------- comparison


def test_identify_fastest_omniscient_is_exact():
    cfg = small_config(seeds=(0, 1, 2))
    traces = [run_single(cfg, "optimal", s) for s in cfg.seeds]
    report = identify_fastest(traces)
    assert report.mean_accuracy == 1.0
    assert report.exact_matches == len(traces)


def test_error_at_employments():
    cfg = small_config()
    sched = RoundSchedule(cfg.switching_points())
    cmab = run_single(cfg, "cmab-plain", 0)
    ksync = run_single(cfg, "adaptive-ksync", 0)
    budget = sched.budget
    assert error_at_employments(cmab, budget) == cmab.model_errors[-1]
    idx = math.ceil(budget / cfg.n)
    assert error_at_employments(ksync, budget) == ksync.model_errors[idx - 1]
    with pytest.raises(ValueError):
        error_at_employments(cmab, budget + 1)


def test_run_comparison_tables(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "out"), pool_seed=5, seeds=(0, 1))
    result = run_comparison(cfg)
    assert set(result) == {"error_curves", "employment_profiles", "regret", "summary"}
    assert set(result["error_curves"]) == set(cfg.policies)
    curves = result["error_curves"]["cmab-plain"]
    assert curves["iter"].size == 60
    # omniscient policy employs only the fastest workers
    profile = result["employment_profiles"]["optimal"]
    assert np.all(profile[: cfg.b] > 0) and np.all(profile[cfg.b :] == 0)
    regret = result["regret"]["cmab-plain"]
    assert regret["mean_regret"].shape == (60,)  # seed average of per-run regret curves
    assert "bound_tighter" in regret  # pinned, theorem-valid pool
    assert np.all(regret["bound_tighter"] <= regret["bound_log_iter"] + 1e-12)
    out = tmp_path / "out"
    assert (out / "summary.json").exists()
    assert all((out / f"trace_{p}_{s}.csv").exists() for p in cfg.policies for s in cfg.seeds)
    assert (out / "error_curve_adaptive-ksync.csv").exists()
    assert (out / "regret_cmab-plain.csv").exists()
    assert (out / "employments_optimal.csv").exists()


def test_column_writer_matches_per_cell_writer(tmp_path, monkeypatch):
    # every table and trace of a comparison, and a trace of several write
    # blocks and one row, written a block of rows at a time and by the
    # per-value oracle
    cfg = small_config(out_dir=str(tmp_path / "columns"), pool_seed=5, seeds=(0, 1))
    run_comparison(cfg)
    rows = 3 * block_rows(len(TRACE_HEADER.split(","))) + 1
    long_trace = run_single(small_config(schedule=f"{rows // 3},{2 * rows // 3},{rows}"), "cmab-plain", 0)
    write_trace_csv(long_trace, str(tmp_path / "columns" / "long.csv"))
    monkeypatch.setattr(harness, "_write_table", write_table_by_cell)
    run_comparison(dataclasses.replace(cfg, out_dir=str(tmp_path / "cells")))
    write_trace_csv(long_trace, str(tmp_path / "cells" / "long.csv"))
    names = sorted(os.listdir(tmp_path / "columns"))
    assert names == sorted(os.listdir(tmp_path / "cells"))
    tables = [name for name in names if name.endswith(".csv")]  # summary.json names its own out_dir
    assert len(tables) == 6 + 3 + 2 + 1 + 1  # traces, curves, profiles, regret, long
    for name in tables:
        assert (tmp_path / "columns" / name).read_bytes() == (tmp_path / "cells" / name).read_bytes(), name


@pytest.fixture(scope="module")
def paper_scale_setup():
    """The benchmark's latency-only shape, seed 0: 28 000 iterations, a final round of 9 000."""
    config = ExperimentConfig.from_file(BENCHMARK_CFG, simulate_sgd=False, pool_seed=0)
    return config, SeedSetup.build(config, 0)


@pytest.mark.parametrize("policy", ["optimal", "adaptive-ksync"])
def test_feedback_free_rounds_hold_one_block_of_draws(paper_scale_setup, policy):
    # beyond the trace it returns, a run holds a block of draws and, for the
    # omniscient policy, record_outcome's stacked copies of it; drawing a
    # (9000, n) round at once would hold 20 (omniscient) and 80 (k-sync) blocks
    config, setup = paper_scale_setup
    assert setup.schedule.round_lengths()[-1] == 9000
    _, peak, held = traced_call(functools.partial(run_single, config, policy, 0, setup))
    assert peak - held <= 4 * BLOCK_VALUES * 8, f"{policy} traced {(peak - held) / 2**20:.2f} MiB over its trace"


def test_bandit_round_writes_the_trace_in_place(paper_scale_setup):
    # the bandit writes each round's members into the trace and keeps no
    # per-member response; beyond the trace, the run holds one block of draws
    # and the suboptimality test's one block of member levels (a byte each
    # here, where one block of float64 member means would take 8). So it is
    # bound by one block of draws plus one block of float64 member means,
    # 2 * BLOCK_VALUES * 8 bytes, with no margin: it traces 0.89 of that.
    # A run that kept the (370 000,) member responses traced 4.67 MiB in all,
    # and float64 member means indexed by the int32 members 0.34 MiB over
    # the trace
    config, setup = paper_scale_setup
    _, peak, held = traced_call(functools.partial(run_single, config, "cmab-plain", 0, setup))
    assert peak - held <= 2 * BLOCK_VALUES * 8, f"cmab-plain traced {(peak - held) / 2**20:.3f} MiB over its trace"
    assert peak <= 2.25 * 2**20, f"cmab-plain traced {peak / 2**20:.2f} MiB"


def test_bandit_working_set_follows_the_block_not_the_round(paper_scale_setup):
    # a final round three times as long holds the same blocks beyond its trace
    config, setup = paper_scale_setup
    points = setup.schedule.switching_points
    longer = dataclasses.replace(config, schedule=",".join(map(str, (*points[:-1], points[-1] + 18_000))))
    run_single(config, "cmab-plain", 0, setup)  # one warm-up for both traced runs
    overs = []
    for cfg, stp in ((config, setup), (longer, SeedSetup.build(longer, 0))):
        assert stp.schedule.round_lengths()[-1] in (9000, 27_000)
        _, peak, held = traced_call(functools.partial(run_single, cfg, "cmab-plain", 0, stp), warm_up=lambda: None)
        overs.append(peak - held)
    assert abs(overs[1] - overs[0]) <= 0.05 * overs[0], f"over-trace peaks {overs} differ by more than 5%"


@pytest.mark.parametrize("policy", ["cmab-plain", "cmab-scaled", "optimal", "adaptive-ksync"])
def test_replayed_responses_give_the_response_times(policy):
    # member_responses is redrawn on every read: the same bytes each time,
    # and each iteration's slowest member is the trace's response time
    trace = run_single(ExperimentConfig(**BLOCK_SEAMS, distinct_means=True, simulate_sgd=False), policy, 3)
    first, second = trace.member_responses, trace.member_responses
    assert first is not second and first.tobytes() == second.tobytes()
    assert not first.flags.writeable
    slowest = np.maximum.reduceat(first, trace.member_offsets[:-1])
    assert slowest.tobytes() == trace.response_times.tobytes()


def test_trace_writer_holds_one_block_of_text(paper_scale_setup, tmp_path):
    # one block of 2^14 cells as Python strings, in their rows and in the
    # block's joined text: about 110 bytes a cell. All 28 000 rows at once
    # would come to 29 MiB
    config, setup = paper_scale_setup
    trace = run_single(config, "adaptive-ksync", 0, setup)
    path = str(tmp_path / "trace.csv")
    _, peak, _ = traced_call(lambda: write_trace_csv(trace, path))
    assert len(trace) == 28_000
    assert peak <= 192 * BLOCK_VALUES, f"writing the trace traced {peak / 2**20:.2f} MiB"


def test_hot_paths_leave_no_package_cycles(tmp_path):
    # a cycle through the package would keep its arrays until the cyclic
    # collector runs; every hot path must free what it made when it returns
    config = ExperimentConfig.from_file(BENCHMARK_CFG, simulate_sgd=False, pool_seed=0)
    pool, schedule = build_pool(config, 0), resolve_schedule(config)
    comparison = ExperimentConfig(
        n=16,
        b=16,
        seeds=(0, 1),
        schedule=",".join(str(5 * r) for r in range(1, 17)),
        mean_step=0.01,
        distinct_means=True,
        pool_seed=3,
        simulate_sgd=False,
        out_dir=str(tmp_path / "out"),
    )
    paths = {
        "compute_gaps": lambda: analysis.compute_gaps(pool, schedule),
        "regret_bound_curve": lambda: analysis.regret_bound_curve(pool, schedule, np.arange(1, 101)),
        **{f"run_single {p}": functools.partial(run_single, config, p, 0) for p in config.policies},
        "run_comparison": lambda: run_comparison(comparison),  # gaps at r = 15, 16 reach the leaf tree
    }
    for name, path in paths.items():
        with cyclic_package_garbage() as left:
            path()
        assert not left, f"{name} left package objects to the cyclic collector: {left}"


# the package's modules, lowest first; a module imports only from the levels below its own
IMPORT_ORDER = (("latency",), ("sgd",), ("policies",), ("analysis",), ("verify", "harness"), ("cli",))


def test_package_imports_run_down_one_order():
    # every relative import sits at module level and names a module strictly
    # below its own, so a rule shared by two modules cannot be split between them
    rank = {name: level for level, names in enumerate(IMPORT_ORDER) for name in names}
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(CONFIG_DIR), "src", "banditsgd", "*.py"))):
        module = os.path.basename(path)[: -len(".py")]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node not in tree.body:
                found.append(f"{module}:{node.lineno} imports inside a function")
            for target in [node.module] if node.module else [alias.name for alias in node.names]:
                if rank.get(target, math.inf) >= rank.get(module, -1):
                    found.append(f"{module}:{node.lineno} imports {target}, which is not below it")
    assert not found, found


def test_pinned_comparison_takes_reference_means_from_one_gap_report(monkeypatch):
    cfg = small_config(pool_seed=5, seeds=(0, 1, 2), policies=("cmab-plain", "cmab-scaled", "optimal"))
    pool = build_pool(cfg, 0)
    schedule = RoundSchedule(cfg.switching_points())
    reference = analysis.round_reference_means(pool, schedule)

    def no_reference(*args, **kwargs):
        raise AssertionError("round_reference_means called on a pinned pool")

    monkeypatch.setattr(analysis, "round_reference_means", no_reference)
    result = run_comparison(cfg)
    bound = analysis.regret_bound_table(pool, schedule, np.arange(1, schedule.horizon + 1))
    for policy in ("cmab-plain", "cmab-scaled"):
        runs = [run_single(cfg, policy, seed) for seed in cfg.seeds]
        expected = np.mean([analysis.empirical_regret(t, pool, schedule, reference) for t in runs], axis=0)
        assert np.array_equal(result["regret"][policy]["mean_regret"], expected)
        for column, values in bound.items():
            assert np.array_equal(result["regret"][policy][column], values)


def test_run_comparison_shares_one_trajectory_per_seed(monkeypatch):
    cfg = small_config(seeds=(0, 1))
    calls = []
    errors = {}  # (policy, seed) -> the model_errors of the run's trace
    original, original_run = sgd.sample_batches, harness.run_single

    def counting(problem, count, rng):
        calls.append(count)
        return original(problem, count, rng)

    def recording(config, policy, seed, setup=None):
        trace = original_run(config, policy, seed, setup)
        errors[policy, seed] = trace.model_errors
        return trace

    monkeypatch.setattr(sgd, "sample_batches", counting)
    monkeypatch.setattr(harness, "run_single", recording)
    run_comparison(cfg)
    horizon = RoundSchedule(cfg.switching_points()).horizon
    assert len(calls) == horizon * len(cfg.seeds)
    monkeypatch.undo()
    assert set(errors) == {(p, s) for p in cfg.policies for s in cfg.seeds}
    for (policy, seed), model_errors in errors.items():
        assert np.array_equal(model_errors, run_single(cfg, policy, seed).model_errors)
        assert not model_errors.flags.writeable
        assert model_errors is errors[cfg.policies[0], seed]
    with pytest.raises(ValueError, match="seed 0"):
        run_single(cfg, "optimal", 1, SeedSetup.build(cfg, 0))


@pytest.mark.parametrize(
    "shape",
    [
        dict(pool_seed=5, seeds=(2, 0, 1), policies=("cmab-scaled", "optimal", "cmab-plain", "adaptive-ksync")),
        dict(seeds=(0, 1, 2)),
        dict(b=1, schedule="1", pool_seed=4, seeds=tuple(range(9)), policies=harness.POLICY_NAMES),
    ],
    ids=["pinned", "unpinned", "horizon-1"],
)
def test_comparison_pass_matches_separately_held_traces(shape, tmp_path):
    # each policy's tables and summary entry from its one pass equal those
    # built from every run's trace held at once; at horizon 1 with 9 seeds a
    # running sum would differ from np.mean in the last bit
    cfg = small_config(out_dir=str(tmp_path), **shape)
    result = run_comparison(cfg)
    tables, summary = reference_comparison(cfg)
    for kind, expected in tables.items():
        assert list(result[kind]) == list(expected), kind
        for policy, table in expected.items():
            got = result[kind][policy]
            if isinstance(table, dict):
                assert list(got) == list(table), (kind, policy)
                for column, values in table.items():
                    assert got[column].dtype == values.dtype and np.array_equal(got[column], values), (kind, column)
            else:
                assert got.dtype == table.dtype and np.array_equal(got, table), (kind, policy)
    assert result["summary"] == summary
    assert (tmp_path / "summary.json").read_text() == json.dumps(summary, indent=2, sort_keys=True)


def test_comparison_frees_each_policy_before_the_next_runs(monkeypatch, tmp_path):
    # at every run_single call, no trace of an earlier policy is alive, and no
    # trace outlives the comparison
    cfg = small_config(out_dir=str(tmp_path), pool_seed=5, seeds=(0, 1, 2))
    refs = []  # (policy, weak reference to a returned trace)
    original = harness.run_single

    def watched(config, policy, seed, setup=None):
        alive = [p for p, ref in refs if p != policy and ref() is not None]
        assert not alive, f"{policy} seed {seed} started with traces of {alive} alive"
        trace = original(config, policy, seed, setup)
        refs.append((policy, weakref.ref(trace)))
        return trace

    monkeypatch.setattr(harness, "run_single", watched)
    run_comparison(cfg)
    assert len(refs) == len(cfg.policies) * len(cfg.seeds)
    assert all(ref() is None for _, ref in refs)


def test_diverging_comparison_writes_nothing(tmp_path):
    # seed 1 converges and seed 0 diverges at this step size; the comparison
    # stops on seed 0 before any output is written
    out = tmp_path / "out"
    cfg = ExperimentConfig(n=10, b=3, m=200, d=100, eta=1.4e-3, seeds=(1, 0), schedule="100,200,300", out_dir=str(out))
    with pytest.raises(ValueError, match=r"at iteration \d+"):
        run_comparison(cfg)
    assert not out.exists()


def test_computed_schedules_must_agree_before_any_run(monkeypatch):
    def no_sgd(*args, **kwargs):
        raise RuntimeError("a run started")

    monkeypatch.setattr(sgd, "sample_batches", no_sgd)
    cfg = small_config(schedule="computed", eta=1e-3, seeds=(0, 1))
    with pytest.raises(ValueError, match="computed schedules differ across seeds"):
        run_comparison(cfg)


def test_enumeration_cap_is_checked_before_any_run(monkeypatch):
    def no_setup(*args, **kwargs):
        raise RuntimeError("a seed was set up")

    monkeypatch.setattr(SeedSetup, "build", no_setup)
    schedule = ",".join(str(10 * r) for r in range(1, 27))
    cfg = small_config(n=26, b=26, schedule=schedule, distinct_means=False, seeds=(0, 1))
    with pytest.raises(ValueError, match="b=26 with a bandit policy; subset enumeration is capped at 25"):
        run_comparison(cfg)
    # the analysis that needs the cap runs only for bandit policies
    with pytest.raises(RuntimeError, match="a seed was set up"):
        run_comparison(dataclasses.replace(cfg, policies=("optimal", "adaptive-ksync")))


def test_run_comparison_needs_two_policies():
    with pytest.raises(ValueError):
        run_comparison(small_config(policies=("optimal",)))


def test_setup_releases_its_dataset_once_the_trajectory_is_computed(monkeypatch):
    # r reaches 3, past block_rows(8001) = 2, so the trajectory's batches cross block seams
    cfg = small_config(m=8000, seeds=(0,))
    setup = SeedSetup.build(cfg, 0)
    problem = weakref.ref(setup.problem)
    errors = setup.model_errors
    assert problem() is None and setup.problem is None
    assert setup.model_errors is errors
    # the trajectory as computed on a held dataset, every iteration's keys drawn at once
    monkeypatch.setattr(sgd, "sample_batches", one_block_batches)
    expected = sgd.run_trajectory(build_problem(cfg, 0), setup.schedule.rounds, stream_rng(0, "batch-sampling"))
    assert errors.dtype == expected.dtype and errors.tobytes() == expected.tobytes()


def test_released_dataset_is_not_read_as_latency_only():
    # a dropped trajectory cannot be recomputed once the dataset is released; it must not read as NaN
    setup = SeedSetup.build(small_config(seeds=(0,)), 0)
    assert np.isfinite(setup.model_errors).all()
    del setup.model_errors
    with pytest.raises(ValueError, match="seed 0 holds no dataset"):
        setup.model_errors
    # a latency-only setup holds its read-only NaN errors from the moment it is built
    latency_only = SeedSetup.build(small_config(simulate_sgd=False, seeds=(0,)), 0)
    errors = vars(latency_only)["model_errors"]
    assert errors.shape == (latency_only.schedule.horizon,) and np.isnan(errors).all()
    assert not errors.flags.writeable and latency_only.model_errors is errors


def test_problem_generation_uses_data_seed():
    cfg = small_config(data_seed=9)
    p1 = build_problem(cfg, 0)
    p2 = build_problem(cfg, 1)
    np.testing.assert_array_equal(p1.X, p2.X)


def test_fused_step_matches_unfused_replay():
    # m = 61 is padded to 63 rows so that b = 3 divides it
    cfg = small_config(m=61, d=8, eta=1e-3, seeds=(4,))
    trace = run_single(cfg, "cmab-plain", 4)
    problem = build_problem(cfg, 4)
    rng = stream_rng(4, "batch-sampling")
    w = problem.w0
    replay = []
    for r in trace.schedule.rounds:
        batches = sample_batches(problem, int(r), rng)
        w = apply_update(problem, w, [partial_gradient(problem, w, batch) for batch in batches], int(r))
        replay.append(model_error(problem, w))
    np.testing.assert_allclose(trace.model_errors, replay, rtol=1e-12)


def test_diverging_run_fails_with_iteration():
    cfg = ExperimentConfig(n=10, b=3, m=200, d=100, eta=1e-2, seeds=(0,), schedule="100,200,300")
    with pytest.raises(ValueError, match=r"at iteration \d+"):
        run_single(cfg, "cmab-plain", 0)
