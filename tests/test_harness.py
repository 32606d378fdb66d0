"""Orchestration: configs, streams, traces, CSV schema, and comparisons."""

import csv
import math
import os

import numpy as np
import pytest

from banditsgd.harness import (
    TRACE_HEADER,
    ExperimentConfig,
    benchmark_config,
    build_pool,
    build_problem,
    error_at_employments,
    identify_fastest,
    run_comparison,
    run_single,
    stream_rng,
    write_trace_csv,
)
from banditsgd.policies import RoundSchedule
from banditsgd.sgd import sample_batches

from _oracles import apply_update, model_error, partial_gradient

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


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
    for bad in (dict(eta=0.0), dict(eta=-1e-4), dict(theta=0.0), dict(theta=-0.1), dict(m=0), dict(d=0)):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


def test_config_distinct_grid_needs_enough_values():
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(n=50, b=5, distinct_means=True, schedule="1,2,3,4,5").mean_grid()


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


def test_benchmark_config_shape():
    cfg = benchmark_config()
    assert cfg.n == 50 and cfg.b == 20
    points = cfg.switching_points()
    assert len(points) == 20 and points[-1] == 28_000
    assert cfg.distinct_means
    sched = RoundSchedule(points)
    assert sched.budget == sum(r * 1000 for r in range(1, 20)) + 20 * 9000


def test_benchmark_file_matches_benchmark_config():
    from_file = ExperimentConfig.from_file(os.path.join(CONFIG_DIR, "benchmark.cfg"))
    assert from_file.replace(out_dir=None) == benchmark_config()


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
    # pinned pool ignores the run seed
    cfg2 = small_config(pool_seed=11)
    np.testing.assert_array_equal(build_pool(cfg2, 0).rates, build_pool(cfg2, 5).rates)


def test_pool_and_data_reuse_across_policies():
    cfg = small_config()
    t1 = run_single(cfg, "cmab-plain", 1)
    t2 = run_single(cfg, "adaptive-ksync", 1)
    np.testing.assert_array_equal(t1.rates, t2.rates)
    # same batch stream, same data: identical error trajectories
    np.testing.assert_array_equal(t1.model_errors, t2.model_errors)


# ---------------------------------------------------------------- traces


def test_trace_structure_and_bookkeeping():
    cfg = small_config()
    sched = RoundSchedule(cfg.switching_points())
    for policy in cfg.policies:
        trace = run_single(cfg, policy, 0)
        assert len(trace) == sched.horizon
        np.testing.assert_array_equal(trace.rounds, sched.rounds_of(np.arange(1, sched.horizon + 1)))
        np.testing.assert_allclose(trace.cum_times, np.cumsum(trace.response_times))
        np.testing.assert_array_equal(trace.cum_employments, np.cumsum(trace.employments))
        if policy == "adaptive-ksync":
            assert np.all(trace.employments == cfg.n)
            assert np.all(trace.pulls == sched.horizon)
        else:
            np.testing.assert_array_equal(trace.employments, trace.rounds)
            assert trace.pulls.sum() == sched.budget
        for j in (1, sched.horizon // 2, sched.horizon):
            arm = trace.superarm_at(j)
            assert arm.size == trace.rounds[j - 1]  # k-sync stores the k used workers
            assert np.all(np.diff(arm) > 0)
            assert trace.responses_at(j).size == arm.size
            if policy != "adaptive-ksync":
                assert trace.response_times[j - 1] == pytest.approx(trace.responses_at(j).max())


def test_ksync_time_is_kth_smallest_of_full_vector():
    cfg = small_config()
    trace = run_single(cfg, "adaptive-ksync", 3)
    lat = stream_rng(3, "worker-latency")
    pool = build_pool(cfg, 3)
    for j in range(1, len(trace) + 1):
        draws = lat.exponential(pool.means)
        r = trace.rounds[j - 1]
        assert trace.response_times[j - 1] == pytest.approx(np.partition(draws, r - 1)[r - 1])
        np.testing.assert_array_equal(trace.superarm_at(j), np.sort(np.argsort(draws, kind="stable")[:r]))


def test_cmab_member_responses_accumulate_into_sums():
    cfg = small_config()
    trace = run_single(cfg, "cmab-plain", 2)
    sums = np.zeros(cfg.n)
    counts = np.zeros(cfg.n, dtype=int)
    for j in range(1, len(trace) + 1):
        arm = trace.superarm_at(j)
        sums[arm] += trace.responses_at(j)
        counts[arm] += 1
    np.testing.assert_allclose(sums, trace.response_sums)
    np.testing.assert_array_equal(counts, trace.pulls)


def test_bandit_only_mode():
    cfg = small_config(simulate_sgd=False)
    trace = run_single(cfg, "cmab-plain", 0)
    assert np.isnan(trace.model_errors).all()
    with pytest.raises(ValueError, match="computed schedule"):
        run_single(small_config(simulate_sgd=False, schedule="computed"), "cmab-plain", 0)


def test_computed_schedule_end_to_end():
    cfg = small_config(schedule="computed", m=60, d=3, b=3, n=6, eta=1e-6, j_cap=500)
    trace = run_single(cfg, "optimal", 0)
    assert trace.metadata["schedule_mode"] == "computed"
    assert trace.metadata["bound_params"] is not None
    assert trace.schedule.b == 3
    assert trace.schedule.horizon <= 500


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
    np.testing.assert_array_equal(got, trace.superarm_at(21))
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
    assert set(result["traces"]) == set(cfg.policies)
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
    assert (out / "trace_cmab-plain_0.csv").exists()
    assert (out / "error_curve_adaptive-ksync.csv").exists()
    assert (out / "regret_cmab-plain.csv").exists()
    assert (out / "employments_optimal.csv").exists()


def test_run_comparison_needs_two_policies():
    with pytest.raises(ValueError):
        run_comparison(small_config(policies=("optimal",)))


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
    for r in trace.rounds:
        batches = sample_batches(problem, int(r), rng)
        w = apply_update(problem, w, [partial_gradient(problem, w, batch) for batch in batches], int(r))
        replay.append(model_error(problem, w))
    np.testing.assert_allclose(trace.model_errors, replay, rtol=1e-12)


def test_diverging_run_fails_with_iteration():
    cfg = ExperimentConfig(n=10, b=3, m=200, d=100, eta=1e-2, seeds=(0,), schedule="100,200,300")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=r"at iteration \d+"):
        run_single(cfg, "cmab-plain", 0)
