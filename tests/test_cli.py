"""Command-line interface: subcommands, flag overrides, exit codes."""

import argparse
import csv
import dataclasses
import json
import os
import warnings

import pytest

from banditsgd import analysis, harness, policies, verify
from banditsgd.cli import _parser, main
from banditsgd.harness import TRACE_HEADER

CFG_TEXT = """
n = 6
b = 3
m = 24
d = 3
eta = 1e-4
seeds = 0,1
policies = cmab-plain, adaptive-ksync
schedule = 15,35,60
mean_step = 0.05
distinct_means = true
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CFG_TEXT.strip() + "\n")
    return str(path)


def test_run_writes_trace(tmp_path, cfg_file, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["run", "--config", cfg_file, "--policy", "cmab-plain", "--seed", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 61
    assert "final_error" in capsys.readouterr().out


def test_run_schedule_flag_overrides_file(tmp_path, cfg_file):
    out = tmp_path / "trace.csv"
    rc = main(
        [
            "run",
            "--config",
            cfg_file,
            "--policy",
            "cmab-scaled",
            "--seed",
            "3",
            "--out",
            str(out),
            "--schedule",
            "10,20,30",
        ]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 31


def test_run_rejects_unknown_policy(tmp_path, cfg_file, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--config", cfg_file, "--policy", "nope", "--seed", "0", "--out", str(tmp_path / "t.csv")])


def test_run_reports_faults_with_exit_code(tmp_path, cfg_file, capsys):
    rc = main(
        [
            "run",
            "--config",
            cfg_file,
            "--policy",
            "cmab-plain",
            "--seed",
            "0",
            "--out",
            str(tmp_path / "t.csv"),
            "--schedule",
            "10,20",  # wrong length for b=3
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--schedule", "35,15,60"], "error: schedule '35,15,60': switching points must be strictly increasing"),
        (["--seeds", "0,-1"], "error: seeds must all be >= 0"),
        (["--seeds", "0,0"], "error: seeds must not repeat an entry"),
        (["--policies", "optimal,optimal"], "error: policies must not repeat an entry"),
    ],
)
def test_config_faults_fail_before_any_run(tmp_path, cfg_file, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(harness, "run_single", None)  # a run that starts fails with a TypeError
    rc = main(["compare", "--config", cfg_file, "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)


def test_run_rejects_negative_seed(tmp_path, cfg_file, capsys):
    out = tmp_path / "t.csv"
    rc = main(["run", "--config", cfg_file, "--policy", "optimal", "--seed", "-1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not out.exists()


def test_run_missing_config_file_reports_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    rc = main(["run", "--config", missing, "--policy", "cmab-plain", "--seed", "0", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno 2] No such file or directory: '{missing}'")


def test_compare_writes_tables(tmp_path, cfg_file, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", cfg_file, "--out", str(out), "--seeds", "0,1"])
    assert rc == 0
    assert (out / "summary.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["policies"]) == {"cmab-plain", "adaptive-ksync"}
    assert "tables ->" in capsys.readouterr().out


def test_compare_summary_keeps_the_retired_config_keys(tmp_path, cfg_file):
    # summary.json still records the six removed config fields, at their fixed values
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_file, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    config = harness.ExperimentConfig.from_file(cfg_file, out_dir=str(out))
    retired = {
        "variant": "plain", "bound_tail_term": "pi2/3", "mc_lists": 50, "mc_samples": 1000000,
        "theta": 0.1, "j_cap": 1000000,
    }
    assert summary["config"] == {**config.as_dict(), **retired}


def test_compare_bound_columns_match_bounds_command(tmp_path, monkeypatch):
    path = _mini_cfg(tmp_path, CFG_TEXT + "pool_seed = 4\npolicies = cmab-plain, cmab-scaled, optimal\n")
    calls = []
    original = analysis.compute_gaps

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "compute_gaps", counting)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", path, "--out", str(out)]) == 0
    assert len(calls) == 1  # one gap report for both bandit policies
    monkeypatch.undo()
    assert main(["bounds", "--config", path, "--out", str(tmp_path / "bounds.json")]) == 0
    rows = json.loads((tmp_path / "bounds.json").read_text())["regret_bounds"]
    assert [row["iter"] for row in rows] == [15, 35, 60]
    columns = ("bound_log_iter", "bound_log_truncated", "bound_tighter")
    for policy in ("cmab-plain", "cmab-scaled"):
        with open(out / f"regret_{policy}.csv", newline="") as fh:
            table = {int(r["iter"]): r for r in csv.DictReader(fh)}
        for row in rows:
            assert all(float(table[row["iter"]][c]) == row[c] for c in columns)


def test_worker_means_compare_is_pinned(tmp_path, monkeypatch):
    text = (
        "n = 4\nb = 2\nworker_means = 0.2,0.4,0.6,0.8\nseeds = 0,1,2\nsimulate_sgd = false\n"
        "schedule = 10,30\npolicies = cmab-plain, optimal\n"
    )
    path = _mini_cfg(tmp_path, text)
    calls = []
    original = analysis.round_reference_means

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis, "round_reference_means", counting)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", path, "--out", str(out)]) == 0
    assert calls == []  # one gap report gives every seed's reference means
    js = ",".join(map(str, range(1, 31)))
    assert main(["bounds", "--config", path, "--j", js, "--out", str(tmp_path / "bounds.json")]) == 0
    rows = json.loads((tmp_path / "bounds.json").read_text())["regret_bounds"]
    with open(out / "regret_cmab-plain.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(rows) == len(table) == 30
    for row, line in zip(rows, table):
        for column in ("bound_log_iter", "bound_log_truncated", "bound_tighter"):
            assert float(line[column]) == row[column]


def test_config_parse_error_names_the_key(tmp_path, capsys):
    path = _mini_cfg(tmp_path, "n = 1e3\n")
    assert main(["run", "--config", path, "--policy", "optimal", "--seed", "0", "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == "error: config key 'n': invalid literal for int() with base 10: '1e3'\n"


def test_compare_quick_config(tmp_path, capsys):
    quick = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "quick.cfg")
    assert main(["compare", "--config", quick, "--seeds", "0", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(f"tables -> {tmp_path}\n")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["seeds"] == [0]


def test_bounds_emits_json(tmp_path, capsys):
    rc = main(
        [
            "bounds",
            "--rates",
            "1,2,4",
            "--schedule",
            "5,10",
            "--config",
            _mini_cfg(tmp_path, "n = 3\nb = 2\nschedule = 5,10\n"),
            "--j",
            "5,10",
            "--eps",
            "0.5,2",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_min"] == pytest.approx(0.25)
    assert len(payload["time_bounds"]) == 4
    assert all(0.0 <= row["probability"] <= 1.0 for row in payload["time_bounds"])
    assert payload["regret_bounds"][0]["bound_tighter"] > 0


def test_bounds_computed_schedule_needs_sgd(tmp_path, capsys):
    cfg = _mini_cfg(tmp_path, "n = 3\nb = 2\nschedule = computed\nsimulate_sgd = false\n")
    assert main(["bounds", "--config", cfg, "--rates", "1,2,4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: computed schedule mode") and "simulate_sgd" in err


@pytest.mark.parametrize("command", ["compare", "bounds"])
def test_computed_schedule_past_j_cap_fails_before_output(tmp_path, capsys, command):
    # eta = 1e-6 needs millions of iterations per round: the schedule fails when it is resolved
    cfg = _mini_cfg(tmp_path, "n = 6\nb = 3\nm = 60\nd = 3\neta = 1e-6\nseeds = 0\n")
    config = harness.ExperimentConfig.from_file(cfg, schedule="computed")
    with pytest.raises(ValueError) as exc:
        harness.resolve_schedule(config, harness.build_problem(config, 0))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--schedule", "computed", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {exc.value}\n")
    assert f"J_CAP={policies.J_CAP}" in captured.err
    assert not out.exists()


def test_bounds_logs_why_the_regret_bound_is_skipped(tmp_path, capsys):
    # a rate below 1 is outside the guarantee's assumption: the JSON says so in its note, the log says why
    argv = ["bounds", "--rates", "0.5,2", "--config", _mini_cfg(tmp_path, "n = 2\nb = 1\nschedule = 5\n")]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert main([*argv, "--log-level", "warning"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert json.loads(loud.out)["regret_bound_note"].startswith("regret bound skipped")
    reason = "regret bound skipped: rate 0.5 is below 1, outside the guarantee's assumption"
    assert loud.err == f"WARNING banditsgd.analysis: {reason}\n"


def test_unpinned_compare_logs_why_its_regret_tables_have_no_bound(tmp_path, cfg_file, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_file, "--out", str(out), "--log-level", "info"]) == 0
    err = capsys.readouterr().err
    assert err.count("INFO banditsgd.harness: regret tables carry no bound column: the pool is not pinned") == 1
    with open(out / "regret_cmab-plain.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["iter", "mean_regret"]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--eps", "nan", "error: epsilon must be finite and > 0, got nan"),
        ("--eps", "inf", "error: epsilon must be finite and > 0, got inf"),
        ("--regret", "nan", "error: regret must be finite, got nan"),
    ],
    ids=["eps-nan", "eps-inf", "regret-nan"],
)
def test_bounds_rejects_non_finite_values(tmp_path, capsys, flag, value, message):
    cfg = _mini_cfg(tmp_path, "n = 3\nb = 2\nschedule = 5,10\n")
    assert main(["bounds", "--config", cfg, "--rates", "1,2,4", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize(
    "flag, value, kind", [("--eps", "abc", "float"), ("--j", "1.5", "int"), ("--rates", "1,x", "float")]
)
def test_bounds_list_flags_name_the_flag(tmp_path, capsys, flag, value, kind):
    cfg = _mini_cfg(tmp_path, "n = 3\nb = 2\nschedule = 5,10\n")
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", cfg, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid comma-separated {kind} value: '{value}'" in capsys.readouterr().err


def test_bounds_reject_iterations_past_the_horizon(tmp_path, capsys):
    cfg = _mini_cfg(tmp_path, "n = 3\nb = 2\n")
    out = tmp_path / "bounds.json"
    argv = ["bounds", "--config", cfg, "--rates", "1,2,4", "--schedule", "5,10", "--j", "11", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: iteration 11 is past the schedule's horizon 10\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--j", "11", "--eps", ""], "error: iteration 11 is past the schedule's horizon 10"),
        (["--j", "5,10", "--eps", ""], "error: --j and --eps each need at least one value"),
        (["--j", "", "--eps", "1"], "error: --j and --eps each need at least one value"),
        (["--rates", "", "--eps", "1"], "error: worker pool needs a non-empty 1-D rate list"),
    ],
    ids=["past-horizon-no-eps", "empty-eps", "empty-j", "empty-rates"],
)
def test_bounds_reject_empty_lists_and_past_horizon_before_output(tmp_path, capsys, extra, message):
    # an empty --eps once skipped the only past-horizon check and printed a regret row for iteration 11,
    # and an empty --rates was taken as "not given" and printed a pool sampled from the config
    cfg = _mini_cfg(tmp_path, "n = 3\nb = 2\n")
    assert main(["bounds", "--config", cfg, "--rates", "1,2,4", "--schedule", "5,10", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_log_level_surfaces_library_warnings(tmp_path, capsys):
    # a one-iteration round at eps=0.5 makes the Chebyshev factor negative
    argv = ["bounds", "--rates", "1", "--config", _mini_cfg(tmp_path, "n = 1\nb = 1\nschedule = 1\n"), "--eps", "0.5"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert main([*argv, "--log-level", "info"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert "WARNING banditsgd.analysis: completion_time_bound: 1 round factor(s) clamped to 0" in loud.err
    assert main([*argv, "--log-level", "error"]) == 0
    assert "clamped" not in capsys.readouterr().err


def _mini_cfg(tmp_path, text):
    path = tmp_path / "mini.cfg"
    path.write_text(text)
    return str(path)


def test_verify_suite_passes(capsys):
    rc = main(["verify", "--lists", "4", "--samples", "40000", "--trials", "20000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


@pytest.mark.parametrize("sizes", [("--lists", "0"), ("--samples", "0"), ("--trials", "0"), ("--samples", "1")])
def test_verify_rejects_empty_sample_sizes(sizes, capsys):
    # a standard error needs two samples; every other size needs one
    rc = main(["verify", "--lists", "4", "--samples", "40000", "--trials", "100", *sizes])
    assert rc == 2
    flag, value = sizes
    least = 2 if flag == "--samples" else 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag[2:]} must be >= {least}, got {value}\n"
    assert "PASS" not in captured.out


def test_verify_too_few_samples_fails(capsys):
    # fewer than 40 samples leave the order-statistic check under two draws: a miss, not a crash
    for samples, detail in (("10", "no samples"), ("20", "one sample")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["verify", "--lists", "4", "--samples", samples, "--trials", "100"])
        assert rc == 1
        assert f"FAIL fastest and slowest response vs closed forms: {detail}" in capsys.readouterr().out


def test_verify_defaults_are_the_paper_sizes(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "oracle_suite", lambda *args: calls.append(args) or [])
    assert main(["verify"]) == 0
    assert calls == [(50, 1_000_000, 100_000, 0)]


def test_verify_rejects_negative_seed(capsys):
    rc = main(["verify", "--lists", "4", "--samples", "100", "--trials", "100", "--seed", "-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "seed" in captured.err
    assert "PASS" not in captured.out


def test_unexpected_fault_reports_type_and_exit_code(tmp_path, cfg_file, capsys, monkeypatch):
    argv = ["run", "--config", cfg_file, "--policy", "cmab-plain", "--seed", "0", "--out", str(tmp_path / "t.csv")]

    def fault(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(harness, "run_single", fault)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: KeyError: 'boom'\n"

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_single", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv)


def test_help_mentions_mandatory_flags(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    text = capsys.readouterr().out
    for flag in ("--seed", "--policy", "--out", "--schedule"):
        assert flag in text


@pytest.mark.parametrize("command, reads_schedule", [("run", True), ("compare", True), ("bounds", True), ("verify", False)])
def test_schedule_flag_only_where_a_schedule_is_read(capsys, command, reads_schedule):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert ("--schedule" in text) == reads_schedule
    assert "--variant" not in text
    if not reads_schedule:
        for flag, value in (("--schedule", "1,2"), ("--config", "x")):
            with pytest.raises(SystemExit) as exc:
                main([command, flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["compare", "--seed", "3", "--pol", "optimal,cmab-plain"], ["verify", "--sam", "10"], ["bounds", "--rat", "1,2"]],
)
def test_flag_prefixes_are_not_flags(capsys, argv):
    # only the pinned spellings parse: a prefix of a flag is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_option_surface_is_pinned():
    # every config field and flag is listed once here, so adding a knob shows up as a diff
    assert [f.name for f in dataclasses.fields(harness.ExperimentConfig)] == [
        "n", "b", "m", "d", "eta", "seeds", "policies", "schedule", "mean_min", "mean_max",
        "mean_step", "distinct_means", "worker_means", "pool_seed", "data_seed", "simulate_sgd",
        "out_dir", "write_traces",
    ]
    (commands,) = (a.choices for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [flag for action in p._actions for flag in action.option_strings if flag not in ("-h", "--help")]
        for name, p in commands.items()
    }
    assert options == {
        "run": ["--log-level", "--policy", "--seed", "--out", "--config", "--schedule"],
        "compare": ["--log-level", "--out", "--seeds", "--policies", "--config", "--schedule"],
        "bounds": ["--log-level", "--rates", "--j", "--eps", "--regret", "--out", "--config", "--schedule"],
        "verify": ["--log-level", "--lists", "--samples", "--trials", "--seed"],
    }


def test_diverging_compare_writes_one_error_line(tmp_path, capsys):
    cfg = _mini_cfg(tmp_path, "n = 10\nb = 3\nm = 200\nd = 100\neta = 1e-2\nseeds = 0,1\nschedule = 100,200,300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would fail the run with its own error line
        rc = main(["compare", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: model error is inf at iteration 104; eta=0.01 is too large to converge\n"
    assert captured.out == ""
