"""Command-line interface: subcommands, flag overrides, exit codes."""

import json

import pytest

from banditsgd.cli import main
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
            "cmab",
            "--variant",
            "scaled",
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


def _mini_cfg(tmp_path, text):
    path = tmp_path / "mini.cfg"
    path.write_text(text)
    return str(path)


def test_verify_suite_passes(capsys):
    rc = main(["verify", "--lists", "4", "--samples", "40000", "--trials", "20000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_help_mentions_mandatory_flags(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    text = capsys.readouterr().out
    for flag in ("--seed", "--policy", "--out", "--schedule", "--variant"):
        assert flag in text
