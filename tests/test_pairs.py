"""Smoke test of scripts/pairs.py: one pair of a tiny comparison, the working tree against itself."""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "scripts", "pairs.py")


def test_one_pair_of_the_working_tree_against_itself(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text("n = 3\nb = 2\nschedule = 3,6\nsimulate_sgd = false\nseeds = 0\npolicies = cmab-plain, optimal\n")
    record = tmp_path / "pairs.json"
    argv = [sys.executable, SCRIPT, "--before", "WORKTREE", "--after", "WORKTREE", "--pairs", "1", "--scratch", str(tmp_path / "scratch"), "--compare", str(config), "--out", str(record)]
    # no PATH: a working-tree side runs no git, and the children run from sys.executable
    proc = subprocess.run(argv, env={"PATH": str(tmp_path / "no-bin")}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "outputs identical in 1 of 1 pairs" in proc.stdout
    result = json.loads(record.read_text())
    trees = [result["sides"][side]["tree"] for side in ("before", "after")]
    assert len(trees[0]) == len(trees[1]) and trees[0].count(os.sep) == trees[1].count(os.sep)
    assert not any(os.path.isdir(os.path.join(tree, ".git")) for tree in trees)
    assert result["failed_operations"] == {"before": 0, "after": 0}
    assert set(result["summary"]) == {"wall_s", "peak_rss_mb"}
    for entry in result["summary"].values():
        assert len(entry["before"]["runs"]) == len(entry["after"]["runs"]) == 1
        assert entry["before"]["median"] > 0 and entry["after"]["median"] > 0
    assert {"python", "numpy", "nproc", "usable_cpus", "blas_threads"} <= set(result["environment"])
    assert result["command"][:4] == ["python3", "-m", "banditsgd.cli", "compare"] and result["method"]
