"""Smoke tests: the scripts under scripts/ run on the current source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def test_verify_flagships(tmp_path):
    proc = _run("verify_flagships.py", "--nmax", "12", "--out", "reports", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("full-2-shift", "golden-mean", "beta-1.5-truncated",
                 "golden-mean-degenerate-scheme"):
        assert f"== {name} (exit " in proc.stdout
        assert (tmp_path / "reports" / f"{name}.json").exists()
    assert "hypotheses met: True" in proc.stdout


def test_mme_convergence(tmp_path):
    proc = _run("mme_convergence.py", "--times", "125", "250", "--csv", "gaps.csv",
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "n =   125" in proc.stdout and "n =   250" in proc.stdout
    assert "monotone decrease: True" in proc.stdout
    rows = (tmp_path / "gaps.csv").read_text().split()
    assert rows[0] == "n,max_gap" and [r.split(",")[0] for r in rows[1:]] == ["125", "250"]


def test_factor_sweep(tmp_path):
    proc = _run("factor_sweep.py", "--sources", "golden", "--windows", "2",
                "--csv", "verdicts.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split()[:5] == ["source", "codes", "met", "not", "met"]
    source, codes, met, not_met, exit_2, seconds = row.split()
    assert (source, codes) == ("golden", "16")
    assert int(met) + int(not_met) + int(exit_2) == 16
    assert seconds.endswith("s")
    rows = (tmp_path / "verdicts.csv").read_text().splitlines()
    assert rows[0] == "source,window,outputs,verdict"
    # every binary table of the four 2-blocks, in order, one verdict each
    assert [r.split(",")[2] for r in rows[1:]] == [f"{i:04b}" for i in range(16)]
    assert {r.split(",")[3] for r in rows[1:]} <= {"met", "not met", "exit 2"}
    assert sum(r.endswith(",met") for r in rows[1:]) == int(met)
