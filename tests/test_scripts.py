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
