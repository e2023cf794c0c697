"""Smoke test: each demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# bias_oracle.py is left out: it evaluates the exact bias oracle on a fine
# grid and takes close to a minute.
DEMOS = ["bandwidth_rules", "boundary_geometry", "coverage_study", "effect_curve"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # cwd is tmp_path, so any file a demo writes (effect_curve.png) lands there.
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
