"""Every narrative demo, from the Gaussian core to the bound pipeline, runs cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    (
        "01_gaussian_core.py",
        "02_convex_smoothing.py",
        "03_ou_semigroup.py",
        "04_stein_solution.py",
        "05_clt_discrepancy.py",
        "06_bound_pipeline.py",
    ),
)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
