"""Every narrative demo, from the Gaussian core to the bound pipeline, runs cleanly.

Each demo runs with `-W error`, so a warning fails it as it fails the
in-process tests, and its stdout must match a sha256 recorded with
steinclt 0.3.0 (every release from 0.3.1 to 0.7.0 prints the same bytes),
except demo 06, which prints iid Rademacher estimates and was recorded with
0.4.0 (0.5.0 to 0.7.0 print the same bytes), when those sums came to be drawn
one raw Philox bit per sign, and demos 04 and 05, which print Stein residuals
and generator-form gaps at rounding level and were recorded with 0.7.0, when
the Stein time rule came to take its node count from t (demo 05 also prints
the iid uniform estimates that 0.6.0 draws from one 16-bit Philox word).
Every digest is keyed by the steinclt, numpy and scipy versions below; under
other versions the test fails and names both rather than skip.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

import steinclt

ROOT = Path(__file__).resolve().parent.parent

RECORDED_VERSIONS = {"steinclt": "0.7.0", "numpy": "2.4.6", "scipy": "1.17.1"}

STDOUT_SHA256 = {
    "01_gaussian_core.py": "7ae6564809f25d35b6cf7a713cb24377802335e3e3e74a0e04c2f9cab7a6e5e1",
    "02_convex_smoothing.py": "ce5decb783f4938c1ca7dab2f650074ae00906186efc184f906e458cb5f58496",
    "03_ou_semigroup.py": "d05d974836ee478ac47fe7a91830ee56ab9fccfdbdb633d45fcc7fc01d6a04b5",
    "04_stein_solution.py": "94617212853f25dc2bbf5bad8c4e57d09a8608e202008b224ee1dffeb5b9c459",
    "05_clt_discrepancy.py": "bb19ebbd61f42691e8e03cb786e4dd2a058a3502fb99c557ccaa1fafcc349ac8",
    "06_bound_pipeline.py": "eaf9bc2770756d5fc4b47ba35d8e5c254db57d6e4b843d925154bd37f62c075f",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    installed = {
        "steinclt": steinclt.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    assert installed == RECORDED_VERSIONS, (
        f"digests were recorded with {RECORDED_VERSIONS} but {installed} is installed; "
        "check the demos under these versions and record their digests"
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo], demo
