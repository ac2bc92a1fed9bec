"""Every narrative demo, from the Gaussian core to the bound pipeline, runs cleanly.

Each demo runs with `-W error`, so a warning fails it as it fails the
in-process tests, and its stdout must match a sha256 recorded with
steinclt 0.3.0 (every release from 0.3.1 to 0.9.0 prints the same bytes),
except demos 04, 05 and 06.  Demo 05 was recorded with 0.9.0, which draws
an iid uniform sum of n > 8 summands from two byte-sum table lookups a
coordinate: its uniform n = 64 delta_hat moved from 0.00314 to 0.00402 (std
err 0.00213) and its n = 4 row kept its bytes.  Its Stein generator-form
gaps at rounding level keep the bytes of 0.7.0, when the Stein time rule
came to take its node count from t.  Demo
04 was recorded with 0.8.0, whose kernel report takes a half-space's kernel
in closed form (its s = 1.0 and 2.0 kernel lines moved from the Gauss-Hermite
grid's 0.3276 and 0.4091 to 0.3274 and 0.3891; its Stein residuals moved at
rounding level in 0.7.0).  Demo 06 was recorded with 0.8.0, whose dimension
scan draws each (source, k, n) cell from `sources.cell_stream` in place of a
stream indexed by the cell's position in the lists; its other sections keep
the bytes of 0.4.0, when the iid Rademacher sums came to be drawn one raw
Philox bit per sign.
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

RECORDED_VERSIONS = {"steinclt": "0.9.0", "numpy": "2.4.6", "scipy": "1.17.1"}

STDOUT_SHA256 = {
    "01_gaussian_core.py": "7ae6564809f25d35b6cf7a713cb24377802335e3e3e74a0e04c2f9cab7a6e5e1",
    "02_convex_smoothing.py": "ce5decb783f4938c1ca7dab2f650074ae00906186efc184f906e458cb5f58496",
    "03_ou_semigroup.py": "d05d974836ee478ac47fe7a91830ee56ab9fccfdbdb633d45fcc7fc01d6a04b5",
    "04_stein_solution.py": "21e7d014af09c81e2fee4e801aaf2b0b65e0b662b3a3bf2065b8134c6773bab5",
    "05_clt_discrepancy.py": "b6fa2eee67f723d05f246366c6fbb12b04c55b20e12d59bd6c4d29b077cb2e24",
    "06_bound_pipeline.py": "04ec63fb9cdae966ed5b53b891bc6f9c3d668ce1da29622ab73b0ee5e57853ca",
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
