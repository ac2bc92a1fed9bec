"""Seeded outputs pinned byte for byte to sha256 digests.

Pinned: the Gaussian measures of the default set families for k = 1..4, the
CSV bodies (below the header line) of three check suites at seed 7, the
CSV bodies of two `discrepancy` runs, one on the Rademacher lattice (the
README command) and one on Gaussian sums, and the CSV bodies of the README's
`delta` and `bounds` commands at M = 20000, of two k = 1 `delta` runs on
non-lattice laws (uniform and exponential, whose default family repeats each
half-space level 16 times), of a non-iid `bounds` run and of a `delta` run on
`family_k2_ellipsoid.json`, whose ellipsoid has no closed form and so pins the
scrambled-Sobol QMC measure, and of the README's `dim-scan` command at
M = 20000.  `omega_star_hat` of a stretched and a spherical ellipsoid at
k = 2, 3 is pinned as `float.hex` text: a QMC count over 2^16 points, so each
shell mass is exact in binary.  The measures and check suites were recorded
with steinclt 0.3.0, and 0.3.1 and 0.3.2 give the same bytes; the
`discrepancy` bodies were recorded with 0.3.2 and match 0.3.1, and the k = 1
uniform and exponential `delta` bodies were recorded with 0.3.2 before
`SetFamily.counts` compared each repeated level once.

Every digest is keyed by the steinclt, numpy and scipy versions recorded with
it.  A steinclt release that moves drawn numbers records new digests; under
other versions each test fails and names both rather than skip, because a
digest that cannot be checked has not passed.
"""

import hashlib
from pathlib import Path

import numpy
import pytest
import scipy

import steinclt
from steinclt import Ellipsoid, default_family, omega_star_hat
from steinclt.cli import run

HERE = Path(__file__).resolve().parent

RECORDED_VERSIONS = {"steinclt": "0.3.2", "numpy": "2.4.6", "scipy": "1.17.1"}

FAMILY_MEASURES = {
    1: "4f3fd4ff79002b26fa11f3a7a9740c2be3692b65285ac22920d2dfc3869fca0f",
    2: "9dad9655e86338913dc58f3e31f7f20f202c465fb13726d5ee0c435715907d0b",
    3: "1a8ff3bc9f9f212b05f6ac4ce26f01fe87051e7d3c5c69c63a7ae373b20f16a6",
    4: "53b6c421562a8251a634fdc216f240519f23ea3576222745f4672da39b6ac287",
}

CHECK_CSV_BODIES = {
    ("check-inequalities", 3): "dda3e588b845627bd7e7cf703358e45e3c906e0c19528daaf53b8090ccd88cf1",
    ("check-semigroup", 2): "f3b8d3f94c5c9e7802b4d32db2ab6da339875590aa4fb74c3a807e5a5b501c8c",
    ("check-stein", 2): "14d4e1006d248ab6552b92a9b6c3f2a13bd00c13513363f674539b65d769e46e",
}

DISCREPANCY_CSV_BODIES = {
    "--source rademacher --k 1 --n 4 --t 0.5 --M 4096 --seed 7":
        "bf687672543310a37b1ad8a4d6da0d6184626d26282022b1431009dfa5df69b5",
    "--source gaussian --k 2 --n 16 --M 4096 --seed 7":
        "8c9145a0f3c3d5bcaac14636853bec29eeed52976d7bec29805bf01dec303e5d",
}

# full command lines; a `.json` argument names a file next to this one
CLI_CSV_BODIES = {
    "delta --source uniform --k 2 --n 16 --M 4096 --seed 7 --family family_k2_ellipsoid.json":
        "2b21a835e7536646761fd4838a2fa3211c6e20394b343d1d1dc46d1601e6a6f1",
    "delta --source rademacher --k 1,2,3 --n 4,16,64 --M 20000 --seed 7":
        "0079c9ed8b5a122dff5a4836a5b7ff97de003f4f35a40102699da81bed1e837f",
    "delta --source uniform --k 1 --n 4,256 --M 20000 --seed 7":
        "2e3d84db4fc6d97b1f2f16d2f1449ca1728c6c3a3681f8710cc8f2a5fbd9bfd9",
    "delta --source exponential --k 1 --n 4,256 --M 20000 --seed 7":
        "17e161b20e247d9d07db3f23b96090d82efa9416576eda261a978d13da2aa244",
    "bounds --source uniform --k 2 --n 16,64 --M 20000 --seed 7 --constant c=1.0":
        "a23acbd4717146c0b2c25462c60afdd26dad6653f45a4c5061ad23117faed5c5",
    "bounds --source gaussian --k 1 --n 32 --M 20000 --seed 7 --noniid-profile linear":
        "6b0c2410016eb70a5a34f4f17455115fe6a125b1a85c717dd51d362e8d6398dd",
    "dim-scan --source rademacher --k-list 1,2,3,4 --n-list 64 --M 20000 --seed 7":
        "fcb80a1da48ed6260bb18d37ce3e5110dea8f3c728b9e7e3160d3663c765e587",
}

SHELL_ELLIPSOIDS = {
    ("stretched", 2): ([0.2, -0.1], numpy.diag([1.0, 2.0])),
    ("stretched", 3): ([0.2, -0.1, 0.3], numpy.diag([1.0, 2.0, 0.5])),
    ("spherical", 2): ([0.0, 0.0], numpy.eye(2)),
    ("spherical", 3): ([0.0, 0.0, 0.0], numpy.eye(3)),
}

# omega_star_hat(ellipsoid, eps, t = 0.3) as float.hex
OMEGA_STAR_HEX = {
    ("stretched", 2, 0.05): "0x1.fb90000000000p-4",
    ("stretched", 2, 0.1): "0x1.f9d8000000000p-3",
    ("stretched", 2, 0.2): "0x1.f0b8000000000p-2",
    ("stretched", 3, 0.05): "0x1.34b0000000000p-3",
    ("stretched", 3, 0.1): "0x1.3024000000000p-2",
    ("stretched", 3, 0.2): "0x1.1b56000000000p-1",
    ("spherical", 2, 0.05): "0x1.2cb8000000000p-3",
    ("spherical", 2, 0.1): "0x1.27c4000000000p-2",
    ("spherical", 2, 0.2): "0x1.1ad2000000000p-1",
    ("spherical", 3, 0.05): "0x1.4240000000000p-3",
    ("spherical", 3, 0.1): "0x1.3af8000000000p-2",
    ("spherical", 3, 0.2): "0x1.254c000000000p-1",
}


def _assert_recorded_versions():
    installed = {
        "steinclt": steinclt.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    assert installed == RECORDED_VERSIONS, (
        f"digests were recorded with {RECORDED_VERSIONS} but {installed} is installed; "
        "check the outputs under these versions and record their digests"
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("k", sorted(FAMILY_MEASURES))
def test_default_family_measures_are_pinned(k):
    _assert_recorded_versions()
    assert _sha256(default_family(k).measures.tobytes()) == FAMILY_MEASURES[k]


@pytest.mark.parametrize("subcommand, k", sorted(CHECK_CSV_BODIES))
def test_check_suite_csv_body_is_pinned(subcommand, k, capsys):
    _assert_recorded_versions()
    assert run([subcommand, "--k", str(k), "--seed", "7"]) == 0
    header, body = capsys.readouterr().out.split("\n", 1)
    assert header.startswith("# steinclt-csv v1")
    assert _sha256(body.encode()) == CHECK_CSV_BODIES[subcommand, k]


@pytest.mark.parametrize("args", sorted(DISCREPANCY_CSV_BODIES))
def test_discrepancy_csv_body_is_pinned(args, capsys):
    _assert_recorded_versions()
    assert run(["discrepancy", *args.split()]) == 0
    header, body = capsys.readouterr().out.split("\n", 1)
    assert header.startswith("# steinclt-csv v1")
    assert _sha256(body.encode()) == DISCREPANCY_CSV_BODIES[args], args


@pytest.mark.parametrize("command", sorted(CLI_CSV_BODIES))
def test_cli_csv_body_is_pinned(command, capsys):
    _assert_recorded_versions()
    argv = [str(HERE / a) if a.endswith(".json") else a for a in command.split()]
    assert run(argv) == 0
    header, body = capsys.readouterr().out.split("\n", 1)
    assert header.startswith("# steinclt-csv v1")
    assert _sha256(body.encode()) == CLI_CSV_BODIES[command], command


@pytest.mark.parametrize("shape, k, eps", sorted(OMEGA_STAR_HEX))
def test_ellipsoid_shell_mass_is_pinned(shape, k, eps):
    _assert_recorded_versions()
    C = Ellipsoid(*SHELL_ELLIPSOIDS[shape, k])
    assert float.hex(omega_star_hat(C, eps, 0.3)) == OMEGA_STAR_HEX[shape, k, eps]
