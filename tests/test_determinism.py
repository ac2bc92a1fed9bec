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
shell mass is exact in binary.  The measures were recorded with steinclt
0.3.0, and every release from 0.3.1 to 0.8.0 gives the same bytes; the
`check-semigroup` and `check-inequalities` bodies were recorded with 0.5.2,
which takes the 7/8 norm quantile and the Stein weight integrals in closed
form, and hold under 0.8.0.  Every Stein digest was recorded with 0.7.0,
which takes N(t) Gauss-Legendre nodes for the Stein time integral (16 at
t = 0.5 and 1.0, where 64 were taken before), and holds under 0.8.0.

0.8.0 moves three things, and each re-recorded digest is one of them.  Every
`delta`, `bounds`, `dim-scan` and `discrepancy` body moved because each
(source, k, n) cell now draws from `sources.cell_stream` (`child` of the
law's catalog index, then of k, then of n) in place of `child(7k + n)`,
`child(13k + n)`, `child(17k + n)` or a scan's position in its lists, which
let two cells of one command share a stream.  The `check-stein` body moved
because `double_integral_kernel_report` takes a half-space's kernel in closed
form (its `kernel-double-integral` row, from the Gauss-Hermite grid's 0.4023
to 0.3850) and adds the `kernel-double-integral-exact` row.  The non-iid
component loop now draws each component as one summand of its law's
`sum_sampler`; no pinned body here builds such a source with a uniform or
vector-scaled Rademacher component, so no digest moved with it
(`tests/test_sources.py` pins those draws).

Every digest is keyed by the steinclt, numpy and scipy versions recorded with
it.  A steinclt release that moves drawn numbers or printed moments records
new digests; under other versions each test fails and names both rather than
skip, because a digest that cannot be checked has not passed.
"""

import hashlib
import math
from pathlib import Path

import numpy
import pytest
import scipy

import steinclt
from steinclt import (
    Ball, Box, Ellipsoid, HalfSpace, IndicatorFunction, RngStream, SteinSolution, default_family,
    laplacian_drift, omega_star_hat, ou_noise, psi_d1, psi_d2, psi_d3,
)
from steinclt.cli import run
from steinclt.convex import _NCX2_SERIES_Z

HERE = Path(__file__).resolve().parent

RECORDED_VERSIONS = {"steinclt": "0.8.0", "numpy": "2.4.6", "scipy": "1.17.1"}

FAMILY_MEASURES = {
    1: "4f3fd4ff79002b26fa11f3a7a9740c2be3692b65285ac22920d2dfc3869fca0f",
    2: "9dad9655e86338913dc58f3e31f7f20f202c465fb13726d5ee0c435715907d0b",
    3: "1a8ff3bc9f9f212b05f6ac4ce26f01fe87051e7d3c5c69c63a7ae373b20f16a6",
    4: "53b6c421562a8251a634fdc216f240519f23ea3576222745f4672da39b6ac287",
}

CHECK_CSV_BODIES = {
    ("check-inequalities", 3): "35493de4911bc4271bebe5675d497970020922ce4096cf9e659e5a96db9513a1",
    ("check-semigroup", 2): "37061a96b25bbe9264c262ec2bc815525e9f0bdb2d1ef32d89e0d5a59d5dc8e8",
    ("check-stein", 2): "ebc6d684e91ed9078e4fa07e28aa6a54bf19550c62010822daa87fd8e4644541",
}

DISCREPANCY_CSV_BODIES = {
    "--source rademacher --k 1 --n 4 --t 0.5 --M 4096 --seed 7":
        "d7916f85d4429be1be2b8814f8b94dbe9c107b14f322f77bf6ff37d7a8c32fa6",
    "--source gaussian --k 2 --n 16 --M 4096 --seed 7":
        "9f646d3becf3b0cfb16c82aa7cf2f7ec61ed8fba352ec35291bbddb52d7d02ab",
}

# full command lines; a `.json` argument names a file next to this one
CLI_CSV_BODIES = {
    "delta --source uniform --k 2 --n 16 --M 4096 --seed 7 --family family_k2_ellipsoid.json":
        "3159b89821f445ab5520e50a216e51701401ede507941b870119b7ec8625d5ae",
    "delta --source rademacher --k 1,2,3 --n 4,16,64 --M 20000 --seed 7":
        "e7b1f5164ac93aa2ac24f0159080cef48a72c7c6e66d9c7b79b931a28f6c8bdd",
    "delta --source uniform --k 1 --n 4,256 --M 20000 --seed 7":
        "9d2880e07297459e4cdbcfd557a9d43881510116b8142e49c10fc3b820399f1d",
    "delta --source exponential --k 1 --n 4,256 --M 20000 --seed 7":
        "9c13666698e48c8d0a1225ad27a70a49d1126ddaaf903290ffebfeee9420b9e6",
    "bounds --source uniform --k 2 --n 16,64 --M 20000 --seed 7 --constant c=1.0":
        "5c1cd5e1fac538d0d457fb8acb9233e1d05f9a4c09da981399626cd697956d58",
    "bounds --source gaussian --k 1 --n 32 --M 20000 --seed 7 --noniid-profile linear":
        "20063f840de1e949c561e497c682c5636286f07e49c6b208e0db7a6b8d339d5f",
    "dim-scan --source rademacher --k-list 1,2,3,4 --n-list 64 --M 20000 --seed 7":
        "085551027a61c6871cd693b370df26c1e8f60239e03f7b9b84028f522cc49b27",
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


# The Stein solution's gradient and Laplacian side: laplacian_drift, psi_d1
# (every i), psi_d2 at (0, 0) and (k-1, 0), and psi_d3 at (0, 0, 0),
# (0, 0, k-1) and (0, min(1, k-1), k-1), at t = 0.5 on a fixed seeded batch,
# recorded with steinclt 0.7.0, whose time rule takes 16 nodes at t = 0.5 in
# place of 64.  Odd k takes the ball's half-integer density recurrence and
# even k the i0e/i1e one; the batch has rows on both sides of the series
# switch z = 4 (checked below).  The slab has infinite bounds: its second- and
# third-order terms along such a coordinate must take their limit 0, not
# inf * 0 = NaN.
STEIN_T = 0.5
STEIN_ROWS = 24


def _stein_sets(k):
    normal = numpy.linspace(1.0, -0.5, k)
    slab_lower, slab_upper = numpy.full(k, -math.inf), numpy.full(k, math.inf)
    slab_lower[0] = -0.5
    slab_upper[-1] = 1.0 if k > 1 else math.inf
    return {
        "half-space": HalfSpace(normal / numpy.linalg.norm(normal), 0.3),
        "ball": Ball(numpy.zeros(k), 1.5),
        "ball-off-centre": Ball(numpy.linspace(0.5, -0.4, k), 1.2),
        "box": Box(numpy.linspace(-1.0, -0.6, k), numpy.linspace(0.8, 1.3, k)),
        "slab": Box(slab_lower, slab_upper),
    }


def _stein_batch(k):
    return 2.0 * RngStream(41, stream_id=k).generator().standard_normal((STEIN_ROWS, k))


def _stein_outputs(C, X):
    k = X.shape[1]
    sol = SteinSolution(STEIN_T, IndicatorFunction(C))
    d3 = ((0, 0, 0), (0, 0, k - 1), (0, min(1, k - 1), k - 1))
    return {
        "laplacian_drift": laplacian_drift(sol, X),
        "psi_d1": numpy.stack([psi_d1(sol, X, i) for i in range(k)]),
        "psi_d2": numpy.stack([psi_d2(sol, X, idx) for idx in ((0, 0), (k - 1, 0))]),
        "psi_d3": numpy.stack([psi_d3(sol, X, idx) for idx in d3]),
    }


STEIN_DIGESTS = {
    ("half-space", 1): {
        "laplacian_drift": "600c6adb5d2653fe8928f3b0e0ee6ca65f5788e438c0d2da1aefd65eeaf958fa",
        "psi_d1": "195c87e3df328f3f7d474e2f490a738a152682737411b44d9b6aa78fe420a39d",
        "psi_d2": "e9edc64b184ae41fc1bc0bff2f1017ffe5eeef8af699e71166e8510ab9274279",
        "psi_d3": "57eae6c890ee6da26e4e29d40a8a929139fbed5816edc74ffd688e9d66d505e9",
    },
    ("half-space", 2): {
        "laplacian_drift": "be159ac1a8f183c7e43a18e56a77614ac0db301705e6b53b84a29b8f40d72d96",
        "psi_d1": "3b63d46decd69350427cd720063ae9ff1cda227128b7490bc7dd084368eda432",
        "psi_d2": "cb5e5886443c3434b4750173277154e57489b8c370a5a4a23ee463d90ab11046",
        "psi_d3": "8586f8e22c98aadda53e523e0ae00f4d6473084fdb2d090c607f68df46377bc2",
    },
    ("half-space", 3): {
        "laplacian_drift": "6544b4d3323669fec61b0ae5964bfaa88b76284d0e6dc0760832d39b624a59cf",
        "psi_d1": "81c34dab5e7b98455c95b293b225244f7b9e4c8b3022e3ab206ee4bc4ac688e4",
        "psi_d2": "a3273b79aaaee4d670809d0e23813ea379201cce67457654ffeb6b3d6e2266ff",
        "psi_d3": "90c6bfa1aaa218ba7f8ec615aeda62fa6b339d82741d6f0627c904be23557c82",
    },
    ("half-space", 4): {
        "laplacian_drift": "c70f93efc4af32bd3de0bcb657f8caa6486066a8f04de3c9f1659351b929d214",
        "psi_d1": "9e6b95b2e9f75da56fcb88dac551825f5fe5ea9ea8168cd467371f9964d53026",
        "psi_d2": "f952719eeb6d6114f548b378270bffda4993476d1e987a9f888ba31ffe15805c",
        "psi_d3": "840e1cef9597902cea07c2a6ecf934aabfd6ca8bc76622df8b48cf81db5a323a",
    },
    ("ball", 1): {
        "laplacian_drift": "6279a8f4ace214d29895afd47f73a7404871dfc8611e9afd61ac2b3c37f58b9e",
        "psi_d1": "492fe4c3e02ad990ace6158755369274aa08b2317947ce084f50dc33c109643b",
        "psi_d2": "4aa4816a96213a01825a38318ebfa6f4dde0b43c2ed001e2fc77ea511991ae6d",
        "psi_d3": "21ca3fa52e38e16c4cdfd5475a8769ec856371079fe3bda0040e9db2315b3f94",
    },
    ("ball", 2): {
        "laplacian_drift": "885a79baa405f7762e64f2ec23eea80f5ab18265c15d7e24e6d56779d4f209a4",
        "psi_d1": "728372b6493e8b3d1ea8e88a8d0cdb603b987d49851abfc008d65d45fe91071e",
        "psi_d2": "025032ab9176bc53122ff7b3a044d2e6192078cd3e78701f51aa0b447bf11e31",
        "psi_d3": "aac7925876205f39296f816dca2e7107e27fca22382e9ae3527941877a8883a3",
    },
    ("ball", 3): {
        "laplacian_drift": "29db05e7bae61f20e36ef4b051f0c6740b1e1bbd82493c84b0862d2817c14c34",
        "psi_d1": "937d136f90e8a8a921c832fb35e61e6c2b0776350de0888a9c2de1dab60005a4",
        "psi_d2": "3326a55ae5997418b6249cf54f56ae88f445648637fb77c6fb6940bf118b3205",
        "psi_d3": "14d0c1be55f39b4f771dc2f8b40bffc53d78b90bd912c9debf10c37e0ae69287",
    },
    ("ball", 4): {
        "laplacian_drift": "d93eda587b691fc3e556a23d8573cca2c263bfc75797f8b7ab2b4cf9f80d6d6d",
        "psi_d1": "85cf7d747683f0fe2d6668780297bd76b9d93504c3a67d1b591c57ce4e0957e5",
        "psi_d2": "5a13afec2a2729a184386e0f487955ac6b6ff0f9a59f999b3c966f00f263cbc5",
        "psi_d3": "f80f1947c081e3e855912a3d4c81ccb26545431dcdb1caf050c58b061dde70d2",
    },
    ("ball-off-centre", 1): {
        "laplacian_drift": "dae0961b3462c2a8d9aaba8b98fb4b3521a8f1105d8867dc241abeecb14e63b4",
        "psi_d1": "e0085e9d4c15b3a167633ad398c068ef2d4878ea622e9c169bdb1c7f57f5a7e9",
        "psi_d2": "ae5c1dd798c5d7bb17f33e485af4efd19a776682638fd751d341a262372d772a",
        "psi_d3": "a32b857b1812ee1f0cfff9bc44abcb9f66345b95f93ad49b96edf3e12976f862",
    },
    ("ball-off-centre", 2): {
        "laplacian_drift": "ff9145f2f1fd4fb2caffcffc17c7fc168129bc91d494bf4b253b4f8c94f9a883",
        "psi_d1": "8d681dae4b51cefea50ca506a41b29b1184fae98992d43366a1be8b99bc64e33",
        "psi_d2": "7bc4402a7dce3b738b91081d9fb08ea9a5faf5ac4e05571d22e50f0ca003c319",
        "psi_d3": "df0b435f88abb4d8bdcfdcac345fa278b23b9d86b99294967325806bd0923d24",
    },
    ("ball-off-centre", 3): {
        "laplacian_drift": "33c791e59ffd841dd4cc9b369d3d462357700eb536f23e12eeeeb5a09795f24c",
        "psi_d1": "c049023f738100335835378bf5f958f1b8d18786ec20a54434927e03d07c51b9",
        "psi_d2": "ffff4e8a7b9410810da745d9204438df5bfbc37278521bc02cc8209a98cd5139",
        "psi_d3": "91510514b96b71170ffd45308995790be5c806e4e05fac8668b81dca6df2102f",
    },
    ("ball-off-centre", 4): {
        "laplacian_drift": "97d31b215283e9ef7da6d1b62648b43897be0763d4e60e18795edbc4427acf40",
        "psi_d1": "fff5f4a73bb6027f6478bbb3f056553e58ce4edf8534e6373123938ce802636a",
        "psi_d2": "b7a710f3c31114e65f2716c480284802d17280d4ceaca03c6a915c3be47bbb77",
        "psi_d3": "a1c8f069173e0ed4b8dbb65c2afeb4a1675a96e84a31af4ad725d7438245d35c",
    },
    ("box", 1): {
        "laplacian_drift": "704a6b97950813d21fd5f725169d5b98cf04c3b6cdf46866b3236dcf1c363e03",
        "psi_d1": "120d8cdc8da630933b437f0c0739c76364029262b14063ad5e33b8549f574170",
        "psi_d2": "d9657cb7e7a7eeda30a0cbd6393a5f0ed251b302732adebca274e75a4a0abd8e",
        "psi_d3": "a0f2cb2a20c8449c5c056bd79d7a2a7c3394457ade2be6018a31238bf788c83d",
    },
    ("box", 2): {
        "laplacian_drift": "febb6be44bf06ab6f1e86ea066ece78ec7ec8a8bd5cf08eb77b78c7c653effaf",
        "psi_d1": "ab2bb88398c57e86df59809c2ff26164bd547e64a799ace975ff49f0723d0256",
        "psi_d2": "ea0a3df018259e6bf45ee7d4fa4eee4988e86f7d53e4087048faf38dfb13091a",
        "psi_d3": "14ea1b47ad973112498d6cee7e0d827f9dc37b9e1738c162e77f00781cfc5a35",
    },
    ("box", 3): {
        "laplacian_drift": "625f9af658471cddf1782a59b405ac9608685016d413dc38d3c88d69a7909484",
        "psi_d1": "0a7aed38246c50d8dd45169e8e2ec2e299db2645a1be861de00f7a1b961f458a",
        "psi_d2": "72f833d1bd14280871cd27b2e54e6fb82f7a6763dfb5bf3ef4b67f7dcb472689",
        "psi_d3": "45bfbe4ae048775cc47d83ffbe31bab35d3b74d6f8f05bd5485b47c6f3abd5e2",
    },
    ("box", 4): {
        "laplacian_drift": "07b2b87a8f62017ba788c2477d81cd34259f9ce4c840ce3b4f3e5157967a811b",
        "psi_d1": "9098a02f47e3f33bfa134a855b0e85ca500939eeb974030e2cee4f2ca0a735c9",
        "psi_d2": "8de2744ada7786c67b05e2b1c6ed7aad67d9ce176533a2aeb50120ebfe020e18",
        "psi_d3": "6d2b96dff40b77419168f98291b6afa16d8dd5b405a1dde3384ea6937200ee29",
    },
    ("slab", 1): {
        "laplacian_drift": "dbd5ecfa0ad96c2e501d5f8c4f6aabd1a9dbbe77ba75ac4c5fc762747ffc5ab3",
        "psi_d1": "7769955cbbfc5ff414b4d59403ba329df19c6de8d5f7abcf96d548aff4c200fd",
        "psi_d2": "65c3ec2b11b1522201541db1f0867ca2a2550c5c2c5a69614129d244de43aba0",
        "psi_d3": "b7d793e7297625e464c386d5b907b7a682aaea294f3501d798fda0a3ffd260af",
    },
    ("slab", 2): {
        "laplacian_drift": "4461b21c5b3aa0cdbbdb47053123c1e886b79f4b1a6da0dea4d674e0939de815",
        "psi_d1": "9448e6d6b09eb6bd42bdee2985b4df7a6ae9a2df1d9093059543ca14dba0ada5",
        "psi_d2": "e741e36701dee8177cbd37934326ce418d7833726461d8e50404ecee93f4dadb",
        "psi_d3": "19586bec4821c39bede1ddb3221bbb5aab5ba468a9ed1d6df4bbc16ba4963638",
    },
    ("slab", 3): {
        "laplacian_drift": "f6fde171160be841c72ecc5502fae23e782e90b7058b74e8ad91f507d3e00a7c",
        "psi_d1": "4deec1cd5a1b71384ad160f2329b244a3aa6a158850d4d2613bfac157e81375a",
        "psi_d2": "685ad14d9b2d566c033fccefb8dd8eb7f5ee8b76acf26e31c7dbaa0b2b990733",
        "psi_d3": "4d14b2eecf9644568d07b0b1561a2d3e8f5561df1a751c277bfbbaae00262926",
    },
    ("slab", 4): {
        "laplacian_drift": "0fa6dab12fa040f754073fabcf4c27c9239a90cafae4ba1f302f88765ac81164",
        "psi_d1": "557417474dcea284eca356efa1b85412fc5dc4d6a055d35fc9be4b5348a68cd3",
        "psi_d2": "14adfe636931ca908d0df36a2df6618eaa83c39ca48bf0a077e0727ad2d02b4f",
        "psi_d3": "f8322ea43bc49db231e5f360ac13043791eebe6c6b01599cdb0372350a397dca",
    },
}


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_stein_batch_straddles_the_ball_series_switch(k):
    X = _stein_batch(k)
    alpha, w = math.exp(-STEIN_T), ou_noise(STEIN_T)
    for C in (_stein_sets(k)["ball"], _stein_sets(k)["ball-off-centre"]):
        z = C.radius * numpy.linalg.norm(alpha * X - C.center, axis=1) / w**2
        assert (z < _NCX2_SERIES_Z).any() and (z > _NCX2_SERIES_Z).any()


@pytest.mark.parametrize("name", ("half-space", "ball", "ball-off-centre", "box", "slab"))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_stein_derivatives_are_pinned(k, name):
    _assert_recorded_versions()
    got = {
        quantity: _sha256(numpy.ascontiguousarray(values, dtype=float).tobytes())
        for quantity, values in _stein_outputs(_stein_sets(k)[name], _stein_batch(k)).items()
    }
    assert got == STEIN_DIGESTS[name, k]
