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
0.3.0, and every release from 0.3.1 to 0.6.0 gives the same bytes; the check
suites were recorded with 0.5.2, which takes the 7/8 norm quantile and the
Stein weight integrals in closed form, so their ball rows and weight rows
moved in the last bits, and they hold under 0.6.0; the gaussian `discrepancy`
body was recorded with 0.3.2 and matches 0.3.1, and the k = 1 exponential
`delta` body was recorded with 0.3.2 before `SetFamily.counts` compared each
repeated level once.  The three iid Rademacher bodies (`discrepancy`, `delta`
and `dim-scan`) were recorded with 0.4.0, which draws those sums from one raw
Philox bit per sign.  The three uniform bodies (the k = 1 `delta`, the
ellipsoid-family `delta` and the k = 2 `bounds`) were recorded with 0.6.0,
which draws each uniform summand from one 16-bit Philox word in place of a
32-bit one; every other body keeps its 0.3.2 or 0.4.0 bytes under 0.5.0 to
0.6.0.  The Stein derivatives of the ball and the off-centre ball were
recorded with 0.5.1, which sums the noncentral chi-square density series over
a cached coefficient table, so their values moved in the last bits; every
other Stein digest keeps its earlier bytes, and every Stein digest holds
under 0.5.2 and 0.6.0.

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

RECORDED_VERSIONS = {"steinclt": "0.6.0", "numpy": "2.4.6", "scipy": "1.17.1"}

FAMILY_MEASURES = {
    1: "4f3fd4ff79002b26fa11f3a7a9740c2be3692b65285ac22920d2dfc3869fca0f",
    2: "9dad9655e86338913dc58f3e31f7f20f202c465fb13726d5ee0c435715907d0b",
    3: "1a8ff3bc9f9f212b05f6ac4ce26f01fe87051e7d3c5c69c63a7ae373b20f16a6",
    4: "53b6c421562a8251a634fdc216f240519f23ea3576222745f4672da39b6ac287",
}

CHECK_CSV_BODIES = {
    ("check-inequalities", 3): "35493de4911bc4271bebe5675d497970020922ce4096cf9e659e5a96db9513a1",
    ("check-semigroup", 2): "37061a96b25bbe9264c262ec2bc815525e9f0bdb2d1ef32d89e0d5a59d5dc8e8",
    ("check-stein", 2): "6311d2898b11e5c57e3662284e5481f46abe69c852e6a010e6414bb8347164b7",
}

DISCREPANCY_CSV_BODIES = {
    "--source rademacher --k 1 --n 4 --t 0.5 --M 4096 --seed 7":
        "b0d0b2788def21c0a9c5a783b7cddfdc202d710d9044b8455ed22cd3ed41fedc",
    "--source gaussian --k 2 --n 16 --M 4096 --seed 7":
        "8c9145a0f3c3d5bcaac14636853bec29eeed52976d7bec29805bf01dec303e5d",
}

# full command lines; a `.json` argument names a file next to this one
CLI_CSV_BODIES = {
    "delta --source uniform --k 2 --n 16 --M 4096 --seed 7 --family family_k2_ellipsoid.json":
        "bd4d21cd6b70185cc09f943628d542dc6835e1eb26b85b769c89c3f77779947a",
    "delta --source rademacher --k 1,2,3 --n 4,16,64 --M 20000 --seed 7":
        "0e7eab918f4f42e89776318887083e92429287823c88d1fdcda0d5a3877c4604",
    "delta --source uniform --k 1 --n 4,256 --M 20000 --seed 7":
        "3bda06a58f8cdbed018f8de0f3a67fa580a0dfa7b4f8870dd6f98a6deee1cedf",
    "delta --source exponential --k 1 --n 4,256 --M 20000 --seed 7":
        "17e161b20e247d9d07db3f23b96090d82efa9416576eda261a978d13da2aa244",
    "bounds --source uniform --k 2 --n 16,64 --M 20000 --seed 7 --constant c=1.0":
        "8292f5ce64c552db0855a9627746a8a15a18496806858faac2bab7635e25f790",
    "bounds --source gaussian --k 1 --n 32 --M 20000 --seed 7 --noniid-profile linear":
        "6b0c2410016eb70a5a34f4f17455115fe6a125b1a85c717dd51d362e8d6398dd",
    "dim-scan --source rademacher --k-list 1,2,3,4 --n-list 64 --M 20000 --seed 7":
        "555ca67349169ca073fae0acff74b1e1722629023eafe8d115a9b0f314de290e",
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
# recorded with steinclt 0.3.2 while the time integral still called the
# closed forms once per s-node.  Odd k takes the ball's half-integer density
# recurrence and even k the i0e/i1e one; the batch has rows on both sides of
# the series switch z = 4 (checked below).  The slab has infinite bounds: its
# second- and third-order terms along such a coordinate were inf * 0 = NaN
# until the box factor took their limit 0, so its laplacian_drift, psi_d2 and
# psi_d3 were recorded after that mend; its psi_d1 and every other set's
# outputs are the bytes from before it.
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
        "laplacian_drift": "f9796f4477e5db2c1386f03998c71f9699f5faa8ee317583b5a187a3f16059a3",
        "psi_d1": "f5b7aceb47fcbca5f0e1577f9140deb1a75858dfb5a43dcbdb0a8ce91c2bedfa",
        "psi_d2": "cab67ff9ef8ffb3b8d613c43d871361a91d8d754aaf6fdfdc4eeb6e8c7615d80",
        "psi_d3": "0c75c1f707cb50899f563ccd34ccd8eaac890b3e512f338b24d0acf06a18c068",
    },
    ("half-space", 2): {
        "laplacian_drift": "c4171a77e1589239a3f30305377df231f3e2b520aaa25098b415bb91d3e8785c",
        "psi_d1": "4c1cea8d951fc5ea92d0e5ab122ad98b71788c8fe6a129704c0013b23e06af5e",
        "psi_d2": "4c70b97f703c28d07c94ed9a08367bac6032f226ad7d0427d2917a94d7dc4cb4",
        "psi_d3": "d08bd348715ffac90f5113acfb458c8f1f7fa4323abdfe7340e7009e3c3feb11",
    },
    ("half-space", 3): {
        "laplacian_drift": "ea8a60eecc27b2949c04340b12da266efac0cdfd2be321ca8c5a627fef2c6051",
        "psi_d1": "674d4090c3459243ea61cfada9e03172f4c4187edf091e28975bf6b3d24f7b30",
        "psi_d2": "17672e8e952269950965863b01a80c0c1f25ce6de797c66cccd0ad759748e779",
        "psi_d3": "601a76df80416da1f933bc71184ea12c03fdf42f5464a4a95bf64ff6240954e6",
    },
    ("half-space", 4): {
        "laplacian_drift": "21c3d9cb80ee832a8a2ff2e6f3148c09a331c002206490508ff7c5061667ed0a",
        "psi_d1": "312ba3069c1c8901db66fd7296c3848d216d55b04279350498727a232a05bfd0",
        "psi_d2": "60101ab96324dc0a67751aba609cf529e3a4b3fe84796b7ccdf183bea76dbe49",
        "psi_d3": "a89eb08a8af195794b10414e4c81d3f1749232727ef4d9b61e0eb742aba7d4af",
    },
    ("ball", 1): {
        "laplacian_drift": "9e8760ec1306b2c8520937becf83bd49a178f6c19545f9746626c68fb6182c7b",
        "psi_d1": "1b38bb625e17d65bffa50354fc044d85adc24ce6441af9fb3f531a6a8ffd1f4c",
        "psi_d2": "d202ae75c3abf15ae27e60f3d1e0db2fcc1a8aa1ee56b9bb123dfdbb7646864e",
        "psi_d3": "38f2fedd5f509bb6a0dc5c53f86bfcfe92a1ca58e7dd803ec8ba378b84a39d44",
    },
    ("ball", 2): {
        "laplacian_drift": "df18e6428024aa8c188360c7e96d721bff05fb26032ab000a90618fe19a969d5",
        "psi_d1": "d0dc8cace3700cc61acb7b9d1f71d97b1432469786611c0d8f291d4365aeb2b6",
        "psi_d2": "27c81bae3aa3ad8b53a8e9416b0583fe4a91a230224cdebce01dca6dc55482c7",
        "psi_d3": "56c1e813cf89bc05b75c61de414926d5b716481cb986946ff7d8e022209427e7",
    },
    ("ball", 3): {
        "laplacian_drift": "d66ba8ce1bcd4124415e12a8b7c271d58eef227a2a8b259ee4d051b53b9383d6",
        "psi_d1": "7384234478240311671ce9025ca26fbaa7dae063eb851a6527bd1a6ed4384395",
        "psi_d2": "2d93b9fd8b122b19f2c9c6c66ca82db2ca710104018d9d3415902159e89be1d8",
        "psi_d3": "1c045337de59101fde51500357a97e878e908de54892db02e3b0243150425302",
    },
    ("ball", 4): {
        "laplacian_drift": "4ee80f26990c81d458d48625834da75df0e65a0ef3dee62935f5114acd7cfaca",
        "psi_d1": "76ad5917467d6458b9c76f567d2a8b5373d4aebc386dec6c2a89171fe9119a72",
        "psi_d2": "c0b64f61eea9990377d375fd3dc2b424a7687bac4366ac3ac51554939fc22c17",
        "psi_d3": "3857f3ac7798d80c46b863831e29ebfe44a64ca090338591438fd50a1ef82d04",
    },
    ("ball-off-centre", 1): {
        "laplacian_drift": "71abefa62d50a9b0ccc7ef364a8df2069f3a872896228205f14a691f1d3a0659",
        "psi_d1": "9e515f3866d8a32a41efa670500b5e263936ee806c4393443b4d94267cb4fe80",
        "psi_d2": "96c8b2dab939238c19bd4aff7adde9baf20dc9ff387e20946a76c80bfc0b9a19",
        "psi_d3": "dd09059398624f7b6bb05bfbcf55537e6dc6aac2cadac3e6732ffad23dbd38e7",
    },
    ("ball-off-centre", 2): {
        "laplacian_drift": "f331e2e33fab2edca4dfad83bcfae81d92fab1107529abaf95fd17842d7ca44f",
        "psi_d1": "d618c189a439dfd084ea927dd3e730b1699f4a2448cee4a541209a61374a7e8b",
        "psi_d2": "6b0d93312b6e6ecb8c03c0cb667dd7fca51219f08d51cc7d6f68507b82254315",
        "psi_d3": "55ef5bb7c2ea5f0790850d5a5922cb2611144574d75936d428f646fd59afcda0",
    },
    ("ball-off-centre", 3): {
        "laplacian_drift": "09e9709e1bdc4e0112a10101bf0ac8a0c707d31f6f3c2ae632045f34e0456955",
        "psi_d1": "4542114fb2dd48deb917657ff2a0ebc97d1c99a38b10ade4a344b1c3462546d3",
        "psi_d2": "ffdb657a01f0166700ead54296f8fd43338d7b47b36be948795588892741c54d",
        "psi_d3": "c33e4c1f2a40d16f96fdef134259374f02a006e274d6cdcbd7e0a36f19ddf385",
    },
    ("ball-off-centre", 4): {
        "laplacian_drift": "2a7e0478d59289060dc09595c1bd83d4cb6e74075abdcbdfedbdb8ff5c9da15d",
        "psi_d1": "050d3a608f51b5f7eb72723ff69abb83c3319c842ebe69ea0e19eaea265ee6e6",
        "psi_d2": "6841aeca50f42f104d80f473ed8f078992e8f724d70c1b5e27cd57bce392a18c",
        "psi_d3": "840c20b63ad2e917e61c9ae2eea12fd16d7dcb10fab113b9cbf7e6e6b3a4a234",
    },
    ("box", 1): {
        "laplacian_drift": "91f38be319579c7a270040088c1bcc560084acca4c1f7b86d70b798cd8f6d7cc",
        "psi_d1": "a4218f8a9a9abaf6e23acc2220d7b19866b81e33ddaa2a8c5e0a6d42d34f4935",
        "psi_d2": "4b8781aac24000d7758b011d9b0ad8732f2d7ce6952623d8402d0b48a77076e2",
        "psi_d3": "8b8b559d1ae27e91e32aaf851cd26013d2be3800d13389c54fb223c3225e568b",
    },
    ("box", 2): {
        "laplacian_drift": "2a47a156b2e3eb91bec6b2be8175fff05b485d1b24b0d3637b9ce2a786b93bd2",
        "psi_d1": "a107fd2a413a651db1ae9f455c0b7bf68e6dd1a62e993bc2c2cddead192b69ef",
        "psi_d2": "9bde48f10a7e06936ddd4887ffca6b89dc8f445a3fe39204b84eedce0b44f8b1",
        "psi_d3": "6d042ce2c06be209593308a36642130e5048468c755691e449ceb2fa9f1b53bf",
    },
    ("box", 3): {
        "laplacian_drift": "009ecec3ca654c1ed3dbec655d5a3eb4920c0661e6380c126f242ad4b11a2884",
        "psi_d1": "387ae2d9d84f0dcbca3b9353af0a0c4d977b8a1feb0e8df009cb4e7bcece277d",
        "psi_d2": "3903cd62bd71e467eaacd638303a0229c79d74a481c536e76ab5ec7a552e56eb",
        "psi_d3": "e65ac0d8bbc4a5ceb8d4d95b229eece85639ccc3efd2ec3b3b1dca82a7aa4691",
    },
    ("box", 4): {
        "laplacian_drift": "921c0929bd9f8de96bdbb315137f7390350fe62ada8d705b17cc1eea4bc5088c",
        "psi_d1": "f2ec7ad8f57e3ceb29b2dfe4e9b2e68309d69eb2371439a528b0e3a3f51d56a4",
        "psi_d2": "fe8e7f90f9c997b9f40fe6a99204f2f65007504a905d956f46c197d05df44a19",
        "psi_d3": "fb6ff29e16db227841ea2c3c2dadc9ed45e5786c6436ebf8789f9dd32d8e4f4a",
    },
    ("slab", 1): {
        "laplacian_drift": "3a4746bf8b410ac4439af015c74ec0aeb43e2056a58155160186f6c88cc953fd",
        "psi_d1": "d2b1b2f1b1c53f901986ebc65363b74e8004db915f99df33a326a523e04fc2dd",
        "psi_d2": "56e38ba48d755476e4a964e2c78d2d027711e1913e514aee35133fdac7e4a7f9",
        "psi_d3": "ccd1d241a7fe28f55c19b74038a58b4b19332839b563a43c26ec7594ec74c54d",
    },
    ("slab", 2): {
        "laplacian_drift": "73118d4c27c5e908d18feed8fa1ec412d8726d54452edecb55ab5aa76fccdfe1",
        "psi_d1": "2bc8177264481f3ba10923826fbd20a32c7c68139862eef956101e48449c20a0",
        "psi_d2": "2697c3b4126bf81c3ccf830c34524d2412e6c77619aebfdc6c332d8fdb53861f",
        "psi_d3": "5965f84bc28f8e43e286959f24690a3ec75b705e7e23579a9e52beb69fbdb6ed",
    },
    ("slab", 3): {
        "laplacian_drift": "d2a94fd986555cff231eaef06246ffe1f80c51a51b4a5fe70e13c9694a619650",
        "psi_d1": "0a72799abde1ac8d37ba4b3a9a23553e0d509d7f764aa2d4ef49fc3580b5c707",
        "psi_d2": "ab7242dacb7431f38fe6861ed295fd03412ac4fced7c1bb6ee21dd61b0d91ce8",
        "psi_d3": "a85489c5d787b038ae7207a7ef3dc463a939c243b4e18bd526e380e2d3afd607",
    },
    ("slab", 4): {
        "laplacian_drift": "a76bae3d102815c7e9a884750225e3901e8a26bff5d4317497b635799d718963",
        "psi_d1": "57b29c4b1d5e43995c0a8c807906c63fafc53e0f1218e3b2be1598f56b474a68",
        "psi_d2": "ade4b2066e4b51c38943f358f4faf84492635059904e6a8a6ddb5f3ab3e15a3a",
        "psi_d3": "880c02757459c42d249e85b9bf55b6d98a1cdd89f5a11731b37815d544a8ef8b",
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
