import math
import multiprocessing as mp
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtr

from steinclt import (
    Ball,
    HalfSpace,
    IndicatorFunction,
    MomentSummary,
    NonIIDSource,
    RngStream,
    SetFamily,
    SteinSolution,
    default_family,
    delta_hat,
    gaussian_measure,
    exponential_source,
    gamma_star_hat,
    gaussian_source,
    laplacian_drift,
    make_source,
    moment_summary,
    noniid_catalog,
    normalizer_matrix,
    rademacher_source,
    sample_sum,
    smoothed_target,
    stein_discrepancy_hat,
    uniform_source,
)
from steinclt import sources
from steinclt.errors import DegeneracyError, DomainError
from steinclt.sources import BLOCK_SIZE

from conftest import _VECTOR_SCALES


def test_moment_closed_forms():
    assert rademacher_source(3).rho3 == pytest.approx(3.0**1.5, abs=1e-14)
    assert gaussian_source(1).rho3 == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-13)
    assert uniform_source(1).rho3 == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, abs=1e-14)
    assert exponential_source(1).rho3 == pytest.approx(12.0 / math.e - 2.0, abs=1e-13)


def test_rho3_quadrature_vs_monte_carlo():
    for factory in (uniform_source, exponential_source):
        src = factory(2)
        summary = src.rho3_summary()
        draws = src.sum_sampler(RngStream(101, stream_id=1).generator(), 1 << 19, 2, 1)
        mc = np.power(np.sum(draws * draws, axis=1), 1.5)
        se = float(np.std(mc) / math.sqrt(len(mc)))
        assert summary.rho3 == pytest.approx(float(np.mean(mc)), abs=4 * se)


# rho3 as the library computed it before the 1-D integral, (rho3, its stated
# error) per (law, k): a 32^k against 64^k tensor grid at k <= 4 and 2^20 Monte
# Carlo draws at k = 5
_NUMERIC_RHO3 = {
    ("uniform", 2): (3.25892694806509, 2.0347853624258505e-07),
    ("uniform", 3): (5.723019983508481, 1.2425080520017673e-08),
    ("uniform", 4): (8.607075301502588, 7.685425629233578e-10),
    ("uniform", 5): (11.860573703555904, 0.006675881028731785),
    ("exponential", 2): (5.285503892858394, 0.00018733388675418183),
    ("exponential", 3): (8.535775576435022, 5.801595806786963e-05),
    ("exponential", 4): (12.119989633731327, 1.7235131535286996e-05),
    ("exponential", 5): (15.952773420680755, 0.03949652381990737),
}


_CLOSED_RHO3 = [(name, k) for name in ("gaussian", "rademacher") for k in (1, 2, 3, 4, 8, 32, 128)]


@pytest.mark.parametrize("name, k", _CLOSED_RHO3 + [("uniform", 1), ("exponential", 1)])
def test_rho3_integral_matches_the_closed_forms(name, k):
    value, error = sources._rho3_integral(name, (1.0,) * k)
    exact = make_source(name, k).rho3
    assert value == pytest.approx(exact, rel=1e-8)
    # the stated error bound covers the error
    assert abs(value - exact) <= error <= 1e-7 * exact


@pytest.mark.parametrize("name, k", sorted(_NUMERIC_RHO3))
def test_rho3_integral_agrees_with_the_grid_and_monte_carlo_it_replaced(name, k):
    summary = make_source(name, k).rho3_summary()
    old, old_error = _NUMERIC_RHO3[name, k]
    if k <= 4:
        assert abs(summary.rho3 - old) <= old_error + 1e-8
    else:
        assert abs(summary.rho3 - old) <= 4.0 * old_error


def _traced_peak_mib(fn):
    """Peak bytes numpy and Python allocate while fn runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [4, 128])
def test_rho3_integral_holds_no_grid(k):
    # the 64^k tensor grid it replaced peaked at 258 MiB at k = 4
    sources._rho3_integral.cache_clear()
    assert _traced_peak_mib(lambda: sources._rho3_integral("exponential", (1.0,) * k)) <= 1.0


def test_a_uniform_block_holds_one_small_chunk_of_raw_words():
    # 1 MiB chunks and a scaled copy of the block peaked at 2.38 MiB
    src = uniform_source(3)
    assert _traced_peak_mib(lambda: sample_sum(src, 256, RngStream(5), size=BLOCK_SIZE)) <= 1.5


def test_rho3_moment_floor():
    for name in ("gaussian", "rademacher", "uniform", "exponential"):
        for k in (1, 2, 3):
            src = make_source(name, k)
            assert src.rho3 >= k**1.5 - 1e-9


def test_source_mean_and_covariance():
    for name in ("gaussian", "rademacher", "uniform", "exponential"):
        gen = RngStream(102, stream_id=2).generator()
        draws = make_source(name, 2).sum_sampler(gen, 1 << 19, 2, 1)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.01
        assert np.max(np.abs(np.cov(draws.T) - np.eye(2))) < 0.01


def test_sample_sum_support_rademacher():
    src = rademacher_source(2)
    for n in (1, 4, 7, 64):
        draws = sample_sum(src, n, RngStream(103 + n), size=4096)
        lattice = set(((2.0 * np.arange(n + 1) - n) / math.sqrt(n)).tolist())
        support = set(np.unique(draws).tolist())
        # at n = 64 the outer lattice points have probability 2^-64 or so
        assert support == lattice if n < 64 else support < lattice


def test_sample_sum_gaussian_stability():
    src = gaussian_source(2)
    draws = sample_sum(src, 16, RngStream(104), size=1 << 19)
    assert np.max(np.abs(np.cov(draws.T) - np.eye(2))) < 0.01


def test_sample_sum_covariance_all_sources():
    for name in ("rademacher", "uniform", "exponential"):
        src = make_source(name, 2)
        draws = sample_sum(src, 16, RngStream(105), size=1 << 18)
        assert np.max(np.abs(np.cov(draws.T) - np.eye(2))) < 0.015


# n = 1, 9 and 13 leave pad bits in the last byte of a coordinate's signs
@pytest.mark.parametrize("n", (1, 4, 9, 13))
def test_sample_sum_rademacher_matches_binomial_pmf(n):
    m = 1 << 16
    draws = sample_sum(rademacher_source(2), n, RngStream(121, stream_id=n), size=m)
    lattice = (2.0 * np.arange(n + 1) - n) / math.sqrt(n)
    pmf = np.array([math.comb(n, j) for j in range(n + 1)]) / 2.0**n
    for col in draws.T:
        counts = np.array([np.count_nonzero(col == v) for v in lattice])
        assert counts.sum() == m
        z = (counts - m * pmf) / np.sqrt(m * pmf * (1.0 - pmf))
        assert np.max(np.abs(z)) < 4.5, z


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("n", (1, 4, 8, 9, 13, 64, 65, 256))
def test_iid_rademacher_sum_is_the_flat_noniid_sum_on_its_lattice(k, n):
    # both take bit l of byte g of a coordinate's ceil(n/8) raw bytes as the sign of summand
    # 8g + l; the iid law adds the signs exactly, the flat non-iid one adds sqrt(1/n) n times
    stream, m = RngStream(132, stream_id=8 * k + n), 4096
    draws = sample_sum(rademacher_source(k), n, stream, size=m)
    flat = sample_sum(noniid_catalog("rademacher", k, n, "flat"), n, stream, size=m)
    assert np.max(np.abs(draws - flat)) <= 1e-15
    assert np.isin(draws, (2.0 * np.arange(n + 1) - n) / math.sqrt(n)).all()


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("n", (1, 4, 8, 9, 13, 64, 65, 256))
def test_lattice_indices_are_the_rows_sample_sum_draws(k, n):
    # digits in radix n + 1, coordinate 0 most significant: the rows' bits and their order
    src, stream, m = rademacher_source(k), RngStream(133, stream_id=8 * k + n), 4096
    draws, index = sample_sum(src, n, stream, size=m), sources._sample_index(src, n, stream, m)
    assert index.dtype == np.int64 and 0 <= index.min() and index.max() < (n + 1) ** k
    assert np.array_equal(sources._lattice_points(index, k, n), draws)
    order = np.lexsort(draws.T[::-1])
    assert np.all(np.diff(index[order]) >= 0)


def test_only_iid_rademacher_rows_with_int64_lattice_indices_are_drawn_as_indices():
    assert sources._lattice_indexed(rademacher_source(7), 255)  # 2^56 lattice points
    assert not sources._lattice_indexed(rademacher_source(8), 255)  # 2^64
    assert not sources._lattice_indexed(noniid_catalog("rademacher", 2, 8), 8)
    assert not sources._lattice_indexed(uniform_source(2), 8)


def test_sample_sum_exponential_third_moment():
    # S_n = (Gamma(n, 1) - n)/sqrt(n) has mean 0, variance 1, skewness 2/sqrt(n)
    for n in (4, 16):
        draws = sample_sum(exponential_source(2), n, RngStream(122 + n), size=1 << 18)
        cubes = draws**3
        se = cubes.std(axis=0) / math.sqrt(len(draws))
        assert np.all(np.abs(cubes.mean(axis=0) - 2.0 / math.sqrt(n)) < 5.0 * se)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.01
        assert np.max(np.abs(draws.var(axis=0) - 1.0)) < 0.02


def test_sample_sum_uniform_two_summands_follow_the_triangular_cdf():
    # U_1 + U_2 for U uniform on [-a, a] is triangular on [-2a, 2a]
    a, m = math.sqrt(3.0), 1 << 18
    draws = sample_sum(uniform_source(2), 2, RngStream(123), size=m)
    assert np.max(np.abs(draws)) < 2.0 * a / math.sqrt(2.0)
    for x in (-2.2, -1.2, -0.5, 0.0, 0.4, 1.0, 2.0):
        t = x * math.sqrt(2.0)
        cdf = (t + 2 * a) ** 2 / (8 * a * a) if t <= 0 else 1 - (2 * a - t) ** 2 / (8 * a * a)
        counts = np.count_nonzero(draws <= x, axis=0)
        z = (counts - m * cdf) / math.sqrt(m * cdf * (1.0 - cdf))
        assert np.max(np.abs(z)) < 4.5, (x, z)


@pytest.mark.parametrize("n", (16, 256))
def test_sample_sum_uniform_moments(n):
    # E S = 0, E S^2 = 1 and E S^4 = 3 + (E U^4 - 3)/n = 3 - 6/(5n)
    m = 1 << 18
    draws = sample_sum(uniform_source(2), n, RngStream(126 + n), size=m)
    for power, moment in ((1, 0.0), (2, 1.0), (4, 3.0 - 6.0 / (5.0 * n))):
        f = draws**power
        z = (f.mean(axis=0) - moment) / (f.std(axis=0) / math.sqrt(m))
        assert np.max(np.abs(z)) < 4.5, (power, z)


@pytest.mark.parametrize("k, n", [(3, 13), (2, 16)])
def test_sample_sum_matches_its_summands_from_the_raw_words(k, n):
    # the summands taken one by one from the same Philox words, in float64
    m = 64
    words = RngStream(129).generator().bit_generator.random_raw(m * k * n // 4 + 1)
    u = words.view("<u2")[: m * k * n].reshape(m, k, n).astype(float)
    expect = (math.sqrt(3.0) * (2.0 * (u + 0.5) / 2.0**16 - 1.0)).sum(axis=2) / math.sqrt(n)
    draws = sample_sum(uniform_source(k), n, RngStream(129), size=m)
    np.testing.assert_allclose(draws, expect, rtol=0, atol=1e-13)
    # non-iid Rademacher: ceil(n/8) bytes per coordinate, bit l of byte g signs component 8g + l
    src = noniid_catalog("rademacher", k, n)
    scales = np.array([float(sc) for _, sc in src.components])
    n_bytes = -(-n // 8)
    words = RngStream(129).generator().bit_generator.random_raw(m * k * n_bytes // 8 + 1)
    data = words.view(np.uint8)[: m * k * n_bytes].reshape(m * k, n_bytes)
    signs = 2.0 * np.unpackbits(data, axis=1, bitorder="little")[:, :n] - 1.0
    draws = sample_sum(src, n, RngStream(129), size=m)
    np.testing.assert_allclose(draws.ravel(), signs @ scales, rtol=0, atol=1e-13)
    # iid Rademacher: the same bits, their signs added exactly
    draws = sample_sum(rademacher_source(k), n, RngStream(129), size=m)
    assert np.array_equal(draws.ravel(), signs.sum(axis=1) / math.sqrt(n))


class _RawWords:
    """A generator whose bit generator (itself) hands out the given raw 64-bit words in turn."""

    def __init__(self, words):
        self.words, self.used, self.bit_generator = words, 0, self

    def random_raw(self, size):
        self.used += size
        return self.words[self.used - size:self.used]


def test_uniform_summand_is_exact_over_its_whole_grid(monkeypatch):
    # every 16-bit word once, so the moments are the law's, not a sample's; small
    # chunks make the words cross chunk boundaries
    monkeypatch.setattr(sources, "_CHUNK_BYTES", 1000)
    grid = _RawWords(np.arange(1 << 16, dtype="<u2").view("<u8"))
    y = sources._uniform_sum(grid, 1 << 16, 1, 1)[:, 0]
    assert len(np.unique(y)) == 1 << 16 and np.max(np.abs(y)) < math.sqrt(3.0)
    assert math.fsum(y) == 0.0
    assert math.fsum(y**2) / (1 << 16) == pytest.approx(1.0 - 2.0**-32, rel=1e-15, abs=0)
    # E |Y|^3 of the continuous law, 3 sqrt3 / 4, within 5e-10 relative
    m3 = math.fsum(np.abs(y) ** 3) / (1 << 16)
    assert m3 == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, rel=5e-10)


@pytest.mark.parametrize("n", [65537, 65538])
def test_uniform_sum_of_top_words_does_not_wrap(n):
    # n (2^16 - 1) is 2^32 - 1 at n = 65537 and past 2^32 at n = 65538
    top = _RawWords(np.full(n, 2**64 - 1, dtype=np.uint64))
    y = sources._uniform_sum(top, 1, 1, n)[0, 0]
    assert y == pytest.approx(math.sqrt(3.0 * n) * (1.0 - 2.0**-16), rel=1e-14)


@pytest.mark.parametrize(
    "src, n",
    [
        (uniform_source(3), 5),
        (uniform_source(2), 256),
        (noniid_catalog("rademacher", 3, 13), 13),
        (noniid_catalog("rademacher", 2, 256), 256),
        (rademacher_source(3), 13),
        (rademacher_source(2), 256),
    ],
    ids=["uniform-k3-n5", "uniform-k2-n256", "noniid-k3-n13", "noniid-k2-n256",
         "rademacher-k3-n13", "rademacher-k2-n256"],
)
def test_sample_sum_draws_do_not_depend_on_chunking(src, n, monkeypatch):
    m = 1001
    draws = sample_sum(src, n, RngStream(127), size=2 * m)
    assert np.array_equal(sample_sum(src, n, RngStream(127), size=m), draws[:m])
    # chunks of a few bytes cut rows in the middle of a Philox word, and 8 or
    # 40 bytes hold less than one row
    for chunk_bytes in (8, 40, 1000, 1 << 18, 1 << 20):
        monkeypatch.setattr(sources, "_CHUNK_BYTES", chunk_bytes)
        assert np.array_equal(sample_sum(src, n, RngStream(127), size=2 * m), draws), chunk_bytes


@pytest.mark.parametrize("n", (16, 256))
def test_sample_sum_noniid_rademacher_mean_and_covariance(n):
    # first and second moments as z-scores, per seed and pooled over 20 seeds
    src, m = noniid_catalog("rademacher", 2, n), 1 << 13
    pooled = []
    for seed in range(20):
        draws = sample_sum(src, n, RngStream(300 + seed), size=m)
        f = np.column_stack(
            [draws, draws[:, 0] ** 2 - 1.0, draws[:, 0] * draws[:, 1], draws[:, 1] ** 2 - 1.0]
        )
        z = f.mean(axis=0) / (f.std(axis=0) / math.sqrt(m))
        assert np.max(np.abs(z)) < 4.5, (seed, z)
        pooled.append(f)
    f = np.concatenate(pooled)
    z = f.mean(axis=0) / (f.std(axis=0) / math.sqrt(len(f)))
    assert np.max(np.abs(z)) < 4.5, z


def test_sample_sum_noniid_rademacher_two_components_hit_four_points():
    src, m = noniid_catalog("rademacher", 2, 2), 1 << 16
    (_, a), (_, b) = src.components
    points = [sa * float(a) + sb * float(b) for sa in (-1.0, 1.0) for sb in (-1.0, 1.0)]
    draws = sample_sum(src, 2, RngStream(128), size=m)
    for col in draws.T:
        counts = np.array([np.count_nonzero(col == v) for v in points])
        assert counts.sum() == m
        z = (counts - m / 4.0) / math.sqrt(m * 3.0 / 16.0)
        assert np.max(np.abs(z)) < 4.5, z


# S_8 of these non-iid sources at RngStream(131), size=3, drawn component by
# component, each component one summand of its law's `sum_sampler`; the
# gaussian and exponential rows are those of the former per-summand samplers
# (`standard_gamma(1)` draws as `standard_exponential`), the uniform row is on
# the 16-bit grid since 0.8.0
_COMPONENT_LOOP_DRAWS = {
    "gaussian": [0.34733830537383403, -1.238539119290937, -0.746079226011456,
                 -0.16140525249418627, -0.015054122740381398, -0.8079834348341355],
    "uniform": [0.8778840962644265, 0.14561183162336444, 0.33752189207455907,
                1.7106482849639524, -0.4106181182352556, 0.0655820333213255],
    "exponential": [0.25555174269625125, -1.3610935544090388, 1.2924397299081682,
                    0.7432914162834474, -0.96992306833123, -0.4508056448215673],
}


def test_other_noniid_sources_keep_their_draws():
    for name, expected in _COMPONENT_LOOP_DRAWS.items():
        draws = sample_sum(noniid_catalog(name, 2, 8), 8, RngStream(131), size=3)
        assert draws.ravel().tolist() == expected, name
    # vector-scaled Rademacher components keep the component loop too, each
    # component's signs from raw Philox bits since 0.8.0
    src = NonIIDSource([(rademacher_source(2), [0.6, 0.8]), (rademacher_source(2), [0.8, 0.6])])
    draws = sample_sum(src, 2, RngStream(131), size=3)
    assert draws.ravel().tolist() == [-0.20000000000000007, 1.4, 0.20000000000000007,
                                      -0.20000000000000007, -1.4, -0.20000000000000007]


@pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), True, "4", None, -1])
def test_sample_sum_and_delta_hat_reject_bad_counts(bad):
    src, fam = rademacher_source(1), default_family(1)
    for name in ("gaussian", "rademacher", "uniform", "exponential"):
        with pytest.raises(DomainError):
            make_source(name, bad)
        with pytest.raises(DomainError):
            noniid_catalog(name, 2, bad)
        with pytest.raises(DomainError):
            noniid_catalog(name, bad, 4)
    with pytest.raises(DomainError):
        sample_sum(src, bad, RngStream(124), size=8)
    # a negative or fractional size reached numpy, which raised ValueError or TypeError
    with pytest.raises(DomainError):
        sample_sum(src, 4, RngStream(124), size=bad)
    with pytest.raises(DomainError):
        delta_hat(src, bad, fam, 4096, RngStream(124))
    with pytest.raises(DomainError):
        delta_hat(src, 4, fam, bad, RngStream(124))
    # the iid Rademacher lattice path of mean_over_blocks read n before it was checked
    ball = Ball(np.zeros(1), 1.0)
    with pytest.raises(DomainError):
        stein_discrepancy_hat(src, bad, 0.5, ball, 64, RngStream(124))
    with pytest.raises(DomainError):
        gamma_star_hat(src, bad, 0.5, ball, 0.1, 64, RngStream(124))


def test_integral_float_counts_are_accepted():
    src, fam = exponential_source(1), default_family(1)
    a = sample_sum(src, 4.0, RngStream(125), size=8)
    assert np.array_equal(a, sample_sum(src, 4, RngStream(125), size=8))
    e = delta_hat(src, np.int64(4), fam, 4096.0, RngStream(125))
    assert e == delta_hat(src, 4, fam, 4096, RngStream(125))


def test_sample_sum_deterministic():
    src = uniform_source(3)
    a = sample_sum(src, 8, RngStream(7), size=16)
    b = sample_sum(src, 8, RngStream(7), size=16)
    assert np.array_equal(a, b)


def test_noniid_requires_unit_total_covariance():
    base = gaussian_source(2)
    with pytest.raises(DomainError):
        NonIIDSource([(base, 0.9), (base, 0.1)])  # 0.81 + 0.01 != 1
    # scalar and per-coordinate scales mix; each coordinate's variances must sum to 1
    NonIIDSource([(base, [0.6, 0.8]), (base, math.sqrt(0.2)), (base, [math.sqrt(0.44), 0.4])])
    with pytest.raises(DomainError):
        NonIIDSource([(base, [0.6, 0.8]), (base, [0.8, 0.5])])
    with pytest.raises(ValueError):
        NonIIDSource([(base, [0.6, 0.8, 0.0]), (base, [0.8, 0.6, 1.0])])  # not a k-vector


@pytest.mark.parametrize(
    "scales",
    [([0.6], [0.8]), (math.nan, 1.0), ([0.6, math.nan], [0.8, 0.6]), (math.inf, 1.0)],
    ids=["length-1-vector", "nan", "nan-coordinate", "inf"],
)
def test_noniid_scale_is_a_finite_scalar_or_k_vector(scales):
    # a length-1 vector broadcast through sampling and the covariance check, but
    # the third moment took its length as the dimension (beta3 1.1617 where the
    # scalar scales give 2.7372); a NaN scale passed the covariance check and
    # gave a NaN summary
    with pytest.raises(DomainError, match="be a finite scalar or length-2 vector"):
        NonIIDSource([(gaussian_source(2), sc) for sc in scales])


def test_noniid_moments_and_inequalities():
    for base_name in ("gaussian", "rademacher", "uniform", "exponential"):
        for k in (1, 2, 3):
            src = noniid_catalog(base_name, k, 16)
            summary = src.moment_summary()
            assert summary.beta3 is not None and summary.gamma3 is not None
            assert summary.gamma3 <= k**1.5 * summary.beta3 + 1e-12
            assert summary.beta3 > 0


def _monte_carlo_moments(src):
    """(beta3, gamma3) and their standard errors from 2^18 draws per component, the
    estimator that vector-scaled sources took before `_rho3_integral`."""
    gen = RngStream(src.n * 1009 + src.k, stream_id=414).generator()
    m = 1 << 18
    sums = np.zeros((2, 2))
    for base, sc in src.components:
        draws = sc * base.sum_sampler(gen, m, src.k, 1)
        norm3 = np.power(np.sum(draws * draws, axis=1), 1.5)
        abs3 = np.power(np.sum(np.abs(draws), axis=1), 3)
        sums += [[norm3.mean(), norm3.var() / m], [abs3.mean(), abs3.var() / m]]
    return sums[:, 0], np.sqrt(sums[:, 1])


def _criterion_10_source():
    d0 = RngStream(6, stream_id=60).generator().uniform(0.1, 0.7, size=3)
    return NonIIDSource([(uniform_source(3), d0), (uniform_source(3), np.sqrt(1.0 - d0**2))])


@pytest.mark.parametrize("build", [
    lambda: NonIIDSource([(uniform_source(2), s) for s in _VECTOR_SCALES]),
    _criterion_10_source,
    lambda: NonIIDSource([(exponential_source(2), [0.6, 0.8]), (gaussian_source(2), [0.8, 0.6])]),
])
def test_vector_scaled_moments_agree_with_monte_carlo(build):
    src = build()
    summary = src.moment_summary()
    means, std_errors = _monte_carlo_moments(src)
    assert abs(summary.beta3 - means[0]) <= 4.0 * std_errors[0]
    assert abs(summary.gamma3 - means[1]) <= 4.0 * std_errors[1]
    assert 0.0 < summary.estimation_error <= 1e-7


def test_vector_scaled_rademacher_moments_are_exact():
    # |Y_i| = 1, so E ||d Y||^3 = ||d||^3 and E (sum_i d_i |Y_i|)^3 = (sum_i d_i)^3
    summary = NonIIDSource([(rademacher_source(2), d) for d in _VECTOR_SCALES]).moment_summary()
    beta3 = sum(np.linalg.norm(d) ** 3 for d in _VECTOR_SCALES)
    assert abs(summary.beta3 - beta3) <= summary.estimation_error <= 1e-7
    assert summary.gamma3 == pytest.approx(sum(d.sum() ** 3 for d in _VECTOR_SCALES), rel=1e-12)


@pytest.mark.parametrize("name", ["gaussian", "rademacher", "uniform", "exponential"])
def test_equal_vector_scales_give_the_scalar_moments(name):
    s = math.sqrt(0.5)
    base = make_source(name, 3)
    vector = NonIIDSource([(base, [s, s, s])] * 2).moment_summary()
    scalar = NonIIDSource([(base, s)] * 2).moment_summary()
    assert vector.gamma3 == pytest.approx(2.0 * s**3 * base.gamma3_base(), rel=1e-12, abs=0.0)
    assert vector.gamma3 == pytest.approx(scalar.gamma3, rel=1e-12, abs=0.0)
    assert vector.beta3 == pytest.approx(scalar.beta3, rel=1e-8, abs=0.0)
    # zero scales contribute nothing
    padded = NonIIDSource([(base, [s, s, s])] * 2 + [(base, [0.0, 0.0, 0.0])]).moment_summary()
    assert (padded.beta3, padded.gamma3) == (vector.beta3, vector.gamma3)
    # a scale enters through its magnitude, as it does in Cov X_j
    flipped = NonIIDSource([(base, -s), (base, [-s, s, -s])]).moment_summary()
    assert (flipped.beta3, flipped.gamma3) == pytest.approx((vector.beta3, vector.gamma3), rel=1e-8)


def test_noniid_rademacher_gamma_equality():
    # sum |Y_i| = k a.s., so gamma3 = k^3 sum sigma^3 = k^{3/2} beta3 exactly
    src = noniid_catalog("rademacher", 2, 8)
    summary = src.moment_summary()
    assert summary.gamma3 == pytest.approx(2.0**1.5 * summary.beta3, rel=1e-12)


def test_normalizer_matrix_iid_case():
    # Cov X_j = I/n gives the scalar sqrt(n/(n-1))
    n = 8
    base = gaussian_source(2)
    src = NonIIDSource([(base, math.sqrt(1.0 / n))] * n)
    N = normalizer_matrix(src, 0)
    expect = math.sqrt(n / (n - 1.0)) * np.eye(2)
    assert np.max(np.abs(N - expect)) <= 1e-12


def test_normalizer_matrix_diagonal_closed_form():
    gen = RngStream(106, stream_id=3).generator()
    d0 = gen.uniform(0.1, 0.7, size=3)
    d1 = np.sqrt(1.0 - d0**2)
    base = uniform_source(3)
    src = NonIIDSource([(base, d0), (base, d1)])
    for j, d in ((0, d0), (1, d1)):
        N = normalizer_matrix(src, j)
        expect = np.diag((1.0 - d**2) ** -0.5)
        assert np.max(np.abs(N - expect)) <= 1e-12


def test_normalizer_matrix_zero_cov_is_identity():
    base = gaussian_source(2)
    # a component with zero scale contributes nothing
    src = NonIIDSource([(base, 0.0), (base, 1.0)])
    assert np.max(np.abs(normalizer_matrix(src, 0) - np.eye(2))) <= 1e-14


def test_normalizer_matrix_degenerate_raises():
    base = gaussian_source(1)
    src = NonIIDSource([(base, 1.0), (base, 0.0)])
    with pytest.raises(DegeneracyError):
        normalizer_matrix(src, 0)


def test_normalizer_matrix_beyond_beta3_cap_raises():
    # a summary whose beta3 understates Cov X_j breaks the cap
    # 1 / (1 - beta3^(2/3)) on |N_j|^2, which must fail with a typed error
    class UnderstatedSource(NonIIDSource):
        def moment_summary(self):
            return MomentSummary(estimation_error=0.0, beta3=0.5, gamma3=0.5)

    base = gaussian_source(1)
    src = UnderstatedSource([(base, math.sqrt(0.9)), (base, math.sqrt(0.1))])
    with pytest.raises(DegeneracyError):
        normalizer_matrix(src, 0)


def test_normalizer_matrix_evaluates_the_moment_summary_once(monkeypatch):
    # every N_j checks the beta3 cap; the components' moments are evaluated
    # once per source, not once per j, so a loop over j stays linear
    base, n = uniform_source(2), 8
    calls = []
    gamma3_base = base.gamma3_base
    monkeypatch.setattr(base, "gamma3_base", lambda *a: calls.append(a) or gamma3_base(*a))
    src = NonIIDSource([(base, np.sqrt([j / 36.0, (n + 1 - j) / 36.0])) for j in range(1, n + 1)])
    for j in range(n):
        normalizer_matrix(src, j)
    assert len(calls) == n
    assert src.moment_summary() is src.moment_summary()
    assert len(calls) == n


def test_normalizer_norm_identity():
    src = noniid_catalog("gaussian", 2, 6)
    for j in range(src.n):
        N = normalizer_matrix(src, j)
        A = np.eye(2) - src.covariance(j)
        lhs = np.linalg.norm(N, 2) ** 2
        rhs = np.linalg.norm(np.linalg.inv(A), 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_delta_hat_gaussian_null():
    fam = default_family(2)
    est = delta_hat(gaussian_source(2), 16, fam, 20_000, RngStream(6))
    assert est.value <= 4.0 * max(est.std_error, 1e-4)
    assert 0.0 <= est.value <= 1.0


def test_delta_hat_two_point_law():
    # S_1 = +-1 never lands in the open unit interval
    fam = SetFamily(sets=(Ball(np.zeros(1), 1.0 - 1e-9),))
    est = delta_hat(rademacher_source(1), 1, fam, 4096, RngStream(8))
    assert est.value == pytest.approx(2 * ndtr(1.0) - 1.0, abs=1e-6)


def test_delta_hat_monotone_in_family_size():
    fam = default_family(2)
    small = SetFamily(sets=fam.sets[:100])
    src = rademacher_source(2)
    e_small = delta_hat(src, 4, small, 10_000, RngStream(9))
    e_full = delta_hat(src, 4, fam, 10_000, RngStream(9))
    assert e_full.value >= e_small.value - 1e-12


def test_delta_hat_deterministic_and_recomputed_from_blocks():
    fam = default_family(2)
    M = 40_000
    sizes = (BLOCK_SIZE, BLOCK_SIZE, M - 2 * BLOCK_SIZE)
    measures = np.array([gaussian_measure(C) for C in fam.sets])
    for name in ("gaussian", "rademacher", "uniform", "exponential"):
        src = make_source(name, 2)
        stream = RngStream(10)
        a = delta_hat(src, 8, fam, M, stream)
        b = delta_hat(src, 8, fam, M, RngStream(10))
        assert (a.value, a.std_error) == (b.value, b.std_error), name
        # block b of the estimate is sample_sum on stream.block(b), counted in block order
        counts = sum(
            fam.counts(sample_sum(src, 8, stream.block(b), size)) for b, size in enumerate(sizes)
        )
        freqs = counts / M
        diffs = np.abs(freqs - measures)
        arg = int(np.argmax(diffs))
        p = freqs[arg]
        assert a.value == diffs[arg], name
        assert a.std_error == math.sqrt(p * (1.0 - p) / M), name


def test_stein_discrepancy_recomputed_from_blocks():
    _check_stein_sides_against_blocks(uniform_source(2))


@pytest.mark.parametrize(
    "src",
    [gaussian_source(2), rademacher_source(1), rademacher_source(2), rademacher_source(3),
     noniid_catalog("rademacher", 2, 8, "flat")],
    ids=repr,
)
def test_stein_discrepancy_recomputed_from_all_rows(src):
    # an iid Rademacher block is evaluated on its distinct lattice points and scattered
    # back, any other block as drawn (the flat non-iid Rademacher repeats rows too);
    # either way the estimate is that of every row, bit for bit
    _check_stein_sides_against_blocks(src)


def _check_stein_sides_against_blocks(src):
    # both sides are summed per block of sample_sum(stream.block(b)), in block order
    C = Ball(np.zeros(src.k), 1.2)
    M = 2 * BLOCK_SIZE + 500
    stream = RngStream(13)
    res = stein_discrepancy_hat(src, 8, 0.5, C, M, stream)
    sol = SteinSolution(0.5, IndicatorFunction(C))
    acc = 0
    for b, size in enumerate((BLOCK_SIZE, BLOCK_SIZE, M - 2 * BLOCK_SIZE)):
        X = sample_sum(src, 8, stream.block(b), size)
        d = np.asarray(smoothed_target(sol, X), dtype=float)
        g = np.asarray(laplacian_drift(sol, X), dtype=float)
        acc = acc + np.array([d.sum(), (d * d).sum(), g.sum(), (g * g).sum()])
    d_mean = float(acc[0] / M)
    g_mean = float(acc[2] / M)
    d_var = max(float(acc[1] / M) - d_mean**2, 0.0)
    g_var = max(float(acc[3] / M) - g_mean**2, 0.0)
    assert (res.direct.value, res.direct.std_error) == (d_mean, math.sqrt(d_var / M))
    assert (res.generator_form.value, res.generator_form.std_error) == (
        g_mean, math.sqrt(g_var / M)
    )


def _unique_lattice_rows(src, n, stream, size):
    """The distinct rows of an iid Rademacher block, as `mean_over_blocks` finds them."""
    distinct, inverse = np.unique(sources._sample_index(src, n, stream, size), return_inverse=True)
    return sources._lattice_points(distinct, src.k, n), inverse


@pytest.mark.parametrize("k", [1, 2, 3])
def test_distinct_rows_rebuild_a_rademacher_block(k):
    X = sample_sum(rademacher_source(k), 16, RngStream(7), 4096)
    rows, inverse = _unique_lattice_rows(rademacher_source(k), 16, RngStream(7), 4096)
    # at most (n + 1)^k lattice points among the 4096 rows
    assert len(rows) <= 17**k
    assert np.array_equal(rows[inverse], X)
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_distinct_rows_count_known_multiplicities():
    # k = 2, n = 4: the lattice index is 5 * (+ signs of coordinate 0) + (+ signs of coordinate 1)
    index = np.array([24, 16, 16, 19, 24, 16, 14, 24, 16])
    distinct, inverse = np.unique(index, return_inverse=True)
    rows = sources._lattice_points(distinct, 2, 4)
    assert np.array_equal(rows[inverse], sources._lattice_points(index, 2, 4))
    assert len(np.unique(rows, axis=0)) == len(rows) == 4
    multiplicity = {tuple(row): int(m) for row, m in zip(rows, np.bincount(inverse))}
    assert multiplicity == {(1.0, -1.0): 4, (0.0, 2.0): 1, (2.0, 2.0): 3, (1.0, 2.0): 1}


@pytest.mark.parametrize("name", ["gaussian", "uniform", "exponential"])
def test_distinct_rows_pass_continuous_blocks_whole(name):
    src, stream, seen = make_source(name, 3), RngStream(7), []
    assert not sources._lattice_indexed(src, 16)

    def values(X):
        seen.append(X.copy())
        return [X[:, 0]]

    sources.mean_over_blocks(src, 16, 4096, stream, values)
    assert len(seen) == 1
    assert np.array_equal(seen[0], sample_sum(src, 16, stream.block(0), 4096))


def test_distinct_rows_look_at_whole_rows_not_columns():
    # at n = 1 each column takes two values, but the four rows of the lattice are distinct
    X = sample_sum(rademacher_source(2), 1, RngStream(7), 4096)
    rows, inverse = _unique_lattice_rows(rademacher_source(2), 1, RngStream(7), 4096)
    assert [len(np.unique(column)) for column in X.T] == [2, 2]
    assert np.array_equal(rows, [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(rows[inverse], X)


def test_mean_over_blocks_evaluates_each_distinct_row_once():
    src, M = rademacher_source(2), BLOCK_SIZE + 500
    stream = RngStream(21)
    seen = []

    def values(X):
        seen.append(X.copy())
        return [X[:, 0], X[:, 0] * X[:, 1]]

    means, _ = sources.mean_over_blocks(src, 4, M, stream, values)
    blocks = [sample_sum(src, 4, stream.block(b), s) for b, s in enumerate((BLOCK_SIZE, 500))]
    # the blocks may run concurrently, so match each call to a block whatever their order
    distinct = [np.unique(X, axis=0) for X in blocks]
    assert len(seen) == len(blocks)
    for rows in seen:
        # the 5 x 5 lattice of S_4, each point once
        assert len(rows) == len(np.unique(rows, axis=0)) <= 25
        matches = [b for b, D in enumerate(distinct) if np.array_equal(np.unique(rows, axis=0), D)]
        assert matches
        distinct[matches[0]] = None  # each block is evaluated once
    X = np.concatenate(blocks)
    assert np.allclose(means, [X[:, 0].mean(), (X[:, 0] * X[:, 1]).mean()], rtol=0, atol=1e-12)


def test_fold_blocks_folds_in_block_order_when_blocks_finish_out_of_order():
    def block_sum(b, size):
        if b == 0:
            time.sleep(0.2)  # blocks 1 and 2 finish first when they run concurrently
            return 1e16
        return 1.0

    # (1e16 + 1) + 1 rounds to 1e16 at each step; a sum in finishing order gives 1e16 + 2
    assert sources._fold_blocks(3 * BLOCK_SIZE, block_sum) == 1e16


def test_fold_blocks_raises_the_error_of_a_failing_block():
    def block_sum(b, size):
        if size == 7:  # block 2
            raise DomainError("block 2 failed")
        return 1.0

    with pytest.raises(DomainError, match="block 2 failed"):
        sources._fold_blocks(2 * BLOCK_SIZE + 7, block_sum)


def test_single_block_estimate_runs_in_the_calling_thread():
    threads = []

    def values(X):
        threads.append(threading.get_ident())
        return [np.ones(len(X))]

    means, _ = sources.mean_over_blocks(gaussian_source(2), 4, BLOCK_SIZE, RngStream(25), values)
    assert means.tolist() == [1.0]
    assert threads == [threading.get_ident()]


def test_map_targets_runs_the_first_part_in_the_calling_thread_and_keeps_target_order():
    got = sources.map_targets(lambda i: (i, threading.current_thread().name), range(10))
    assert [i for i, _ in got] == list(range(10))
    names = [name for _, name in got]
    # one contiguous part per usable CPU, each in one thread; the first in the caller
    parts = min(sources._usable_cpus(), 10)
    cuts = [10 * i // parts for i in range(parts + 1)]
    assert names[: cuts[1]] == [threading.current_thread().name] * cuts[1]
    assert all(name.startswith("steinclt-block") for name in names[cuts[1]:])
    assert all(len(set(names[a:b])) == 1 for a, b in zip(cuts, cuts[1:]))


def test_the_block_pool_has_one_thread_fewer_than_the_cpus():
    # the calling thread runs the first part of every split
    pool, cpus = sources._block_pool(), sources._usable_cpus()
    assert (pool is None) == (cpus == 1)
    assert pool is None or pool._max_workers == cpus - 1


def test_a_split_inside_a_part_runs_serially_and_a_one_item_split_unmarked(monkeypatch):
    caller = threading.current_thread().name

    def inner(i):
        return sources.map_targets(lambda j: (i, threading.current_thread().name), range(4))

    monkeypatch.setattr(sources, "_usable_cpus", lambda: 2)
    with ThreadPoolExecutor(2, thread_name_prefix="steinclt-block") as pool:
        monkeypatch.setattr(sources, "_block_pool", lambda: pool)
        got = [y for ys in sources.map_targets(inner, range(2)) for y in ys]
        # each outer part runs its inner split in its own thread
        assert [name for i, name in got if i == 0] == [caller] * 4
        workers = {name for i, name in got if i == 1}
        assert len(workers) == 1 and workers.pop().startswith("steinclt-block")
        assert not sources._in_part.active
        # a one-item split leaves its item free to split
        nested = sources.map_targets(
            lambda _: sources.map_targets(lambda j: threading.current_thread().name, range(4)), [0]
        )
        assert nested[0][:2] == [caller] * 2 and nested[0][2] != caller
        assert not sources._in_part.active


def test_map_targets_raises_the_error_of_a_pool_part():
    def evaluate(i):
        if i == 9:  # the last part, on the pool when there is one
            raise DomainError("target 9 failed")
        return i

    with pytest.raises(DomainError, match="target 9 failed"):
        sources.map_targets(evaluate, range(10))


def _row_values(X):
    return np.stack([X[:, 0], X[:, 0] * X[:, -1], np.cos(X[:, -1])])


# at 40001 rows a three-part split cuts delta_hat's sample inside the middle block
@pytest.mark.parametrize("M", [1000, BLOCK_SIZE, BLOCK_SIZE + 1, 40001, 50000])
def test_delta_hat_and_mean_over_blocks_keep_their_bits_however_the_blocks_split(
    split_source, M, split_three_ways
):
    src, n = split_source
    family = default_family(src.k)

    def run():
        est = delta_hat(src, n, family, M, RngStream(61))
        means, std_errors = sources.mean_over_blocks(src, n, M, RngStream(62), _row_values)
        return est.value.hex(), est.std_error.hex(), means.tobytes(), std_errors.tobytes()

    pooled, serial, three_parts = split_three_ways(run)
    assert pooled == serial == three_parts


# n = 1 and 9 leave pad bits; at k = 3, n = 64 the 50 rows of a 50-row sample are distinct
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 4, 9, 16, 64])
def test_mean_over_blocks_on_lattice_indices_keeps_the_bytes_of_the_row_path(
    k, n, split_three_ways, monkeypatch
):
    src, indexed, sample_index = rademacher_source(k), [], sources._sample_index

    def counting_sample_index(*args):
        indexed.append(args[-1])
        return sample_index(*args)

    def run():
        sizes = (50, 1000, BLOCK_SIZE, BLOCK_SIZE + 1, 50000)
        means = [sources.mean_over_blocks(src, n, M, RngStream(67), _row_values) for M in sizes]
        return [(m.tobytes(), se.tobytes()) for m, se in means]

    monkeypatch.setattr(sources, "_sample_index", counting_sample_index)
    lattice = split_three_ways(run)
    assert sum(indexed) == 3 * (51050 + 2 * BLOCK_SIZE + 1)  # every row, on the lattice
    monkeypatch.setattr(sources, "_lattice_indexed", lambda src, n: False)
    rows = split_three_ways(run)
    assert lattice == rows and rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize(
    "src, n, align",
    [
        (gaussian_source(2), 16, 1),
        (uniform_source(2), 16, 1),
        (uniform_source(1), 8, 2),  # 16 raw bytes a row
        (uniform_source(1), 1, 16),  # 2 raw bytes a row
        (rademacher_source(2), 16, 8),  # 4 raw bytes a row
        (noniid_catalog("rademacher", 2, 13), 13, 8),  # 4 raw bytes a row
        (noniid_catalog("uniform", 2, 8), 8, 1),
    ],
    ids=["gaussian", "uniform", "uniform-k1-n8", "uniform-k1-n1", "rademacher",
         "noniid-rademacher", "noniid-uniform"],
)
@pytest.mark.parametrize("M", [1001, 40001, 50000])
def test_delta_hat_gives_two_cpus_row_shares_that_differ_by_at_most_one_alignment_step(
    src, n, align, M, monkeypatch
):
    family, rows, submitted = default_family(src.k), Counter(), []
    pool = ThreadPoolExecutor(1, thread_name_prefix="steinclt-block")

    class RecordingPool:
        def submit(self, fn, *args):
            submitted.append(args)
            return pool.submit(fn, *args)

    class RecordingFamily:
        measures = family.measures

        def counts(self, X):
            rows[threading.get_ident()] += len(X)
            return family.counts(X)

    monkeypatch.setattr(sources, "_block_pool", RecordingPool)
    monkeypatch.setattr(sources, "_usable_cpus", lambda: 2)
    try:
        est = delta_hat(src, n, RecordingFamily(), M, RngStream(64))
    finally:
        pool.shutdown()
    assert len(submitted) == 1 and len(rows) == 2
    caller = rows.pop(threading.get_ident())
    worker = rows.popitem()[1]
    assert caller + worker == M and abs(caller - worker) <= align
    monkeypatch.setattr(sources, "_block_pool", lambda: None)
    assert est == delta_hat(src, n, family, M, RngStream(64))


@pytest.mark.parametrize(
    "src, n", [(rademacher_source(2), 16), (rademacher_source(3), 9), (uniform_source(2), 16)],
    ids=["rademacher-k2-n16", "rademacher-k3-n9", "uniform"],
)
def test_two_cpus_draw_each_row_of_a_raw_word_law_once(src, n, monkeypatch):
    # the second share starts inside block 1 and seeks to its first row there
    drawn, sample = [], sources.sample_sum

    def counting_sample_sum(src, n, stream, size=1):
        drawn.append(size)
        return sample(src, n, stream, size)

    monkeypatch.setattr(sources, "sample_sum", counting_sample_sum)
    monkeypatch.setattr(sources, "_usable_cpus", lambda: 2)
    delta_hat(src, n, default_family(src.k), 50000, RngStream(65))
    assert sum(drawn) == 50000 and len(drawn) == 5


def test_concurrent_callers_share_the_block_pool_and_get_the_serial_estimate():
    # more callers than cores share the pool, each on a fresh family, so every lazy
    # membership plan is first reached from several pool threads at once
    src, M, stream = uniform_source(2), 3 * BLOCK_SIZE, RngStream(27)
    family = default_family(2)

    def fresh():
        return SetFamily(sets=family.sets)

    serial = sum(fresh().counts(sample_sum(src, 16, stream.block(b), BLOCK_SIZE)) for b in range(3))
    results = [None] * 6

    def caller(i):
        counts = fresh().counts
        results[i] = sources._fold_blocks(
            M, lambda b, size: counts(sample_sum(src, 16, stream.block(b), size))
        )

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(r, serial) for r in results)


def _child_delta_hat(args, results):
    results.put(delta_hat(*args))


# a forked child of a process whose pool has run must not wait on the parent's threads
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
@pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="no fork start method")
def test_multi_block_delta_hat_in_a_forked_child():
    args = (uniform_source(2), 16, default_family(2), 2 * BLOCK_SIZE + 100, RngStream(26))
    parent = delta_hat(*args)
    ctx = mp.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_child_delta_hat, args=(args, results))
    child.start()
    try:
        got = results.get(timeout=60)
    finally:
        if child.is_alive():
            child.join(5)
        if child.is_alive():
            child.kill()
        child.join()
    assert got == parent


def test_delta_hat_rejects_small_M():
    with pytest.raises(DomainError):
        delta_hat(gaussian_source(1), 4, default_family(1), 100, RngStream(0))


def test_stein_discrepancy_gaussian_null():
    C = HalfSpace(np.array([1.0, 0.0]), 0.0)
    res = stein_discrepancy_hat(gaussian_source(2), 8, 0.5, C, 4096, stream=RngStream(11))
    assert abs(res.direct.value) <= 4.0 * max(res.direct.std_error, 1e-6)
    assert res.gap <= 4.0 * max(res.combined_std_error, 1e-6)


def test_stein_discrepancy_cross_validation_rademacher():
    C = HalfSpace(np.array([1.0]), 0.0)
    res = stein_discrepancy_hat(rademacher_source(1), 4, 0.5, C, 4096, stream=RngStream(12))
    # the generator form must reproduce the direct smoothing on shared samples
    assert res.gap <= 4.0 * max(res.combined_std_error, 1e-6)
    assert abs(res.direct.value) > 0.0


def test_moment_summary_dispatch():
    s1 = moment_summary(gaussian_source(2))
    assert s1.rho3 is not None and s1.beta3 is None
    s2 = moment_summary(noniid_catalog("uniform", 2, 8))
    assert s2.beta3 is not None and s2.gamma3 is not None


def test_sample_sum_noniid_matches_n():
    src = noniid_catalog("gaussian", 2, 8)
    with pytest.raises(DomainError):
        sample_sum(src, 7, RngStream(13))
    draws = sample_sum(src, 8, RngStream(13), size=1 << 17)
    assert np.max(np.abs(np.cov(draws.T) - np.eye(2))) < 0.02
