import math
import multiprocessing as mp
import sys
import threading
import time

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


def test_moment_closed_forms():
    assert rademacher_source(3).rho3 == pytest.approx(3.0**1.5, abs=1e-14)
    assert gaussian_source(1).rho3 == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-13)
    assert uniform_source(1).rho3 == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, abs=1e-14)
    assert exponential_source(1).rho3 == pytest.approx(12.0 / math.e - 2.0, abs=1e-13)


def test_rho3_quadrature_vs_monte_carlo():
    for factory in (uniform_source, exponential_source):
        src = factory(2)
        summary = src.rho3_summary()
        assert summary.method == "exact"
        draws = src.sample(RngStream(101, stream_id=1).generator(), 1 << 19)
        mc = np.power(np.sum(draws * draws, axis=1), 1.5)
        se = float(np.std(mc) / math.sqrt(len(mc)))
        assert summary.rho3 == pytest.approx(float(np.mean(mc)), abs=4 * se)


def test_rho3_moment_floor():
    for name in ("gaussian", "rademacher", "uniform", "exponential"):
        for k in (1, 2, 3):
            src = make_source(name, k)
            assert src.rho3 >= k**1.5 - 1e-9


def test_source_mean_and_covariance():
    for name in ("gaussian", "rademacher", "uniform", "exponential"):
        draws = make_source(name, 2).sample(RngStream(102, stream_id=2).generator(), 1 << 19)
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


def test_sample_sum_rademacher_matches_binomial_pmf():
    n, m = 4, 1 << 16
    draws = sample_sum(rademacher_source(2), n, RngStream(121), size=m)
    lattice = (2.0 * np.arange(n + 1) - n) / math.sqrt(n)
    pmf = np.array([math.comb(n, j) for j in range(n + 1)]) / 2.0**n
    for col in draws.T:
        counts = np.array([np.count_nonzero(col == v) for v in lattice])
        assert counts.sum() == m
        z = (counts - m * pmf) / np.sqrt(m * pmf * (1.0 - pmf))
        assert np.max(np.abs(z)) < 4.5, z


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
    words = RngStream(129).generator().bit_generator.random_raw(m * k * n // 2 + 1)
    u = words.view("<u4")[: m * k * n].reshape(m, k, n).astype(float)
    expect = (math.sqrt(3.0) * (2.0 * (u + 0.5) / 2.0**32 - 1.0)).sum(axis=2) / math.sqrt(n)
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


@pytest.mark.parametrize(
    "src, n",
    [
        (uniform_source(3), 5),
        (uniform_source(2), 256),
        (noniid_catalog("rademacher", 3, 13), 13),
        (noniid_catalog("rademacher", 2, 256), 256),
    ],
    ids=["uniform-k3-n5", "uniform-k2-n256", "noniid-k3-n13", "noniid-k2-n256"],
)
def test_sample_sum_draws_do_not_depend_on_chunking(src, n, monkeypatch):
    m = 1001
    draws = sample_sum(src, n, RngStream(127), size=2 * m)
    assert np.array_equal(sample_sum(src, n, RngStream(127), size=m), draws[:m])
    # chunks of a few bytes cut rows in the middle of a Philox word
    monkeypatch.setattr(sources, "_CHUNK_BYTES", 40)
    assert np.array_equal(sample_sum(src, n, RngStream(127), size=2 * m), draws)


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


# S_8 of these non-iid sources at RngStream(131), size=3, as drawn component
# by component before the Rademacher components took one bit per sign
_COMPONENT_LOOP_DRAWS = {
    "gaussian": [0.34733830537383403, -1.238539119290937, -0.746079226011456,
                 -0.16140525249418627, -0.015054122740381398, -0.8079834348341355],
    "uniform": [0.0759503799906901, -0.04149377121163446, 1.4788626938599954,
                1.605536084602349, 1.529271378691635, 1.0283807824743694],
    "exponential": [0.25555174269625125, -1.3610935544090388, 1.2924397299081682,
                    0.7432914162834474, -0.96992306833123, -0.4508056448215673],
}


def test_other_noniid_sources_keep_their_draws():
    for name, expected in _COMPONENT_LOOP_DRAWS.items():
        draws = sample_sum(noniid_catalog(name, 2, 8), 8, RngStream(131), size=3)
        assert draws.ravel().tolist() == expected, name
    # vector-scaled Rademacher components keep the component loop too
    src = NonIIDSource([(rademacher_source(2), [0.6, 0.8]), (rademacher_source(2), [0.8, 0.6])])
    draws = sample_sum(src, 2, RngStream(131), size=3)
    assert draws.ravel().tolist() == [-1.4, 1.4, -0.20000000000000007, 1.4,
                                      -0.20000000000000007, -1.4]


@pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), True, "4", None])
def test_sample_sum_and_delta_hat_reject_bad_counts(bad):
    src, fam = rademacher_source(1), default_family(1)
    with pytest.raises(DomainError):
        sample_sum(src, bad, RngStream(124), size=8)
    with pytest.raises(DomainError):
        delta_hat(src, bad, fam, 4096, RngStream(124))
    with pytest.raises(DomainError):
        delta_hat(src, 4, fam, bad, RngStream(124))


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


def test_noniid_moments_and_inequalities():
    for base_name in ("gaussian", "rademacher", "uniform", "exponential"):
        for k in (1, 2, 3):
            src = noniid_catalog(base_name, k, 16)
            summary = src.moment_summary()
            assert summary.beta3 is not None and summary.gamma3 is not None
            assert summary.gamma3 <= k**1.5 * summary.beta3 + 1e-12
            assert summary.beta3 > 0


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
    # an exact summary whose beta3 understates Cov X_j breaks the cap
    # 1 / (1 - beta3^(2/3)) on |N_j|^2, which must fail with a typed error
    class UnderstatedSource(NonIIDSource):
        def moment_summary(self):
            return MomentSummary(method="exact", estimation_error=0.0, beta3=0.5, gamma3=0.5)

    base = gaussian_source(1)
    src = UnderstatedSource([(base, math.sqrt(0.9)), (base, math.sqrt(0.1))])
    with pytest.raises(DegeneracyError):
        normalizer_matrix(src, 0)


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
    "src", [gaussian_source(2), rademacher_source(1), rademacher_source(2), rademacher_source(3)],
    ids=repr,
)
def test_stein_discrepancy_recomputed_from_all_rows(src):
    # a lattice block is evaluated on its distinct rows and scattered back, a continuous
    # block whole; either way the estimate is that of every row, bit for bit
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_distinct_rows_rebuild_a_rademacher_block(k):
    X = sample_sum(rademacher_source(k), 16, RngStream(7), 4096)
    first, inverse = sources._distinct_rows(X)
    # at most (n + 1)^k lattice points among the 4096 rows
    assert len(first) <= 17**k
    assert np.array_equal(X[first][inverse], X)
    assert len(np.unique(X[first], axis=0)) == len(first)


def test_distinct_rows_count_known_multiplicities():
    rows = np.array([[0.5, -1.0], [0.0, 2.0], [1.5, 2.0], [0.5, 2.0]])
    X = rows[[2, 0, 0, 3, 2, 0, 1, 2, 0]]
    first, inverse = sources._distinct_rows(X)
    assert np.array_equal(X[first][inverse], X)
    assert len(np.unique(X[first], axis=0)) == len(first) == 4
    multiplicity = {tuple(row): int(m) for row, m in zip(X[first], np.bincount(inverse))}
    assert multiplicity == {(0.5, -1.0): 4, (0.0, 2.0): 1, (1.5, 2.0): 3, (0.5, 2.0): 1}


@pytest.mark.parametrize("name", ["gaussian", "uniform", "exponential"])
def test_distinct_rows_pass_continuous_blocks_whole(name):
    X = sample_sum(make_source(name, 3), 16, RngStream(7), 4096)
    assert sources._distinct_rows(X) == (None, None)


def test_distinct_rows_look_at_whole_rows_not_columns():
    # every column repeats its values, but no two rows are equal
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert sources._distinct_rows(X) == (None, None)


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


def test_sum_over_blocks_folds_in_block_order_when_blocks_finish_out_of_order():
    src, stream = gaussian_source(1), RngStream(23)
    first = sample_sum(src, 4, stream.block(0), BLOCK_SIZE)

    def statistic(X):
        if np.array_equal(X, first):
            time.sleep(0.2)  # blocks 1 and 2 finish first when they run concurrently
            return 1e16
        return 1.0

    # (1e16 + 1) + 1 rounds to 1e16 at each step; a sum in finishing order gives 1e16 + 2
    assert sources.sum_over_blocks(src, 4, 3 * BLOCK_SIZE, stream, statistic) == 1e16


def test_sum_over_blocks_raises_the_error_of_a_failing_block():
    def statistic(X):
        if len(X) == 7:  # block 2
            raise DomainError("block 2 failed")
        return 1.0

    with pytest.raises(DomainError, match="block 2 failed"):
        sources.sum_over_blocks(gaussian_source(1), 4, 2 * BLOCK_SIZE + 7, RngStream(24), statistic)


def test_single_block_estimate_runs_in_the_calling_thread():
    threads = []

    def statistic(X):
        threads.append(threading.get_ident())
        return len(X)

    assert sources.sum_over_blocks(gaussian_source(2), 4, BLOCK_SIZE, RngStream(25), statistic) == BLOCK_SIZE
    assert threads == [threading.get_ident()]


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
        results[i] = sources.sum_over_blocks(src, 16, M, stream, fresh().counts)

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
