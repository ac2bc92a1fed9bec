import dataclasses
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtr

from steinclt import (
    Ball,
    Box,
    Ellipsoid,
    IndicatorFunction,
    ConstantsConfig,
    HalfSpace,
    RngStream,
    SetFamily,
    SmoothingParams,
    SteinSolution,
    backward_residual,
    berry_esseen_bound,
    bound_report,
    certified_constant,
    default_family,
    default_translates,
    dim_scan,
    gamma3_bound,
    gamma_star_hat,
    gaussian_measure,
    gaussian_source,
    loglog_slope,
    noniid_bound,
    noniid_catalog,
    omega_star_hat,
    omega_star_ratio,
    optimal_t,
    quantile_a,
    rademacher_source,
    recursion_bound,
    recursion_certify,
    recursion_step_bound,
    scaling_trend_ok,
    smoothed_discrepancy_bound,
    sample_sum,
    semigroup_apply,
    shell_measure,
    shifted_measure_batch,
    smoothing_bound,
    stein_discrepancy_hat,
    weight3_integral,
)
from steinclt import bounds, sources
from steinclt.errors import DomainError, HypothesisViolationError
from steinclt.sources import BLOCK_SIZE


def test_constants_config_validation():
    with pytest.raises(DomainError):
        ConstantsConfig(c1=0.0)
    with pytest.raises(DomainError):
        ConstantsConfig(c=0.5)
    assert ConstantsConfig().override(c1=2.0).c1 == 2.0


def test_every_constant_moves_a_reported_number():
    # a constant that no reported formula reads is a setting that does nothing
    src = rademacher_source(2)
    family = SetFamily((HalfSpace(np.array([1.0, 0.0]), 0.0),))

    def reported(consts):
        report = bound_report(src, 16, family, 1000, RngStream(5), consts=consts, t=0.5)
        return report, recursion_certify(2, src.rho3, 64, consts)

    base = reported(ConstantsConfig())
    for field in dataclasses.fields(ConstantsConfig):
        assert reported(ConstantsConfig().override(**{field.name: 2.0})) != base, field.name


def test_smoothed_discrepancy_bound_arithmetic():
    consts = ConstantsConfig()
    assert smoothed_discrepancy_bound(1, 1.0, 100, 1.0, 1.0, consts) == pytest.approx(0.2)
    assert smoothed_discrepancy_bound(1, 1.0, 100, 1.0, 0.0, consts) == pytest.approx(0.1)
    # doubling t scales the leading term by 2^{-1/2}
    v1 = smoothed_discrepancy_bound(2, 1.5, 64, 0.5, 0.3, consts)
    v2 = smoothed_discrepancy_bound(2, 1.5, 64, 1.0, 0.3, consts)
    lead1 = v1 - ConstantsConfig().c2 * 2**2.5 * 1.5 / 8.0
    lead2 = v2 - ConstantsConfig().c2 * 2**2.5 * 1.5 / 8.0
    assert lead2 == pytest.approx(lead1 / math.sqrt(2.0))


def test_smoothing_bound_prefactor_exact():
    assert 1.0 / (2.0 * (7.0 / 8.0) - 1.0) == 4.0 / 3.0
    assert smoothing_bound(0.3, 0.15) == pytest.approx((4.0 / 3.0) * 0.45, rel=1e-15)
    assert smoothing_bound(0.0, 0.0) == 0.0
    with pytest.raises(HypothesisViolationError):
        smoothing_bound(0.1, 0.1, alpha=0.5)


def test_optimal_t_cases():
    assert optimal_t(1, 3.0, 1, 1.0) == 1.0           # clamp at 1
    assert optimal_t(1, 1.0, 100, 0.1) == pytest.approx(0.01)
    assert optimal_t(2, 1.0, 100, 0.0) == pytest.approx(1e-4)  # floor


def test_bound_formulas_values():
    consts = ConstantsConfig()
    assert berry_esseen_bound(1, 1.0, 4) == pytest.approx(0.5)
    assert noniid_bound(2, 0.5) == pytest.approx(2**2.5 * 0.5)
    assert gamma3_bound(2, 0.5) == pytest.approx(1.0)
    v = recursion_bound(1, 1.0, 100, 1.0, 0.1, consts)
    assert v == pytest.approx(0.01 + 0.1 + math.sqrt(1.0) * math.e)
    w = recursion_step_bound(1, 1.0, 16, 0.25, consts)
    assert w == pytest.approx(0.5 / 2.0 + 0.25)


def test_noniid_bound_hypothesis():
    with pytest.raises(HypothesisViolationError):
        noniid_bound(2, 1.5)


def test_gamma_vs_noniid_bound_consistency():
    for base in ("gaussian", "rademacher", "uniform", "exponential"):
        for k in (1, 2, 3):
            src = noniid_catalog(base, k, 16)
            s = src.moment_summary()
            if s.beta3 >= 1.0:
                continue
            assert gamma3_bound(k, s.gamma3) <= noniid_bound(k, s.beta3) + 1e-12


def test_certified_constant_golden_ratio_and_root_oracle():
    c_star = certified_constant(1.0, 1.0)
    assert c_star == pytest.approx(((1.0 + math.sqrt(5.0)) / 2.0) ** 2, abs=1e-12)
    # oracle: solve c - c10 sqrt(c) - c7 = 0 in y = sqrt(c) via numpy roots
    for c10, c7 in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0)):
        roots = np.roots([1.0, -c10, -c7])
        y = max(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
        assert certified_constant(c10, c7) == pytest.approx(max(1.0, y * y), rel=1e-12)


def test_recursion_certificate_defaults():
    for k in (1, 2, 3, 6):
        cert = recursion_certify(k, float(k) ** 1.5, 10**6, ConstantsConfig())
        assert cert.c_star == pytest.approx(((1 + math.sqrt(5.0)) / 2.0) ** 2, abs=1e-12)
        assert cert.envelope_ok_from_2
        assert cert.n_star == 2
    with pytest.raises(DomainError, match="n_max must be >= 2, got 1"):
        recursion_certify(2, 1.0, 1, ConstantsConfig())


def test_recursion_certificate_nondegenerate_constant():
    # with c10 = 2 the sqrt(delta) term is active (coefficient 1) and the
    # envelope still maps into itself for every n >= 2
    consts = ConstantsConfig(c10=2.0)
    for k in (1, 2, 4):
        cert = recursion_certify(k, float(k) ** 1.5, 10**5, consts)
        assert cert.envelope_ok_from_2
        assert cert.c_star == pytest.approx((1.0 + math.sqrt(2.0)) ** 2, rel=1e-12)


def test_recursion_sequence_upper_bounds_null_experiment():
    cert = recursion_certify(1, 1.0, 1024, ConstantsConfig())
    seq = dict(zip(cert.sequence_n, cert.sequence_delta))
    assert all(v <= 1.0 for v in cert.sequence_delta)
    # the certified sequence is eventually non-increasing
    tail = [v for n, v in zip(cert.sequence_n, cert.sequence_delta) if n >= 4]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert seq[1024] > 0.0


def test_smoothing_params_eps_consistency():
    for k in (1, 2, 4):
        a_k = quantile_a(k).a_k
        for t in (0.1, 0.5):
            p = SmoothingParams.for_dimension(k, t)
            assert p.eps == pytest.approx(a_k * math.sqrt(-math.expm1(-2 * t)), abs=1e-10)
            # a_k <= c4 sqrt(k) with the observed c4, and eps <= c4 sqrt(2kt)
            c4 = a_k / math.sqrt(k)
            assert p.eps <= c4 * math.sqrt(k) * math.sqrt(2 * t) + 1e-12


def test_omega_star_examples():
    hs = HalfSpace(np.array([1.0]), 0.0)
    t, eps = 0.1, 0.05
    expect = 2.0 * ndtr(2 * eps * math.exp(t)) - 1.0
    assert omega_star_hat(hs, eps, t) == pytest.approx(expect, abs=1e-12)
    assert omega_star_hat(hs, 0.0, t) == 0.0
    ratio = omega_star_ratio(hs, eps, t)
    assert 0.0 < ratio < 1.0


def test_omega_star_ratio_bounded_on_catalog():
    for C in (HalfSpace(np.array([1.0, 0.0]), 0.3), Ball(np.zeros(2), 1.2)):
        for eps in (0.02, 0.05, 0.1):
            for t in (0.1, 0.5):
                assert omega_star_ratio(C, eps, t) <= 1.0


def test_gamma_star_gaussian_null():
    C = HalfSpace(np.array([1.0, 0.0]), 0.2)
    est = gamma_star_hat(
        gaussian_source(2), 8, 0.5, C, eps=0.1, M=4096, stream=RngStream(31)
    )
    assert est.value <= 4.0 * max(est.std_error, 1e-4)


def test_gamma_star_eps_zero_matches_direct_form():
    C = HalfSpace(np.array([1.0]), 0.0)
    src = rademacher_source(1)
    stream = RngStream(32)
    est = gamma_star_hat(src, 4, 0.5, C, eps=0.0, M=4096, stream=stream, translates=[[0.0]])
    res = stein_discrepancy_hat(src, 4, 0.5, C, 4096, stream=stream)
    assert est.value == pytest.approx(abs(res.direct.value), abs=1e-12)


def test_gamma_star_dominated_by_family_sup():
    # gamma* over translates is itself a smoothed discrepancy, so it cannot
    # exceed the sup over the family of |E T_t htilde| by more than MC error
    src = rademacher_source(1)
    t = 0.5
    C = HalfSpace(np.array([1.0]), 0.0)
    eps = SmoothingParams.for_dimension(1, t).eps
    stream = RngStream(33)
    est = gamma_star_hat(src, 4, t, C, eps=eps, M=8192, stream=stream)
    # direct sup over a dense offset family of smoothed discrepancies
    sup = 0.0
    for b in np.linspace(-3, 3, 61):
        r = stein_discrepancy_hat(src, 4, t, HalfSpace(np.array([1.0]), float(b)), 8192,
                                  stream=stream)
        sup = max(sup, abs(r.direct.value))
    assert est.value <= sup + 4.0 * est.std_error + 0.01


def test_gamma_star_recomputed_from_blocks():
    _check_gamma_star_against_blocks(Ball(np.zeros(2), 1.1), rademacher_source(2))


def test_gamma_star_recomputed_from_blocks_on_a_box():
    # the box's dilation smooths through DilatedBox's closed form
    _check_gamma_star_against_blocks(Box([-0.8, -0.6], [0.9, 1.2]), rademacher_source(2))


def test_gamma_star_recomputed_from_all_rows_of_gaussian_blocks():
    _check_gamma_star_against_blocks(Ball(np.zeros(2), 1.1), gaussian_source(2))


def test_gamma_star_recomputed_from_all_rows_of_repeating_noniid_blocks():
    # the flat non-iid Rademacher law repeats rows, but only lattice blocks are deduplicated
    src = noniid_catalog("rademacher", 2, 8, "flat")
    _check_gamma_star_against_blocks(Ball(np.zeros(2), 1.1), src)


def _check_gamma_star_against_blocks(C, src):
    # block b is sample_sum on stream.block(b); per-target sums of T_t 1_B add up in block order.
    # The reference evaluates every row, so a lattice source checks that evaluating its
    # distinct rows once and scattering them back moves no bit
    t, eps, M = 0.5, 0.2, 2 * BLOCK_SIZE + 500
    translates = [[0.0, 0.0], [0.3, -0.2]]
    stream = RngStream(38)
    est = gamma_star_hat(src, 8, t, C, eps, M, stream, translates=translates)
    targets = [
        B for y in translates for B in (C.translate(y).dilate(eps), C.translate(y).erode(eps))
    ]
    measures = np.array([gaussian_measure(B) for B in targets])
    acc = 0
    for b, size in enumerate((BLOCK_SIZE, BLOCK_SIZE, M - 2 * BLOCK_SIZE)):
        X = sample_sum(src, 8, stream.block(b), size)
        out = np.empty((len(targets), 2))
        for i, B in enumerate(targets):
            vals = np.asarray(semigroup_apply(IndicatorFunction(B), t, X), dtype=float)
            out[i] = (vals.sum(), (vals * vals).sum())
        acc = acc + out
    means = acc[:, 0] / M
    variances = np.maximum(acc[:, 1] / M - means**2, 0.0)
    diffs = np.abs(means - measures)
    arg = int(np.argmax(diffs))
    assert est.value == diffs[arg]
    assert est.std_error == math.sqrt(variances[arg] / M)


def _hex(est):
    return est.value.hex(), est.std_error.hex()


@pytest.mark.parametrize("source", [gaussian_source, rademacher_source])
@pytest.mark.parametrize("eps", [0.0, 0.2])
@pytest.mark.parametrize(
    "C",
    [HalfSpace(np.array([0.6, 0.8]), 0.1), Ball(np.array([0.2, -0.1]), 1.1),
     Box([-0.8, -0.6], [0.9, 1.2])],
    ids=["HalfSpace", "Ball", "Box"],
)
def test_single_block_gamma_star_keeps_the_serial_bits(C, eps, source, monkeypatch):
    # a single-block estimate splits its targets between the caller and the block
    # pool; a lattice source evaluates the distinct rows of its block
    args = (source(2), 8, 0.5, C, eps, 2048, RngStream(39))
    pooled = _hex(gamma_star_hat(*args))
    monkeypatch.setattr(sources, "_block_pool", lambda: None)
    assert pooled == _hex(gamma_star_hat(*args))


def test_multi_block_gamma_star_finishes_with_the_serial_bits(monkeypatch):
    # its blocks are split between the caller and the pool, and each part evaluates
    # its blocks' targets itself: a pool thread that waited on the pool could wait forever
    args = (gaussian_source(2), 8, 0.5, Ball(np.zeros(2), 1.1), 0.2, 2 * BLOCK_SIZE + 7,
            RngStream(40))
    result = []
    worker = threading.Thread(target=lambda: result.append(gamma_star_hat(*args)), daemon=True)
    worker.start()
    worker.join(120)
    assert not worker.is_alive() and len(result) == 1
    monkeypatch.setattr(sources, "_block_pool", lambda: None)
    assert _hex(result[0]) == _hex(gamma_star_hat(*args))


def test_a_multi_block_gamma_star_submits_no_pool_task_from_inside_a_part(monkeypatch):
    submitted = []
    pool = ThreadPoolExecutor(1, thread_name_prefix="steinclt-block")

    class RecordingPool:
        def submit(self, fn, *args):
            submitted.append((threading.get_ident(), sources._in_part.active))
            assert not sources._in_part.active, "a part submitted a pool task"
            return pool.submit(fn, *args)

    monkeypatch.setattr(sources, "_block_pool", RecordingPool)
    monkeypatch.setattr(sources, "_usable_cpus", lambda: 2)
    C, caller = Ball(np.zeros(2), 1.1), (threading.get_ident(), False)
    try:
        # the block split submits its second part from the caller, and each part
        # evaluates its blocks' targets serially
        gamma_star_hat(gaussian_source(2), 8, 0.5, C, 0.2, 3 * BLOCK_SIZE, RngStream(41))
        assert submitted == [caller]
        # a single-block estimate splits its targets, again from the caller
        submitted.clear()
        gamma_star_hat(gaussian_source(2), 8, 0.5, C, 0.2, 4096, RngStream(41))
        assert submitted == [caller]
    finally:
        pool.shutdown()


@pytest.mark.parametrize("M", [1000, BLOCK_SIZE, BLOCK_SIZE + 1, 50000])
def test_gamma_star_keeps_its_bits_however_the_blocks_and_targets_split(
    split_source, M, split_three_ways
):
    src, n = split_source
    C = HalfSpace(np.array([0.6, 0.8]) if src.k == 2 else np.ones(src.k) / math.sqrt(src.k), 0.1)
    pooled, serial, three_parts = split_three_ways(
        lambda: _hex(gamma_star_hat(src, n, 0.5, C, 0.2, M, RngStream(63)))
    )
    assert pooled == serial == three_parts


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1.0])
def test_smoothing_time_must_be_finite_and_positive(t):
    with pytest.raises(DomainError):
        SmoothingParams.for_dimension(2, t)
    with pytest.raises(DomainError):
        weight3_integral(t)
    with pytest.raises(DomainError):
        gamma_star_hat(
            rademacher_source(1), 4, t, HalfSpace(np.array([1.0]), 0.0), 0.1, 1000, RngStream(0)
        )


_ELLIPSE = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
_HALF_PLANE = IndicatorFunction(HalfSpace(np.array([1.0, 0.0]), 0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma_star_hat(
            rademacher_source(2), 4, 0.5, _ELLIPSE, math.nan, 1000, RngStream(1)
        ),
        lambda: omega_star_hat(_ELLIPSE, math.nan, 0.5),
        lambda: omega_star_ratio(_ELLIPSE, math.nan, 0.5),
        lambda: shell_measure(_ELLIPSE, math.nan),
        lambda: Box(np.zeros(2), np.ones(2)).dilate(math.nan),
        lambda: shell_measure(_ELLIPSE, 0.1, math.nan),
        lambda: shifted_measure_batch(HalfSpace(np.array([1.0, 0.0]), 0.0), np.zeros((2, 2)),
                                      math.nan),
        lambda: shifted_measure_batch(Ball(np.zeros(2), 1.0), np.zeros((2, 2)), math.nan),
        lambda: shifted_measure_batch(Box(-np.ones(2), np.ones(2)), np.zeros((2, 2)), math.nan),
        lambda: gaussian_measure(Box(-np.ones(2), np.ones(2)).dilate(math.inf)),
        lambda: omega_star_hat(Box(-np.ones(2), np.ones(2)), math.inf, 0.1),
        lambda: shifted_measure_batch(HalfSpace(np.array([1.0, 0.0]), 0.0), np.zeros((1, 2)),
                                      math.inf),
        lambda: Box(-np.ones(2), np.ones(2)).dilate("0.1"),
        lambda: shell_measure(Box(-np.ones(2), np.ones(2)), True),
        lambda: HalfSpace(np.array([1.0, 0.0]), "0.3"),
        lambda: SteinSolution(True, _HALF_PLANE),
        lambda: semigroup_apply(_HALF_PLANE, math.inf, np.zeros(2)),
        lambda: backward_residual(_HALF_PLANE, math.inf, np.zeros(2)),
        lambda: backward_residual(_HALF_PLANE, 0.5, np.zeros(2), dt=0.0),
        lambda: backward_residual(_HALF_PLANE, 0.5, np.zeros(2), dx=0.0),
        lambda: backward_residual(_HALF_PLANE, 0.5, np.zeros(2), dx=math.nan),
        lambda: default_family(0),
        lambda: default_translates(0),
        lambda: default_family(2, n_directions=-3),
        lambda: default_family(2, n_offsets=2.5),
        lambda: default_family(2, n_radii=math.nan),
        lambda: default_family(2, n_box_sizes=True),
    ],
    ids=["gamma_star_hat", "omega_star_hat", "omega_star_ratio", "shell_measure", "Box.dilate",
         "shell_measure-scale", "shifted_measure_batch-HalfSpace", "shifted_measure_batch-Ball",
         "shifted_measure_batch-Box", "Box.dilate-inf", "omega_star_hat-inf",
         "shifted_measure_batch-inf", "Box.dilate-string", "shell_measure-bool",
         "HalfSpace-offset-string", "SteinSolution-bool", "semigroup_apply-inf",
         "backward_residual-inf", "backward_residual-dt-zero", "backward_residual-dx-zero",
         "backward_residual-dx-nan", "default_family-k-zero", "default_translates-k-zero",
         "default_family-n_directions-negative", "default_family-n_offsets-fraction",
         "default_family-n_radii-nan", "default_family-n_box_sizes-bool"],
)
def test_nan_radius_raises(call):
    # NaN fails every comparison, so a radius or scale check must be written to
    # reject it; a NaN sigma gave nan measures, a NaN shell scale a misleading error.
    # An infinite radius, time or sigma, a bool or a string passed the hand-written
    # checks too (an inf radius measured with a RuntimeWarning), and k = 0 built a
    # zero-dimensional grid, until every scalar went through `check_real`; a
    # negative n_directions built a family with no half-spaces; a zero finite-difference
    # step raised ZeroDivisionError and a NaN one returned nan
    with pytest.raises(DomainError):
        call()


_CONSTS = ConstantsConfig()
_NAN = math.nan


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: berry_esseen_bound(2, _NAN, 16), DomainError),
        (lambda: noniid_bound(2, _NAN), DomainError),
        (lambda: gamma3_bound(2, _NAN), DomainError),
        (lambda: recursion_step_bound(2, _NAN, 16, 0.25, _CONSTS), DomainError),
        (lambda: recursion_step_bound(2, 1.0, 16, _NAN, _CONSTS), DomainError),
        (lambda: recursion_bound(2, _NAN, 16, 0.5, 0.25, _CONSTS), DomainError),
        (lambda: recursion_bound(2, 1.0, 16, 0.5, _NAN, _CONSTS), DomainError),
        (lambda: optimal_t(2, _NAN, 16, 0.25), DomainError),
        (lambda: optimal_t(2, 1.0, 16, _NAN), DomainError),
        (lambda: smoothing_bound(0.1, 0.1, alpha=_NAN), HypothesisViolationError),
        (lambda: berry_esseen_bound(2, math.inf, 16), DomainError),
        (lambda: optimal_t(2, math.inf, 16, 0.5), DomainError),
        (lambda: berry_esseen_bound(2.5, 1.0, 16), DomainError),
        (lambda: berry_esseen_bound(2, 1.0, 16.5), DomainError),
        (lambda: berry_esseen_bound(True, 1.0, 16), DomainError),
        (lambda: optimal_t(2, 1.0, 16.5, 0.5), DomainError),
        (lambda: recursion_step_bound(2.5, 1.0, 16.5, 0.1, _CONSTS), DomainError),
        (lambda: noniid_bound(-1, 0.5), DomainError),
        (lambda: gamma3_bound(0, 0.5), DomainError),
        (lambda: gamma3_bound(2, math.inf), DomainError),
        (lambda: berry_esseen_bound(2, 1.0, 4, c=-1), DomainError),
        (lambda: berry_esseen_bound(2, True, 4), DomainError),
        (lambda: SmoothingParams.for_dimension(2.5, 0.1), DomainError),
        (lambda: SmoothingParams(t=-1.0), DomainError),
        (lambda: SmoothingParams(t=0.1, eps=_NAN), DomainError),
        (lambda: smoothing_bound(0.1, 0.1, alpha=math.inf), HypothesisViolationError),
        (lambda: smoothing_bound(0.1, 0.1, alpha=2.0), HypothesisViolationError),
        (lambda: smoothing_bound(0.1, 0.1, alpha=True), HypothesisViolationError),
    ],
    ids=["berry_esseen_bound-rho3", "noniid_bound-beta3", "gamma3_bound-gamma3",
         "recursion_step_bound-rho3", "recursion_step_bound-delta_prev", "recursion_bound-rho3",
         "recursion_bound-delta_prev", "optimal_t-rho3", "optimal_t-delta_prev",
         "smoothing_bound-alpha", "berry_esseen_bound-rho3-inf", "optimal_t-rho3-inf",
         "berry_esseen_bound-k-fraction", "berry_esseen_bound-n-fraction",
         "berry_esseen_bound-k-bool", "optimal_t-n-fraction", "recursion_step_bound-k-n-fraction",
         "noniid_bound-k-negative", "gamma3_bound-k-zero", "gamma3_bound-gamma3-inf",
         "berry_esseen_bound-c-negative", "berry_esseen_bound-rho3-bool",
         "SmoothingParams.for_dimension-k-fraction", "SmoothingParams-t-negative",
         "SmoothingParams-eps-nan", "smoothing_bound-alpha-inf",
         "smoothing_bound-alpha-above-one", "smoothing_bound-alpha-bool"],
)
def test_nan_bound_input_raises(call, error):
    # each check used to be written as `x <= bound`, which NaN passes: the
    # bounds returned nan, optimal_t returned 1.0 and alpha = nan was accepted;
    # berry_esseen_bound and optimal_t also took rho3 = inf, and every bound
    # took a bool or fractional k or n, until they shared one check; noniid_bound
    # returned a complex number at k = -1, and gamma3_bound, berry_esseen_bound's
    # c, SmoothingParams and alpha = inf took values the hand-written checks let by;
    # alpha is a kernel mass, and alpha = 2 gave a bound below the alpha = 1 one
    with pytest.raises(error):
        call()


_RECURSION_CALLS = {
    "smoothed_discrepancy_bound": lambda k, rho3, n: smoothed_discrepancy_bound(
        k, rho3, n, 0.5, 0.1, _CONSTS
    ),
    "recursion_bound": lambda k, rho3, n: recursion_bound(k, rho3, n, 0.5, 0.1, _CONSTS),
    "recursion_step_bound": lambda k, rho3, n: recursion_step_bound(k, rho3, n, 0.1, _CONSTS),
    "recursion_certify": lambda k, rho3, n: recursion_certify(k, rho3, n, _CONSTS),
}


@pytest.mark.parametrize("name", sorted(_RECURSION_CALLS))
@pytest.mark.parametrize(
    "k, rho3, n, match",
    [
        (-1, 1.0, 10, "k >= 1"),
        (0, 1.0, 10, "k >= 1"),
        (_NAN, 1.0, 10, "k >= 1"),
        (2, 1.0, 0, "n"),
        (2, _NAN, 10, "rho3"),
        (2, -1.0, 10, "rho3"),
        (2, 0.0, 10, "rho3"),
        (2, math.inf, 10, "rho3"),
    ],
)
def test_recursion_bounds_reject_k_n_and_rho3_outside_their_domain(name, k, rho3, n, match):
    # these returned complex numbers (k < 0), a negative bound (rho3 = -1), a
    # certificate (rho3 = nan), or raised ZeroDivisionError (n = 0) and
    # "math domain error" (rho3 < 0) instead of DomainError
    with pytest.raises(DomainError, match=match):
        _RECURSION_CALLS[name](k, rho3, n)


@pytest.mark.parametrize("t", [_NAN, math.inf, -1.0])
def test_omega_star_hat_error_names_t(t):
    with pytest.raises(DomainError, match="t must be finite and >= 0"):
        omega_star_hat(_ELLIPSE, 0.1, t)


def test_bound_report_checks_t_before_sampling(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("delta_hat ran before t was checked")

    monkeypatch.setattr(bounds, "delta_hat", sampled)
    with pytest.raises(DomainError):
        bound_report(rademacher_source(1), 16, default_family(1), 1000, RngStream(0), t=math.nan)


def test_loglog_slope_recovers_power_law():
    ks = np.array([1.0, 2.0, 3.0, 4.0])
    vals = 0.2 * ks**1.7
    fit = loglog_slope(ks, vals, 1e-4 * vals)
    assert fit.defined
    assert fit.slope == pytest.approx(1.7, abs=1e-6)


def test_loglog_slope_undefined_for_noise():
    fit = loglog_slope([1, 2, 3], [1e-4, 2e-4, 1e-4], [1e-3, 1e-3, 1e-3])
    assert not fit.defined


@pytest.mark.parametrize(
    "xs, std_errors",
    [([0.0, 1.0], [0.01, 0.01]), ([-1.0, 1.0], [0.01, 0.01]), ([_NAN, 1.0], [0.01, 0.01]),
     ([1.0, math.inf], [0.01, 0.01]), ([1.0, 2.0], [-0.01, 0.01])],
    ids=["zero-x", "negative-x", "nan-x", "inf-x", "negative-error"],
)
def test_loglog_slope_undefined_off_its_domain(xs, std_errors):
    # log(0) gave a defined nan slope with RuntimeWarnings, and a negative error passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = loglog_slope(xs, [0.5, 0.4], std_errors)
    assert not fit.defined and math.isnan(fit.slope)


def test_scaling_trend():
    assert scaling_trend_ok([0.4, 0.39, 0.41], [0.01, 0.01, 0.01])
    assert not scaling_trend_ok([0.4, 0.5], [0.01, 0.01])


# criterion 8's sqrt(n) delta and its standard errors over n = 4, 16, 64, 256 per
# (law, k), as steinclt 0.8.0 drew them, with the check's verdict on them then
_CRITERION_8_LISTS = {
    ("rademacher", 1): ([0.71358, 0.73356, 0.7464800000000005, 0.7256000000000009],
                        [0.0030647629330830795, 0.005027198152450329, 0.011517756556552149,
                         0.021771372175405024], False),
    ("rademacher", 2): ([0.5219240351672424, 0.4039680703344848, 0.44348797207937185,
                         0.44585594415874397],
                        [0.0021833950068643098, 0.005787006709517451, 0.010002472539127514,
                         0.02101082813560665], False),
    ("rademacher", 3): ([0.4291095999980131, 0.5678006970668674, 0.5485613941337348,
                         0.5582427882674708],
                        [0.0029719602581461282, 0.005131431014444216, 0.011372466117777622,
                         0.023498414671973084], False),
    ("uniform", 1): ([0.02811999999999948, 0.02225505799941163, 0.02400000000000002,
                      0.051039999999996866],
                     [0.0031610271520504216, 0.006287466072751407, 0.012260401298489376,
                      0.02459816832985741], True),
    ("uniform", 2): ([0.035560000000000036, 0.016848070334484655, 0.026287972079371613,
                      0.06767999999999574],
                     [0.0031237815006815058, 0.006183689466976815, 0.010896743349092883,
                      0.025088617701579337], True),
    ("uniform", 3): ([0.043440000000000145, 0.019680000000000142, 0.02299681133282583,
                      0.0701078657651859],
                     [0.00303259256478677, 0.006123985546684446, 0.01038833275092784,
                      0.024116353602980697], True),
}


@pytest.mark.parametrize("cell", sorted(_CRITERION_8_LISTS))
def test_scaling_trend_keeps_its_verdict_on_criterion_8_lists(cell):
    values, std_errors, verdict = _CRITERION_8_LISTS[cell]
    assert scaling_trend_ok(values, std_errors) is verdict
    assert scaling_trend_ok(np.array(values), tuple(std_errors)) is verdict


@pytest.mark.parametrize(
    "call",
    [
        lambda: loglog_slope([1, 2, 3], [0.1, 0.2], [0.01, 0.01]),
        lambda: loglog_slope([1, 2], [0.1, 0.2], [0.01, 0.01, 0.01]),
        lambda: scaling_trend_ok([1, 2, 3], [0.1]),
        lambda: scaling_trend_ok([0.1], [0.01, 0.01]),
        lambda: scaling_trend_ok([], []),
    ],
    ids=["slope-short-values", "slope-long-errors", "trend-short-errors", "trend-long-errors",
         "trend-empty"],
)
def test_mismatched_or_empty_sequences_are_domain_errors(call):
    # they raised numpy's TypeError or IndexError, and no values passed the trend check
    with pytest.raises(DomainError):
        call()


def test_gamma_star_hat_rejects_empty_translates():
    # an empty batch of translates raised numpy's AxisError
    src, C = gaussian_source(2), Ball(np.zeros(2), 1.0)
    with pytest.raises(DomainError, match="translates"):
        gamma_star_hat(src, 4, 0.5, C, 0.1, 1000, RngStream(0), translates=np.zeros((0, 2)))


@pytest.mark.parametrize(
    "values, std_errors",
    [([0.5, _NAN], [0.01, 0.01]), ([_NAN, 0.5], [0.01, 0.01]), ([0.5, 0.4], [0.01, _NAN]),
     ([0.5, math.inf], [0.01, 0.01]), ([0.5, 0.4], [math.inf, 0.01])],
    ids=["nan-last", "nan-first", "nan-error", "inf-value", "inf-error"],
)
def test_non_finite_data_has_no_trend_and_no_slope(values, std_errors):
    # NaN fails every comparison, so NaN data passed the trend check and gave
    # a defined nan slope
    assert not scaling_trend_ok(values, std_errors)
    fit = loglog_slope([1.0, 2.0], values, std_errors)
    assert not fit.defined and math.isnan(fit.slope)


def test_dim_scan_gaussian_undefined_exponent():
    report = dim_scan(
        ["gaussian"],
        [1, 2],
        [4],
        lambda k: default_family(k),
        M=10_000,
        stream=RngStream(34),
    )
    fit = report.k_exponents[("gaussian", 4)]
    assert not fit.defined
    assert len(report.cells) == 2


def test_dim_scan_rademacher_shape():
    report = dim_scan(
        ["rademacher"],
        [1, 2],
        [4, 16],
        lambda k: default_family(k),
        M=10_000,
        stream=RngStream(35),
    )
    assert len(report.cells) == 4
    assert ("rademacher", 4) in report.k_exponents
    assert ("rademacher", 1) in report.n_exponents


def test_bound_report_fields():
    src = rademacher_source(2)
    rep = bound_report(src, 16, default_family(2), 10_000, RngStream(36))
    assert rep.k == 2 and rep.n == 16
    assert rep.rho3 == pytest.approx(2.0**1.5)
    assert rep.main_bound == pytest.approx(2.0**2.5 * 2.0**1.5 / 4.0)
    assert rep.delta_hat <= rep.main_bound  # monitored necessary condition
    assert rep.within_main
    assert rep.optimal_t > 0.0


def test_bound_report_noniid():
    src = noniid_catalog("gaussian", 1, 32)
    rep = bound_report(src, 32, default_family(1), 10_000, RngStream(37))
    assert rep.beta3 is not None and rep.gamma3 is not None
    assert rep.noniid_bound is not None and rep.gamma3_bound is not None
    assert rep.gamma3_bound <= rep.noniid_bound + 1e-12


def test_berry_esseen_bound_monotonicity():
    assert berry_esseen_bound(2, 1.0, 16) < berry_esseen_bound(2, 1.0, 4)
    assert berry_esseen_bound(3, 1.0, 16) > berry_esseen_bound(2, 1.0, 16)
    assert berry_esseen_bound(2, 2.0, 16) > berry_esseen_bound(2, 1.0, 16)
