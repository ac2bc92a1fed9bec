import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

from steinclt import (
    Ball,
    ConstantsConfig,
    HalfSpace,
    RngStream,
    SetFamily,
    SmoothingParams,
    berry_esseen_bound,
    bound_report,
    certified_constant,
    default_family,
    dim_scan,
    gamma3_bound,
    gamma_star_hat,
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
    smoothing_bound,
    stein_discrepancy_hat,
)
from steinclt.errors import DomainError, HypothesisViolationError


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
    with pytest.raises(HypothesisViolationError):
        SmoothingParams(t=0.5, alpha=0.5)


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


def test_loglog_slope_recovers_power_law():
    ks = np.array([1.0, 2.0, 3.0, 4.0])
    vals = 0.2 * ks**1.7
    fit = loglog_slope(ks, vals, 1e-4 * vals)
    assert fit.defined
    assert fit.slope == pytest.approx(1.7, abs=1e-6)


def test_loglog_slope_undefined_for_noise():
    fit = loglog_slope([1, 2, 3], [1e-4, 2e-4, 1e-4], [1e-3, 1e-3, 1e-3])
    assert not fit.defined


def test_scaling_trend():
    assert scaling_trend_ok([0.4, 0.39, 0.41], [0.01, 0.01, 0.01])
    assert not scaling_trend_ok([0.4, 0.5], [0.01, 0.01])


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
    assert rep.empirical_within_main
    assert rep.optimal_t > 0.0


def test_bound_report_noniid():
    src = noniid_catalog("gaussian", 1, 32)
    rep = bound_report(src, 32, default_family(1), 10_000, RngStream(37))
    assert rep.beta3 is not None and rep.gamma3 is not None
    assert rep.noniid is not None and rep.gamma3_based is not None
    assert rep.gamma3_based <= rep.noniid + 1e-12


def test_berry_esseen_bound_monotonicity():
    assert berry_esseen_bound(2, 1.0, 16) < berry_esseen_bound(2, 1.0, 4)
    assert berry_esseen_bound(3, 1.0, 16) > berry_esseen_bound(2, 1.0, 16)
    assert berry_esseen_bound(2, 2.0, 16) > berry_esseen_bound(2, 1.0, 16)
