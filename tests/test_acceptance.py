"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines
with timings.  The scaling-law criterion is known to fail on its
no-increasing-trend clause for the rademacher lattice: the exact normalized
discrepancy rises with n in k = 1, 2 and 3 (in k = 3 toward its asymptote,
0.427 -> 0.573 over n = 4..256; `test_exact_rademacher_lattice_discrepancy_is_pinned`
pins the exact values), which no sampling accuracy can repair.  The test
states the clause faithfully and reports the offending cells.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

import steinclt as sc
from oracles import rademacher_delta, rademacher_delta_by_conditioning

ACCEPTANCE_SEED = 6


def _report(name, ok, detail="", elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{stamp}" + (f" {detail}" if detail else ""))


def _points(k, count, tag):
    gen = sc.RngStream(ACCEPTANCE_SEED, stream_id=tag).generator()
    return np.clip(gen.standard_normal((count, k)), -2.5, 2.5)


def _catalog(k):
    return (
        ("half-space", sc.HalfSpace(np.eye(k)[0], 0.3)),
        ("ball", sc.Ball(np.zeros(k), sc.quantile_a(k).a_k)),
    )


def test_criterion_01_gaussian_derivative_integrals():
    start = time.perf_counter()
    oracles = {
        "distinct": (2.0 / math.pi) ** 1.5,
        "pair": 4.0 * float(sc.norm_pdf(1.0)) * math.sqrt(2.0 / math.pi),
        "triple": 2.0 * float(sc.norm_pdf(0.0)) + 8.0 * float(sc.norm_pdf(math.sqrt(3.0))),
    }
    caps = {"distinct": 1.0, "pair": 1.0, "triple": math.sqrt(6.0)}
    errs = {}
    ok = True
    for pattern, oracle in oracles.items():
        val = sc.abs_d3_integral(pattern, 3)
        errs[pattern] = abs(val - oracle)
        ok &= errs[pattern] <= 1e-10 and val <= caps[pattern]
    elapsed = time.perf_counter() - start
    _report("criterion 1: absolute third-derivative integrals", ok,
            f"max err {max(errs.values()):.2e}", elapsed)
    assert ok, errs
    assert elapsed < 1.0


def test_criterion_02_weight_inequalities():
    start = time.perf_counter()
    gen = sc.RngStream(ACCEPTANCE_SEED, stream_id=2).generator()
    s = np.exp(gen.uniform(math.log(1e-6), math.log(25.0), size=10_000))
    pointwise_ok = bool(np.all(sc.smoothing_weight(s) <= sc.weight_bound(s)))
    integral_ok = True
    for t in (0.01, 0.1, 0.5, 1.0):
        integral_ok &= sc.weight3_integral(t) <= (2.0 * t) ** -0.5 + 1e-8
    ok = pointwise_ok and integral_ok
    elapsed = time.perf_counter() - start
    _report("criterion 2: smoothing-weight inequalities", ok, elapsed=elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_03_stein_identity():
    start = time.perf_counter()
    worst = 0.0
    for k in (1, 2):
        pts = _points(k, 20, 30 + k)
        for _, C in _catalog(k):
            for t in (0.5, 1.0):
                sol = sc.SteinSolution(t, sc.IndicatorFunction(C))
                res = np.abs(np.asarray(sc.stein_residual(sol, pts)))
                worst = max(worst, float(np.max(res)))
    ok = worst <= 1e-3
    elapsed = time.perf_counter() - start
    _report("criterion 3: Stein identity", ok, f"max residual {worst:.2e}", elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_04_backward_equation():
    start = time.perf_counter()
    worst = 0.0
    ratios = []
    for k in (1, 2):
        pts = _points(k, 20, 40 + k)
        for _, C in _catalog(k):
            h = sc.IndicatorFunction(C)
            for t in (0.5, 1.0):
                for x in pts[:5]:
                    worst = max(worst, abs(sc.backward_residual(h, t, x)))
            # second-order refinement at a representative point
            x = pts[0]
            r_coarse = abs(sc.backward_residual(h, 0.5, x, dt=2e-3, dx=2e-3))
            r_fine = abs(sc.backward_residual(h, 0.5, x, dt=1e-3, dx=1e-3))
            ratios.append((r_coarse, r_fine))
    refine_ok = all(rf <= rc / 2.5 or rf < 1e-9 for rc, rf in ratios)
    ok = worst <= 1e-3 and refine_ok
    elapsed = time.perf_counter() - start
    _report("criterion 4: backward equation", ok,
            f"max residual {worst:.2e}, refinement {'ok' if refine_ok else 'bad'}", elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_05_semigroup_law_and_invariance():
    start = time.perf_counter()
    law_worst = 0.0
    for k in (1, 2):
        pts = _points(k, 3, 50 + k)
        for _, C in _catalog(k):
            h = sc.IndicatorFunction(C)
            for t, s in ((0.1, 0.1), (0.5, 0.5), (0.1, 1.0)):
                inner = sc.SmoothFunction(lambda X, s=s, h=h: sc.semigroup_apply(h, s, X))
                for x in pts:
                    gap = abs(sc.semigroup_apply(h, t + s, x) - sc.semigroup_apply(inner, t, x))
                    law_worst = max(law_worst, gap)
    law_ok = law_worst <= 1e-5

    eig_worst = 0.0
    pts2 = _points(2, 5, 55)
    g1 = sc.hermite_product_function((1, 0))
    g2 = sc.hermite_product_function((1, 1))
    for x in pts2:
        eig_worst = max(eig_worst, abs(sc.generator_apply(g1, x) + x[0]))
        eig_worst = max(eig_worst, abs(sc.generator_apply(g2, x) + 2.0 * x[0] * x[1]))
    eig_ok = eig_worst <= 1e-12

    gen = sc.RngStream(ACCEPTANCE_SEED, stream_id=56).generator()
    Z = gen.standard_normal((1 << 14, 2))
    mc_ok = True
    for orders in ((1, 0), (2, 0), (1, 1)):
        g = sc.hermite_product_function(orders)
        vals = -sum(orders) * np.asarray(g(Z), dtype=float)
        se = float(np.std(vals) / math.sqrt(len(vals)))
        mc_ok &= abs(float(np.mean(vals))) <= 4.0 * se

    ok = law_ok and eig_ok and mc_ok
    elapsed = time.perf_counter() - start
    _report("criterion 5: semigroup law and invariance", ok,
            f"law gap {law_worst:.2e}, eigen err {eig_worst:.2e}", elapsed)
    assert ok


def test_criterion_06_quantile_calibration():
    start = time.perf_counter()
    # the chi-square CDF at a_k^2 is the mass a_k holds, independent of how the
    # library inverts it; k = 1 and 2 have their own closed forms
    worst = max(abs(special.chdtr(k, sc.quantile_a(k).a_k ** 2) - 7.0 / 8.0) for k in range(1, 65))
    half_normal = abs(sc.quantile_a(1).a_k - math.sqrt(2.0) * special.erfinv(7.0 / 8.0))
    rayleigh = abs(sc.quantile_a(2).a_k - math.sqrt(2.0 * math.log(8.0)))
    prefactor_exact = (1.0 / (2.0 * (7.0 / 8.0) - 1.0)) == (4.0 / 3.0)
    prefactor_exact &= sc.smoothing_bound(1.0, 0.0) == (4.0 / 3.0)
    ok = max(worst, half_normal, rayleigh) <= 1e-14 and prefactor_exact
    elapsed = time.perf_counter() - start
    _report("criterion 6: quantile calibration", ok,
            f"max mass gap {worst:.2e}, k = 1 gap {half_normal:.2e}, k = 2 gap {rayleigh:.2e}",
            elapsed)
    assert ok


def test_criterion_07_null_clt_case():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for k in (1, 2, 3, 4):
        family = sc.default_family(k)
        src = sc.gaussian_source(k)
        for n in (4, 64):
            stream = sc.RngStream(ACCEPTANCE_SEED).child(7 * k + n)
            est = sc.delta_hat(src, n, family, 100_000, stream)
            ratio = est.value / (3.0 * est.std_error)
            worst = max(worst, ratio)
            if est.value > 3.0 * est.std_error:
                failures.append((k, n, est.value, est.std_error))
    ok = not failures
    elapsed = time.perf_counter() - start
    _report("criterion 7: Gaussian null case", ok,
            f"worst delta/(3 se) = {worst:.3f}", elapsed)
    assert ok, failures
    assert elapsed < 60.0


def test_criterion_08_scaling_law():
    start = time.perf_counter()
    bound_failures = []
    trend_failures = []
    for name in ("rademacher", "uniform"):
        for k in (1, 2, 3):
            family = sc.default_family(k)
            src = sc.make_source(name, k)
            rho3 = src.rho3
            scaled, scaled_se = [], []
            for n in (4, 16, 64, 256):
                stream = sc.RngStream(ACCEPTANCE_SEED).child(1000 + 13 * k + n)
                est = sc.delta_hat(src, n, family, 100_000, stream)
                bound = k**2.5 * rho3 / math.sqrt(n)
                if est.value > bound:
                    bound_failures.append((name, k, n, est.value, bound))
                scaled.append(est.value * math.sqrt(n))
                scaled_se.append(est.std_error * math.sqrt(n))
            if not sc.scaling_trend_ok(scaled, scaled_se):
                trend_failures.append((name, k, [round(v, 4) for v in scaled]))
    ok = not bound_failures and not trend_failures
    elapsed = time.perf_counter() - start
    _report("criterion 8: scaling law", ok,
            f"bound failures {bound_failures}; trend failures {trend_failures}", elapsed)
    assert elapsed < 600.0
    # Known red: the exact normalized cube discrepancy of the k=3 rademacher
    # lattice increases over n = 4..256 (0.427 -> 0.573, enumerable without
    # Monte Carlo), so the no-increasing-trend clause cannot hold as stated.
    assert ok, {"bound": bound_failures, "trend": trend_failures}


# sqrt(n) delta over the default family on the exact Rademacher law (tests/oracles.py)
EXACT_LATTICE_SCALED_DELTA = {
    1: {4: 0.710, 16: 0.7345, 64: 0.7362, 256: 0.7243},
    2: {4: 0.5173, 16: 0.4068, 64: 0.4258, 256: 0.4369},
    3: {4: 0.4273, 16: 0.5459, 64: 0.5631, 256: 0.5729},
}
# the largest lattices the oracle enumerates outright; beyond them it conditions
ENUMERATED_LATTICE_MAX_N = {1: 256, 2: 256, 3: 64}


@pytest.mark.parametrize("k", sorted(EXACT_LATTICE_SCALED_DELTA))
def test_exact_rademacher_lattice_discrepancy_is_pinned(k):
    # the cause of criterion 8's red cells: the law's own sqrt(n) delta rises from n = 4 to 16
    # at k = 1 and 3, and from n = 16 on at k = 2, with no sampling error in it
    family = sc.default_family(k)
    pinned = EXACT_LATTICE_SCALED_DELTA[k]
    exact = {n: rademacher_delta_by_conditioning(family, k, n) * math.sqrt(n) for n in pinned}
    assert exact == pytest.approx(pinned, abs=5e-5)
    # conditioning on all coordinates but one gives the enumerated lattice's value
    for n in (n for n in pinned if n <= ENUMERATED_LATTICE_MAX_N[k]):
        assert rademacher_delta(family, k, n) * math.sqrt(n) == pytest.approx(exact[n], abs=1e-12)


def test_criterion_09_induction_fixed_point():
    start = time.perf_counter()
    golden = ((1.0 + math.sqrt(5.0)) / 2.0) ** 2
    c_err = abs(sc.certified_constant(1.0, 1.0) - golden)
    envelope_ok = True
    for k in (1, 2, 3, 4, 5, 6):
        cert = sc.recursion_certify(k, float(k) ** 1.5, 10**6, sc.ConstantsConfig())
        envelope_ok &= cert.envelope_ok_from_2 and cert.n_star == 2
    ok = c_err <= 1e-12 and envelope_ok
    elapsed = time.perf_counter() - start
    _report("criterion 9: induction fixed point", ok,
            f"c* err {c_err:.1e}", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_10_noniid_machinery():
    start = time.perf_counter()
    # diagonal covariances: closed-form normalizers to 1e-12
    gen = sc.RngStream(ACCEPTANCE_SEED, stream_id=60).generator()
    d0 = gen.uniform(0.1, 0.7, size=3)
    d1 = np.sqrt(1.0 - d0**2)
    base = sc.uniform_source(3)
    src_vec = sc.NonIIDSource([(base, d0), (base, d1)])
    norm_err = 0.0
    for j, d in ((0, d0), (1, d1)):
        N = sc.normalizer_matrix(src_vec, j)
        norm_err = max(norm_err, float(np.max(np.abs(N - np.diag((1.0 - d**2) ** -0.5)))))
    n = 8
    src_iid = sc.NonIIDSource([(sc.gaussian_source(2), math.sqrt(1.0 / n))] * n)
    N = sc.normalizer_matrix(src_iid, 0)
    norm_err = max(norm_err, float(np.max(np.abs(N - math.sqrt(n / (n - 1.0)) * np.eye(2)))))

    moment_ok = True
    consistency_ok = True
    for base_name in ("gaussian", "rademacher", "uniform", "exponential"):
        for k in (1, 2, 3):
            cat = sc.noniid_catalog(base_name, k, 16)
            s = cat.moment_summary()
            moment_ok &= s.gamma3 <= k**1.5 * s.beta3 + 1e-12
            if 0.0 < s.beta3 < 1.0:
                consistency_ok &= (
                    sc.gamma3_bound(k, s.gamma3) <= sc.noniid_bound(k, s.beta3) + 1e-12
                )
    ok = norm_err <= 1e-12 and moment_ok and consistency_ok
    elapsed = time.perf_counter() - start
    _report("criterion 10: non-iid machinery", ok,
            f"normalizer err {norm_err:.1e}", elapsed)
    assert ok


def test_criterion_11_dimension_scan():
    start = time.perf_counter()
    report = sc.dim_scan(
        ["rademacher"],
        [1, 2, 3, 4],
        [64],
        lambda k: sc.default_family(k),
        100_000,
        sc.RngStream(ACCEPTANCE_SEED).child(29),
    )
    fit = report.k_exponents[("rademacher", 64)]
    ok = fit.defined and fit.slope <= 2.5 + fit.ci_half_width
    elapsed = time.perf_counter() - start
    _report("criterion 11: dimension scan", ok,
            f"empirical k-exponent {fit.slope:.3f} (+- {fit.ci_half_width:.3f})", elapsed)
    assert ok
    assert elapsed < 900.0
