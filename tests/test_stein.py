import math

import numpy as np
import pytest

from steinclt import (
    Ball,
    Box,
    Ellipsoid,
    HalfSpace,
    IndicatorFunction,
    QuadratureSpec,
    RngStream,
    SmoothFunction,
    SteinSolution,
    d3_phi,
    double_integral_kernel_report,
    laplacian_drift,
    norm_cdf,
    psi,
    psi_d1,
    psi_d2,
    psi_d3,
    semigroup_derivative,
    smoothed_target,
    smoothing_weight,
    stein_residual,
    weight1_integral_total,
    weight3_integral,
    weight_bound,
)
from steinclt.errors import DomainError


def _halfspace_solution(k=2, t=0.5):
    return SteinSolution(t, IndicatorFunction(HalfSpace(np.eye(k)[0], 0.0)))


def test_psi_zero_for_constant():
    const = SmoothFunction(lambda X: np.full(len(np.atleast_2d(X)), 2.0))
    sol = SteinSolution(0.5, const)
    for x in (np.zeros(2), np.array([1.0, -0.5])):
        assert abs(psi(sol, x)) <= 1e-10
        assert abs(stein_residual(sol, x)) <= 1e-10


def test_psi_closed_form_for_quadratic():
    # h(x) = x0^2 has T_s h~ = e^{-2s}(x0^2 - 1), hence
    # psi_t = -(x0^2 - 1) e^{-2t}/2 and the identity closes exactly
    h = SmoothFunction(lambda X: np.atleast_2d(X)[:, 0] ** 2)
    t = 0.5
    sol = SteinSolution(t, h)
    for x in (np.array([0.0, 0.0]), np.array([1.3, -0.4]), np.array([-2.0, 1.0])):
        expect = -(x[0] ** 2 - 1.0) * math.exp(-2.0 * t) / 2.0
        assert psi(sol, x) == pytest.approx(expect, abs=1e-8)
        assert abs(stein_residual(sol, x)) <= 1e-8


def test_psi_depends_only_on_projection():
    sol = _halfspace_solution()
    base = psi(sol, np.array([0.4, 0.0]))
    for x2 in np.linspace(-3, 3, 7):
        assert psi(sol, np.array([0.4, x2])) == pytest.approx(base, abs=1e-12)


def test_psi_against_dense_grid_oracle():
    # independent oracle: trapezoid in u = e^{-s} over the closed-form integrand
    t, b, x1 = 0.5, 0.0, 0.0
    u = np.linspace(1e-9, math.exp(-t), 400_001)
    w = np.sqrt(1.0 - u * u)
    integrand = (norm_cdf((b - u * x1) / w) - norm_cdf(b)) / u
    oracle = -np.trapezoid(integrand, u) if hasattr(np, "trapezoid") else -np.trapz(integrand, u)
    sol = _halfspace_solution(t=t)
    assert psi(sol, np.array([x1, 0.0])) == pytest.approx(oracle, abs=1e-4)


def test_psi_derivatives_match_finite_differences():
    sol = _halfspace_solution()
    gen = RngStream(21, stream_id=1).generator()
    pts = np.clip(gen.standard_normal((20, 2)), -2.0, 2.0)
    h = 1e-4
    for x in pts[:8]:
        for i in (0, 1):
            e = np.zeros(2)
            e[i] = h
            fd = (psi(sol, x + e) - psi(sol, x - e)) / (2 * h)
            an = psi_d1(sol, x, i)
            assert abs(fd - an) <= 1e-3 * max(abs(an), 1e-3)


def test_psi_second_third_derivatives_consistent():
    sol = _halfspace_solution(t=0.5)
    x = np.array([0.3, -0.6])
    h = 1e-3
    e0 = np.array([h, 0.0])
    fd2 = (psi(sol, x + e0) - 2 * psi(sol, x) + psi(sol, x - e0)) / h**2
    assert psi_d2(sol, x, (0, 0)) == pytest.approx(fd2, rel=1e-2, abs=1e-4)
    fd3 = (
        psi(sol, x + 2 * e0) - 2 * psi(sol, x + e0) + 2 * psi(sol, x - e0) - psi(sol, x - 2 * e0)
    ) / (2 * h**3)
    assert psi_d3(sol, x, (0, 0, 0)) == pytest.approx(fd3, rel=1e-2, abs=1e-3)


def test_psi_d3_symmetric_in_index_order():
    h = IndicatorFunction(Ball(np.array([0.2, -0.4]), 1.1))
    sol = SteinSolution(0.5, h)
    x = np.array([0.7, 0.1])
    vals = {psi_d3(sol, x, p) for p in ((0, 0, 1), (0, 1, 0), (1, 0, 0))}
    assert max(vals) - min(vals) <= 1e-12


def test_stein_identity_on_catalog():
    gen = RngStream(22, stream_id=2).generator()
    pts = np.clip(gen.standard_normal((20, 2)), -2.5, 2.5)
    for C in (HalfSpace(np.eye(2)[0], 0.3), Ball(np.zeros(2), 1.2), Box(-np.ones(2), np.ones(2))):
        for t in (0.5, 1.0):
            sol = SteinSolution(t, IndicatorFunction(C))
            res = np.abs(np.asarray(stein_residual(sol, pts)))
            assert float(np.max(res)) <= 1e-3


def _jet_catalog(k):
    normal = np.arange(1.0, k + 1.0)
    return {
        "half-space": HalfSpace(normal / np.linalg.norm(normal), 0.3),
        "off-centre ball": Ball(np.linspace(0.4, -0.3, k), 1.1),
        "asymmetric box": Box(np.linspace(-1.2, -0.4, k), np.linspace(0.5, 1.6, k)),
    }


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("t", (0.5, 1.0))
def test_stein_identity_closes_on_closed_form_sets(k, t):
    pts = RngStream(24, stream_id=k).generator().standard_normal((64, k))
    for name, C in _jet_catalog(k).items():
        sol = SteinSolution(t, IndicatorFunction(C))
        res = np.abs(np.asarray(stein_residual(sol, pts)))
        assert float(np.max(res)) <= 1e-12, name
        per_index = sum(
            np.asarray(psi_d2(sol, pts, (i, i))) - pts[:, i] * np.asarray(psi_d1(sol, pts, i))
            for i in range(k)
        )
        drift = np.asarray(laplacian_drift(sol, pts))
        assert float(np.max(np.abs(drift - per_index))) <= 1e-12, name


def test_psi_d1_rejects_bad_index():
    sol = _halfspace_solution()
    with pytest.raises(DomainError):
        psi_d1(sol, np.zeros(2), 2)


def test_stein_identity_through_monte_carlo_inner():
    # force the MC inner integrals on a set that has a closed form, and use
    # a set that has none at all; both must close the identity at MC accuracy
    x = np.array([0.4, -0.3])
    quad = QuadratureSpec(inner_method="monte-carlo", mc_samples=1 << 15)
    sol_hs = SteinSolution(0.5, IndicatorFunction(HalfSpace(np.eye(2)[0], 0.0)), quad)
    assert abs(stein_residual(sol_hs, x)) <= 0.05
    ell = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
    sol_ell = SteinSolution(0.5, IndicatorFunction(ell), quad)
    assert abs(stein_residual(sol_ell, x)) <= 0.1


def test_psi_monte_carlo_matches_analytic():
    h = IndicatorFunction(HalfSpace(np.eye(2)[0], 0.0))
    x = np.array([0.7, 0.2])
    exact = psi(SteinSolution(0.5, h), x)
    mc = psi(SteinSolution(0.5, h, QuadratureSpec(inner_method="monte-carlo")), x)
    assert abs(mc - exact) <= 0.02


def test_stein_residual_refines_with_node_count():
    # at the smallest t the time quadrature error is visible at 16 nodes and
    # must fall fast as nodes double
    h = IndicatorFunction(Ball(np.zeros(1), 1.0))
    x = np.array([1.3])
    r16, r32, r64 = (
        abs(stein_residual(SteinSolution(0.01, h, QuadratureSpec(s_nodes=m)), x))
        for m in (16, 32, 64)
    )
    assert r16 > 1e-5
    assert r32 <= 1e-2 * r16
    assert r64 <= 1e-9


def test_solution_rejects_tiny_t():
    with pytest.raises(DomainError):
        SteinSolution(1e-3, IndicatorFunction(Ball(np.zeros(1), 1.0)))


def test_weight_inequality_pointwise():
    gen = RngStream(23, stream_id=3).generator()
    s = np.exp(gen.uniform(math.log(1e-6), math.log(25.0), size=10_000))
    assert np.all(smoothing_weight(s) <= weight_bound(s))


def test_weight3_integral_against_antiderivative():
    # closed form: u/sqrt(1-u^2) - asin(u) evaluated at u = e^{-t}
    for t in (0.01, 0.1, 0.5, 1.0):
        u = math.exp(-t)
        closed = u / math.sqrt(1 - u * u) - math.asin(u)
        val = weight3_integral(t)
        assert val == pytest.approx(closed, abs=1e-10)
        assert val <= (2.0 * t) ** -0.5 + 1e-8


def test_weight1_total_is_half_pi():
    assert weight1_integral_total() == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_smoothed_target_matches_semigroup():
    sol = _halfspace_solution(t=0.5)
    x = np.array([0.3, 1.0])
    u = (0.0 - math.exp(-0.5) * x[0]) / math.sqrt(1 - math.exp(-1.0))
    expected = float(norm_cdf(u)) - 0.5
    assert smoothed_target(sol, x) == pytest.approx(expected, abs=1e-12)


def test_kernel_report_halfspace_bounds():
    h = IndicatorFunction(HalfSpace(np.eye(1)[0], 0.0))
    grid = np.linspace(-2, 2, 9)[:, None]
    rep = double_integral_kernel_report(h, n=10, s=2.0, idx=(0, 0, 0), shift_grid=grid)
    assert rep.max_abs <= math.sqrt(6.0)
    assert rep.implied_constant == pytest.approx(rep.max_abs / rep.envelope, rel=1e-12)
    assert len(rep.per_shift) == 9


def test_kernel_report_zero_for_constant():
    const = SmoothFunction(lambda X: np.full(len(np.atleast_2d(X)), 1.0))
    rep = double_integral_kernel_report(
        const, n=4, s=1.0, idx=(0, 0, 0), shift_grid=np.zeros((1, 2)),
        quad=QuadratureSpec(mc_samples=4096),
    )
    assert rep.max_abs <= 1e-12


def test_kernel_report_monte_carlo_route_stable():
    # an ellipsoid has no closed smoothing, forcing the MC branch
    h = IndicatorFunction(Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])))
    grid = np.zeros((1, 2))
    r1 = double_integral_kernel_report(
        h, n=10, s=1.0, idx=(0, 0, 1), shift_grid=grid,
        quad=QuadratureSpec(mc_samples=1 << 14), stream=RngStream(3, stream_id=5),
    )
    r2 = double_integral_kernel_report(
        h, n=10, s=1.0, idx=(0, 0, 1), shift_grid=grid,
        quad=QuadratureSpec(mc_samples=1 << 15), stream=RngStream(4, stream_id=6),
    )
    assert r1.std_error > 0.0
    assert abs(r1.max_abs - r2.max_abs) <= 4.0 * (r1.std_error + r2.std_error)


def test_kernel_vanishing_moments():
    # integrals of the kernel and of z_i times the kernel vanish
    from steinclt.quadrature import gauss_hermite_tensor
    from steinclt import hermite_kernel

    nodes, wts = gauss_hermite_tensor(2, 32)
    for idx in ((0, 0, 0), (0, 0, 1), (0, 1, 1)):
        kern = hermite_kernel(wts, nodes, idx)
        assert abs(float(kern.sum())) <= 1e-8
        for i0 in (0, 1):
            assert abs(float(kern @ nodes[:, i0])) <= 1e-8


def _index_entry_points():
    """entry point -> (its derivative order, call taking only the index), at k = 2."""
    h = IndicatorFunction(Box(-np.ones(2), np.ones(2)))
    sol = SteinSolution(0.5, h, QuadratureSpec(s_nodes=16))
    x = np.array([[0.3, -0.2]])
    return {
        "semigroup_derivative": (1, lambda idx: semigroup_derivative(h, 0.5, x, idx)),
        "psi_d2": (2, lambda idx: psi_d2(sol, x, idx)),
        "psi_d3": (3, lambda idx: psi_d3(sol, x, idx)),
        "d3_phi": (3, lambda idx: d3_phi(x, idx)),
        "double_integral_kernel_report": (
            3, lambda idx: double_integral_kernel_report(h, 8, 0.5, idx, x)
        ),
    }


@pytest.mark.parametrize(
    "entry", ["semigroup_derivative", "psi_d2", "psi_d3", "d3_phi", "double_integral_kernel_report"]
)
@pytest.mark.parametrize("bad", ["order-4", "index-k", "index-negative"])
def test_bad_derivative_index_raises_domain_error(entry, bad):
    order, call = _index_entry_points()[entry]
    idx = {
        "order-4": (0, 0, 0, 0),
        "index-k": (2,) + (0,) * (order - 1),
        "index-negative": (0,) * (order - 1) + (-1,),
    }[bad]
    with pytest.raises(DomainError):
        call(idx)
