import math

import numpy as np
import pytest
from scipy import stats

from steinclt import (
    Ball,
    Box,
    HalfSpace,
    IndicatorFunction,
    QuadratureSpec,
    RngStream,
    SmoothFunction,
    backward_residual,
    gaussian_measure,
    generator_apply,
    hermite_product_function,
    ou_noise,
    quantile_a,
    semigroup_apply,
    semigroup_derivative,
    semigroup_jet,
    transition_density,
)
from steinclt.errors import ConfigurationError, DomainError
from steinclt.quadrature import gauss_hermite_tensor
from steinclt.convex import _NCX2_SERIES_Z, _ncx2_densities


def test_transition_density_stationary_limit():
    x = np.array([1.0, -2.0, 0.5])
    gen = RngStream(13, stream_id=1).generator()
    ys = gen.standard_normal((20, 3))
    from steinclt import phi

    p = transition_density(20.0, x, ys)
    assert np.max(np.abs(p / phi(ys) - 1.0)) < 1e-7


def test_transition_density_direct_formula():
    val = transition_density(math.log(2.0), np.array([2.0]), np.array([1.0]))
    assert val == pytest.approx((2 * math.pi * 0.75) ** -0.5, rel=1e-14)


def test_transition_density_normalizes():
    for k in (1, 2, 3):
        nodes, wts = gauss_hermite_tensor(k, 64)
        x = np.full(k, 0.7)
        for t in (0.5, 1.5):
            # integrate p(t; x, y) dy against the GH grid for N(0, I)
            from steinclt import phi

            ratio = transition_density(t, x, nodes) / phi(nodes)
            assert float(ratio @ wts) == pytest.approx(1.0, abs=1e-8)


def test_transition_density_requires_positive_t():
    with pytest.raises(DomainError):
        transition_density(0.0, np.zeros(1), np.zeros(1))


def test_semigroup_constant_and_coordinates():
    const = SmoothFunction(lambda X: np.full(len(np.atleast_2d(X)), 3.5))
    x = np.array([0.4, -1.2])
    for t in (0.0, 0.3, 2.0):
        assert semigroup_apply(const, t, x) == pytest.approx(3.5, abs=1e-12)
    coord = SmoothFunction(lambda X: np.atleast_2d(X)[:, 0])
    sq = SmoothFunction(lambda X: np.atleast_2d(X)[:, 0] ** 2)
    for t in (0.25, 1.0):
        assert semigroup_apply(coord, t, x) == pytest.approx(math.exp(-t) * x[0], abs=1e-10)
        expect = math.exp(-2 * t) * x[0] ** 2 + (1 - math.exp(-2 * t))
        assert semigroup_apply(sq, t, x) == pytest.approx(expect, abs=1e-10)


def test_semigroup_t0_identity_for_indicator():
    h = IndicatorFunction(Ball(np.zeros(2), 1.0))
    assert semigroup_apply(h, 0.0, np.zeros(2)) == 1.0
    assert semigroup_apply(h, 0.0, np.array([2.0, 0.0])) == 0.0


def test_semigroup_bounded_by_sup():
    h = IndicatorFunction(HalfSpace(np.array([1.0, 0.0]), 0.2))
    gen = RngStream(14, stream_id=2).generator()
    for x in gen.standard_normal((20, 2)):
        v = semigroup_apply(h, 0.4, x)
        assert -1e-12 <= v <= 1.0 + 1e-12


def test_gh_indicator_fallback_close_to_analytic():
    # the tensor grid cannot resolve the jump well; just pin the crude scale
    h = IndicatorFunction(HalfSpace(np.array([1.0, 0.0]), 0.2))
    x = np.array([0.3, -0.4])
    exact = semigroup_apply(h, 0.5, x)
    gh = semigroup_apply(h, 0.5, x, QuadratureSpec(inner_method="gauss-hermite"))
    assert abs(gh - exact) < 0.15


def test_mc_indicator_fallback_close_to_analytic():
    h = IndicatorFunction(Ball(np.zeros(2), 1.2))
    x = np.array([0.5, 0.1])
    exact = semigroup_apply(h, 0.5, x)
    mc = semigroup_apply(h, 0.5, x, QuadratureSpec(inner_method="monte-carlo"))
    assert abs(mc - exact) < 0.02  # ~4 sigma for 2^16 samples


def test_analytic_method_rejected_for_smooth():
    g = SmoothFunction(lambda X: np.atleast_2d(X)[:, 0])
    with pytest.raises(ConfigurationError):
        semigroup_apply(g, 0.5, np.zeros(2), QuadratureSpec(inner_method="analytic"))


def test_quadrature_spec_is_validated_when_built():
    # an unknown method used to reach semigroup_derivative and semigroup_jet
    # unchecked and quietly run Monte Carlo there
    for bad in ({"inner_method": "bogus"}, {"inner_method": "analytic"},
                {"s_nodes": 15}, {"mc_samples": 1}):
        with pytest.raises(ConfigurationError):
            QuadratureSpec(**bad)


def test_gh_infeasible_above_three_dims():
    h = IndicatorFunction(Ball(np.zeros(4), 1.0))
    with pytest.raises(ConfigurationError):
        semigroup_apply(h, 0.5, np.zeros(4), QuadratureSpec(inner_method="gauss-hermite"))


def test_semigroup_derivative_matches_finite_difference():
    h = IndicatorFunction(Ball(np.array([0.3, -0.1]), 1.1))
    x = np.array([0.4, 0.9])
    s = 0.6
    step = 1e-4
    for i in (0, 1):
        e = np.zeros(2)
        e[i] = step
        fd = (semigroup_apply(h, s, x + e) - semigroup_apply(h, s, x - e)) / (2 * step)
        an = semigroup_derivative(h, s, x, (i,))
        assert an == pytest.approx(fd, abs=1e-6)
    for idx in ((0, 0), (0, 1), (1, 1)):
        e0, e1 = np.zeros(2), np.zeros(2)
        e0[idx[0]] = step
        e1[idx[1]] = step
        fd = (
            semigroup_apply(h, s, x + e0 + e1)
            - semigroup_apply(h, s, x + e0 - e1)
            - semigroup_apply(h, s, x - e0 + e1)
            + semigroup_apply(h, s, x - e0 - e1)
        ) / (4 * step**2)
        an = semigroup_derivative(h, s, x, idx)
        assert an == pytest.approx(fd, abs=1e-4)


def test_semigroup_derivative_fallbacks_agree_with_analytic():
    # the tensor grid sees the raw indicator jump, so only percent-level
    # agreement is available; this pins that all routes target one quantity
    h = IndicatorFunction(HalfSpace(np.array([1.0, 0.0]), 0.0))
    x = np.array([0.2, 0.5])
    an = semigroup_derivative(h, 2.5, x, (0,))
    gh = semigroup_derivative(h, 2.5, x, (0,), QuadratureSpec(inner_method="gauss-hermite"))
    mc = semigroup_derivative(h, 2.5, x, (0,), QuadratureSpec(inner_method="monte-carlo"))
    assert gh == pytest.approx(an, rel=5e-2)
    assert mc == pytest.approx(an, rel=5e-2)


@pytest.mark.parametrize("k", (1, 3))
def test_semigroup_jet_matches_per_index_derivatives(k):
    # the jet is the per-index derivatives regrouped: gradient entries are the
    # order-1 partials and the Laplacian is the sum of the (i, i) partials,
    # for every closed form and for the quadrature fallbacks alike
    X = RngStream(31, stream_id=k).generator().standard_normal((16, k))
    normal = np.linspace(1.0, -0.5, k)
    cases = [
        (IndicatorFunction(HalfSpace(normal / np.linalg.norm(normal), 0.2)), QuadratureSpec()),
        (IndicatorFunction(Ball(np.linspace(0.4, -0.3, k), 1.1)), QuadratureSpec()),
        (IndicatorFunction(Box(np.linspace(-1.2, -0.4, k), np.linspace(0.5, 1.6, k))),
         QuadratureSpec()),
        (IndicatorFunction(Ball(np.zeros(k), -1.0)), QuadratureSpec()),
        (hermite_product_function((1,) + (2,) * (k - 1)), QuadratureSpec()),
        (IndicatorFunction(Ball(np.zeros(k), 1.0)),
         QuadratureSpec(inner_method="monte-carlo", mc_samples=4096)),
    ]
    for h, quad in cases:
        grad, lap = semigroup_jet(h, 0.7, X, quad)
        assert grad.shape == (16, k) and lap.shape == (16,)
        for i in range(k):
            d1 = semigroup_derivative(h, 0.7, X, (i,), quad)
            assert np.max(np.abs(grad[:, i] - d1)) <= 1e-12
        d2 = sum(semigroup_derivative(h, 0.7, X, (i, i), quad) for i in range(k))
        assert np.max(np.abs(lap - d2)) <= 1e-12
        g0, l0 = semigroup_jet(h, 0.7, X[0], quad)
        assert g0.shape == (k,) and l0 == pytest.approx(lap[0], abs=1e-15)
    # the empty ball smooths to 0 everywhere, so every derivative vanishes
    empty = IndicatorFunction(Ball(np.zeros(k), -1.0))
    grad, lap = semigroup_jet(empty, 0.7, X)
    assert not grad.any() and not lap.any()
    assert not semigroup_derivative(empty, 0.7, X, (0, 0, 0)).any()


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5))
def test_ncx2_densities_match_scipy(k):
    # z = sqrt(lam q) on both sides of the switch between the power series
    # and the closed forms with the Bessel recurrence
    z = np.array([0.5, 2.0, 0.999 * _NCX2_SERIES_Z, 1.001 * _NCX2_SERIES_Z, 6.0, 12.0])
    nus = k + 2 + 2 * np.arange(3)
    for q in (0.7, 3.0, 9.0):
        lam = z**2 / q
        f = _ncx2_densities(q, k, lam, 3)
        assert f.shape == (3, len(lam))
        for row, nu in zip(f, nus):
            np.testing.assert_allclose(row, stats.ncx2.pdf(q, nu, lam), rtol=5e-14, atol=0)
        # dF_k / d lam = (F_{k+2} - F_k) / 2 = -f_{k+2}
        gap = stats.ncx2.cdf(q, k, lam) - stats.ncx2.cdf(q, k + 2, lam)
        assert np.max(np.abs(gap - 2.0 * f[0])) <= 1e-15
        at_zero = _ncx2_densities(q, k, np.zeros(1), 3)[:, 0]
        np.testing.assert_allclose(at_zero, stats.chi2.pdf(q, nus), rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "q, lam, expect",
    # -f_5(q; lam) to 20 digits, from the Bessel form in 40-digit arithmetic
    [(100.0, 1.0, -4.6258981189045175522e-18), (60.0, 0.3, -2.2070836161610069916e-11)],
)
def test_ball_lambda_derivative_keeps_relative_accuracy_inside_the_ball(q, lam, expect):
    # F_5 - F_3 cancels to 0 at (100, 1) and to four digits at (60, 0.3);
    # the density keeps every digit.  Reach (q, lam) through the ball's
    # gradient at s = ln 2: alpha = 1/2, w^2 = 3/4
    s = math.log(2.0)
    alpha, w = math.exp(-s), ou_noise(s)
    h = IndicatorFunction(Ball(np.zeros(3), math.sqrt(q) * w))
    x0 = math.sqrt(lam) * w / alpha
    d0 = semigroup_derivative(h, s, np.array([x0, 0.0, 0.0]), (0,))
    dF = d0 / (2.0 * alpha * alpha * x0 / w**2)  # D_0 = F'(lam) D_0 lam
    assert dF == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("k", (4, 5))
def test_ball_jet_beyond_three_dimensions(k):
    # dim-scan reaches k = 4; rows at the centre of the centred ball have
    # lambda = 0 exactly.  The values T_s h stay on noncentral chi-square CDFs,
    # so central differences of semigroup_apply check the jet independently
    gen = RngStream(33, stream_id=k).generator()
    X = np.vstack([np.zeros((2, k)), gen.standard_normal((14, k))])
    s, step = 0.7, 1e-4
    for C in (Ball(np.zeros(k), 1.4), Ball(np.linspace(0.4, -0.3, k), 2.0)):
        h = IndicatorFunction(C)
        grad, lap = semigroup_jet(h, s, X)
        for i in range(k):
            d1 = semigroup_derivative(h, s, X, (i,))
            assert np.max(np.abs(grad[:, i] - d1)) <= 1e-12
        d2 = sum(semigroup_derivative(h, s, X, (i, i)) for i in range(k))
        assert np.max(np.abs(lap - d2)) <= 1e-12
        mid = semigroup_apply(h, s, X)
        fd_lap = np.zeros(len(X))
        for i in range(k):
            e = np.zeros(k)
            e[i] = step
            up, down = semigroup_apply(h, s, X + e), semigroup_apply(h, s, X - e)
            assert np.max(np.abs(grad[:, i] - (up - down) / (2 * step))) <= 1e-9
            fd_lap += (up - 2.0 * mid + down) / step**2
        assert np.max(np.abs(lap - fd_lap)) <= 1e-6


def test_generator_eigenfunctions_exact():
    g1 = hermite_product_function((1, 0))
    g2 = hermite_product_function((1, 1))
    gen = RngStream(15, stream_id=3).generator()
    for x in gen.standard_normal((10, 2)):
        assert generator_apply(g1, x) == pytest.approx(-x[0], abs=1e-12)
        assert generator_apply(g2, x) == pytest.approx(-2.0 * x[0] * x[1], abs=1e-12)


def test_generator_constant_in_kernel():
    const = SmoothFunction(
        lambda X: np.full(len(np.atleast_2d(X)), 1.0),
        grad=lambda x: np.zeros_like(x),
        hess=lambda x: np.zeros((x.size, x.size)),
    )
    assert generator_apply(const, np.array([0.3, -0.8])) == 0.0


def test_generator_finite_difference_route():
    g = SmoothFunction(lambda X: np.atleast_2d(X)[:, 0] ** 2)
    x = np.array([0.7, -0.2])
    # L x0^2 = 2 - 2 x0^2
    assert generator_apply(g, x) == pytest.approx(2.0 - 2.0 * x[0] ** 2, abs=1e-5)


def test_generator_invariance_monte_carlo():
    gen = RngStream(16, stream_id=4).generator()
    Z = gen.standard_normal((1 << 14, 2))
    for orders in ((1, 0), (2, 0), (1, 1)):
        g = hermite_product_function(orders)
        vals = -sum(orders) * np.asarray(g(Z), dtype=float)
        se = float(np.std(vals) / math.sqrt(len(vals)))
        assert abs(float(np.mean(vals))) <= 4.0 * se


def test_backward_residual_eigenfunction():
    g = SmoothFunction(lambda X: np.atleast_2d(X)[:, 0])
    x = np.array([0.8, -0.3])
    assert abs(backward_residual(g, 0.7, x)) <= 1e-6


def test_backward_residual_indicators_small():
    gen = RngStream(17, stream_id=5).generator()
    pts = np.clip(gen.standard_normal((20, 2)), -2.5, 2.5)
    for C in (HalfSpace(np.array([1.0, 0.0]), 0.3), Ball(np.zeros(2), quantile_a(2).a_k)):
        h = IndicatorFunction(C)
        for x in pts[:5]:
            assert abs(backward_residual(h, 0.5, x)) <= 1e-3


def test_backward_residual_second_order_refinement():
    h = IndicatorFunction(HalfSpace(np.array([1.0, 0.0]), 0.3))
    x = np.array([0.4, -0.2])
    r1 = abs(backward_residual(h, 0.5, x, dt=2e-3, dx=2e-3))
    r2 = abs(backward_residual(h, 0.5, x, dt=1e-3, dx=1e-3))
    assert r2 <= r1 / 2.5 or r2 < 1e-9


def test_semigroup_law():
    h = IndicatorFunction(Ball(np.zeros(2), 1.2))
    gen = RngStream(18, stream_id=6).generator()
    pts = gen.standard_normal((5, 2))
    for t, s in ((0.1, 0.1), (0.5, 0.5), (0.1, 1.0)):
        inner = SmoothFunction(lambda X, s=s: semigroup_apply(h, s, X))
        for x in pts:
            lhs = semigroup_apply(h, t + s, x)
            rhs = semigroup_apply(inner, t, x)
            assert abs(lhs - rhs) <= 1e-5


def test_contraction_trend_for_centered_indicators():
    # pointwise |T_t h~(x)| can transiently grow when x sits near the set
    # boundary (the value crosses zero); away from the boundary the decay
    # toward the mean is monotone on the grid
    ts = (0.25, 0.5, 1.0, 2.0, 4.0)
    gen = RngStream(19, stream_id=7).generator()
    pts = gen.standard_normal((12, 2))
    for C in (HalfSpace(np.array([1.0, 0.0]), 0.3), Ball(np.zeros(2), 1.2)):
        h = IndicatorFunction(C)
        mass = gaussian_measure(C)
        checked = 0
        for x in pts:
            if min(abs(C.distance_inside(x)), C.distance_outside(x) or np.inf) < 0.5:
                continue
            vals = [abs(semigroup_apply(h, t, x) - mass) for t in ts]
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
            checked += 1
        assert checked >= 3


def test_contraction_in_l2_norm():
    # the spectral-gap statement itself: the Gaussian L2 norm of T_t h~ is
    # strictly decreasing in t
    from steinclt.quadrature import gauss_hermite_tensor

    nodes, wts = gauss_hermite_tensor(2, 48)
    for C in (HalfSpace(np.array([1.0, 0.0]), 0.3), Ball(np.zeros(2), 1.2)):
        h = IndicatorFunction(C)
        mass = gaussian_measure(C)
        norms = []
        for t in (0.25, 0.5, 1.0, 2.0):
            vals = np.asarray(semigroup_apply(h, t, nodes)) - mass
            norms.append(float((vals * vals) @ wts))
        assert all(b < a for a, b in zip(norms, norms[1:]))


def test_stationarity_long_time():
    for C in (HalfSpace(np.array([1.0, 0.0]), 0.3), Ball(np.zeros(2), 1.2)):
        h = IndicatorFunction(C)
        mass = gaussian_measure(C)
        assert semigroup_apply(h, 20.0, np.array([1.5, -0.7])) == pytest.approx(
            mass, abs=1e-6
        )


def test_noise_scale_stable_for_small_t():
    assert ou_noise(1e-12) == pytest.approx(math.sqrt(2e-12), rel=1e-6)
