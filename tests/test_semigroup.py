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
    SteinSolution,
    backward_residual,
    gaussian_measure,
    generator_apply,
    hermite_product_function,
    ou_noise,
    psi_d2,
    quantile_a,
    semigroup_apply,
    semigroup_derivative,
    semigroup_jet,
    shifted_measure_batch,
)
from steinclt import convex
from steinclt.errors import ConfigurationError, DomainError
from steinclt.gaussian import norm_cdf, norm_pdf
from steinclt.quadrature import MC_SAMPLES, gauss_hermite_tensor
from steinclt.convex import (
    _NCX2_SERIES_TERMS, _NCX2_SERIES_Z, _ncx2_densities, _ncx2_series_coefficients,
)


def _transition_density(t, x, y):
    """OU transition density p(t; x, y): Gaussian, mean e^{-t}x, var (1-e^{-2t})I, per row of y."""
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    var = -math.expm1(-2.0 * t)
    diff = ys - math.exp(-t) * x
    norm = (2.0 * math.pi * var) ** (-0.5 * x.size)
    out = norm * np.exp(-0.5 * np.sum(diff * diff, axis=1) / var)
    return out if np.ndim(y) > 1 else float(out[0])


def test_transition_density_stationary_limit():
    x = np.array([1.0, -2.0, 0.5])
    gen = RngStream(13, stream_id=1).generator()
    ys = gen.standard_normal((20, 3))
    from steinclt import phi

    p = _transition_density(20.0, x, ys)
    assert np.max(np.abs(p / phi(ys) - 1.0)) < 1e-7


def test_transition_density_direct_formula():
    val = _transition_density(math.log(2.0), np.array([2.0]), np.array([1.0]))
    assert val == pytest.approx((2 * math.pi * 0.75) ** -0.5, rel=1e-14)


def test_transition_density_normalizes():
    for k in (1, 2, 3):
        nodes, wts = gauss_hermite_tensor(k, 64)
        x = np.full(k, 0.7)
        for t in (0.5, 1.5):
            # integrate p(t; x, y) dy against the GH grid for N(0, I)
            from steinclt import phi

            ratio = _transition_density(t, x, nodes) / phi(nodes)
            assert float(ratio @ wts) == pytest.approx(1.0, abs=1e-8)


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
    for bad in ({"inner_method": "bogus"}, {"inner_method": "analytic"}):
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
        # closed-form value, quadrature derivatives
        (IndicatorFunction(Box(np.linspace(-1.0, -0.2, k), np.linspace(0.3, 0.9, k)).dilate(0.2)),
         QuadratureSpec()),
        (hermite_product_function((1,) + (2,) * (k - 1)), QuadratureSpec()),
        (IndicatorFunction(Ball(np.zeros(k), 1.0)),
         QuadratureSpec(inner_method="monte-carlo")),
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


def test_dilated_box_value_is_closed_form_and_matches_monte_carlo():
    h = IndicatorFunction(Box([-0.5, -0.3], [0.7, 0.4]).dilate(0.2))
    X = RngStream(32, stream_id=1).generator().standard_normal((6, 2))
    exact = semigroup_apply(h, 0.5, X)
    assert np.array_equal(exact, shifted_measure_batch(h.set, math.exp(-0.5) * X, ou_noise(0.5)))
    quad = QuadratureSpec(inner_method="monte-carlo")
    mc = semigroup_apply(h, 0.5, X, quad)
    se = np.sqrt(exact * (1.0 - exact) / MC_SAMPLES)
    assert np.all(np.abs(mc - exact) <= 4.0 * se)


# D_0, D_01 and D_001 of T_s 1_C, the jet, and psi_d2 at (0, 1) for the
# dilated box below at s = t = 0.5, as the Gauss-Hermite fallback gave them
# when the dilated box was an untyped predicate-backed set; psi_d2 re-recorded
# with 0.7.0, whose 16-node time rule at t = 0.5 moved it by 3.2e-4, the size of
# the Gauss-Hermite fallback's own error (its integrand in s is not smooth)
_DILATED_BOX_FALLBACK = {
    "d0": [0.0, -0.0694899249230338, 0.13524897714534795],
    "d01": [0.0, -0.027040802577754482, -0.02303953847935644],
    "d001": [0.0, -0.030293222431267208, 0.009637357542067394],
    "grad": [0.0, 0.0, -0.06948992492303378, 0.09533410650538042, 0.13524897714534795,
             -0.044811894890290464],
    "lap": [-0.28846404207042786, -0.17272232928473652, -0.17290074868204655],
    "psi_d2": [-0.0, 0.005760323316035605, 0.003620607314921448],
}


def test_dilated_box_derivatives_keep_the_quadrature_fallback():
    h = IndicatorFunction(Box([-0.5, -0.3], [0.7, 0.4]).dilate(0.2))
    X = np.array([[0.1, 0.2], [0.9, -0.6], [-0.8, 0.5]])
    grad, lap = semigroup_jet(h, 0.5, X)
    got = {
        "d0": semigroup_derivative(h, 0.5, X, (0,)),
        "d01": semigroup_derivative(h, 0.5, X, (0, 1)),
        "d001": semigroup_derivative(h, 0.5, X, (0, 0, 1)),
        "grad": grad.ravel(),
        "lap": lap,
        "psi_d2": psi_d2(SteinSolution(0.5, h), X, (0, 1)),
    }
    for name, expected in _DILATED_BOX_FALLBACK.items():
        assert np.asarray(got[name]).tolist() == expected, name


def test_box_derivatives_take_their_limit_at_infinite_bounds():
    # an infinite bound's edge term He_{m-1}(z) phi(z) was inf * 0 = NaN (and a
    # RuntimeWarning); a bound 60 from every row has phi = 0 there, which is
    # that term's limit, so the slab must give the far box's bytes
    X = RngStream(34, stream_id=1).generator().standard_normal((12, 3))
    slab = IndicatorFunction(Box([-0.5, -math.inf, -math.inf], [math.inf, math.inf, 1.0]))
    far = IndicatorFunction(Box([-0.5, -60.0, -60.0], [60.0, 60.0, 1.0]))
    for s in (0.05, 0.7):
        for idx in ((0,), (0, 0), (1, 1), (2, 2), (0, 1, 2), (1, 1, 1), (2, 2, 0)):
            got = semigroup_derivative(slab, s, X, idx)
            assert np.isfinite(got).all()
            assert np.array_equal(got, semigroup_derivative(far, s, X, idx)), (s, idx)
        for got, want in zip(semigroup_jet(slab, s, X), semigroup_jet(far, s, X)):
            assert np.isfinite(got).all() and np.array_equal(got, want)


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "lower, upper, row, far",
    [
        ([-1.0, -math.inf], [1.0, 1.0], [0.0, -math.inf], [0.0, -1e300]),
        ([-1.0, -0.5], [1.0, math.inf], [0.2, math.inf], [0.2, 1e300]),
        ([-math.inf, -math.inf], [math.inf, 0.3], [-math.inf, 0.1], [-1e300, 0.1]),
    ],
    ids=["lower", "upper", "orthant"],
)
def test_box_hooks_at_an_infinite_row_meeting_an_infinite_bound(lower, upper, row, far):
    # the edge (bound - alpha x) / w met inf - inf ("invalid value encountered in
    # subtract", an error in this suite); an infinite bound is its own edge, so
    # the infinite row gives the bytes of a far finite row
    B = Box(lower, upper)
    h = IndicatorFunction(B)
    finite = [[0.3, 0.2], [-0.7, 0.05]]
    X, Y = np.array([row] + finite), np.array([far] + finite)
    _same_bytes(B.shifted_measure(X, 0.7), B.shifted_measure(Y, 0.7))
    for t in (0.05, 0.5):
        _same_bytes(semigroup_apply(h, t, X), semigroup_apply(h, t, Y))
    for s in (0.5, np.array([0.05, 0.5, 2.0])):
        for idx in ((0,), (1,), (0, 1), (1, 1), (1, 1, 1), (0, 0, 1)):
            _same_bytes(semigroup_derivative(h, s, X, idx), semigroup_derivative(h, s, Y, idx))
        for got, want in zip(semigroup_jet(h, s, X), semigroup_jet(h, s, Y)):
            _same_bytes(got, want)


def test_dilated_box_measure_at_an_infinite_row_meeting_an_infinite_bound():
    # a dilated box forms its edges as its box does, so it met the same inf - inf;
    # its far twin sits at 1e150, since a normal density squares its argument
    C = Box([-1.0, -math.inf], [1.0, 1.0]).dilate(0.2)
    X = np.array([[0.0, -math.inf], [0.3, 0.2]])
    Y = np.array([[0.0, -1e150], [0.3, 0.2]])
    _same_bytes(C.shifted_measure(X, 0.7), C.shifted_measure(Y, 0.7))
    for t in (0.05, 0.5):
        h = IndicatorFunction(C)
        _same_bytes(semigroup_apply(h, t, X), semigroup_apply(h, t, Y))


def test_box_edge_of_a_nan_entry_stays_nan_at_an_infinite_bound():
    # the infinite bounds are their own edges only for rows that are not NaN there
    B = Box([-1.0, -math.inf], [1.0, math.inf])
    X = np.array([[0.0, math.nan], [0.0, 0.3]])
    assert np.isnan(B.shifted_measure(X, 1.0)[0])
    assert np.isnan(semigroup_derivative(IndicatorFunction(B), 0.5, X, (0,))[0])


def _box_jet_by_delete(B, alpha, w, X):
    """The box jet as np.prod over np.delete of the plain factors, for the bits it must keep."""
    alpha, w = alpha[:, None, None], w[:, None, None]
    hi, lo = (B.upper - alpha * X) / w, (B.lower - alpha * X) / w
    plain = norm_cdf(hi) - norm_cdf(lo)
    hi_c, lo_c = np.clip(hi, -40.0, 40.0), np.clip(lo, -40.0, 40.0)
    pdf_hi, pdf_lo = norm_pdf(hi_c), norm_pdf(lo_c)
    scale = [np.array([-((a / b) ** m) for a, b in zip(alpha.ravel().tolist(), w.ravel().tolist())])
             for m in (1, 2)]
    first = scale[0][:, None, None] * (np.ones_like(hi_c) * pdf_hi - np.ones_like(lo_c) * pdf_lo)
    second = scale[1][:, None, None] * (hi_c * pdf_hi - lo_c * pdf_lo)
    grad = np.empty_like(plain)
    lap = np.zeros(plain.shape[:2])
    for i in range(X.shape[1]):
        others = np.prod(np.delete(plain, i, axis=2), axis=2)
        grad[..., i] = first[..., i] * others
        lap += second[..., i] * others
    return grad, lap


@pytest.mark.parametrize("k", range(1, 9))
def test_box_jet_multiplies_the_other_columns_as_np_prod_does(k):
    # the jet forms each coordinate's product of the other plain factors column
    # by column; it must keep the bits of np.prod over the deleted column
    gen = RngStream(36, stream_id=k).generator()
    X = gen.standard_normal((40, k)) * gen.choice([0.2, 1.0, 4.0], size=(40, 1))
    times = np.array([0.01, 0.3, 0.7, 2.5, 9.0])
    alpha = np.array([math.exp(-s) for s in times.tolist()])
    w = np.array([ou_noise(s) for s in times.tolist()])
    lower = -gen.uniform(0.1, 2.0, k)
    upper = gen.uniform(0.1, 2.0, k)
    lower[0] = -math.inf
    for B in (Box(lower, gen.uniform(0.1, 2.0, k)), Box(-np.ones(k), upper)):
        for got, want in zip(B.smoothed_jet(alpha, w, X), _box_jet_by_delete(B, alpha, w, X)):
            _same_bytes(got, want)


@pytest.mark.parametrize(
    "C", [HalfSpace([0.6, 0.8], 0.2), Ball([0.1, 0.0], 1.0)], ids=["half-space", "ball"]
)
def test_half_space_and_ball_derivatives_take_their_limit_on_an_infinite_row(C):
    # He_m(+-inf) phi(+-inf) and the ball's inf * 0 were NaN with a RuntimeWarning;
    # the infinite row takes its limit 0 and the finite row keeps its bits
    h = IndicatorFunction(C)
    finite = [[0.3, 0.2]]
    for far in ([math.inf, 0.0], [-math.inf, 0.0], [0.0, math.inf]):
        X = [far] + finite
        for s in (0.5, np.array([0.05, 0.5, 2.0])):
            for idx in ((0,), (0, 0), (0, 1), (1, 1, 0)):
                got = semigroup_derivative(h, s, X, idx)
                assert np.all(got[..., 0] == 0.0)
                assert np.array_equal(got[..., 1:], semigroup_derivative(h, s, finite, idx))
            grad, lap = semigroup_jet(h, s, X)
            want_grad, want_lap = semigroup_jet(h, s, finite)
            assert np.all(grad[..., 0, :] == 0.0) and np.all(lap[..., 0] == 0.0)
            assert np.array_equal(grad[..., 1:, :], want_grad)
            assert np.array_equal(lap[..., 1:], want_lap)


@pytest.mark.parametrize("normal", ([1.0, 0.0], [0.0, 0.6, 0.0, 0.8]), ids=["axis-2", "zeros-4"])
def test_half_space_hooks_ignore_an_infinite_entry_off_the_normal(normal):
    # normal . x met inf * 0 = NaN, with a RuntimeWarning, in an entry the normal
    # ignores; the value and derivatives depend only on the entries it weighs
    h = IndicatorFunction(HalfSpace(normal, 0.2))
    k = len(normal)
    finite = RngStream(35, stream_id=1).generator().standard_normal((3, k))
    off = np.flatnonzero(np.asarray(normal) == 0.0)
    far = finite.copy()
    far[0, off] = math.inf
    far[1, off] = -math.inf
    far[2, off[0]] = math.inf
    X = np.vstack([far[:2], finite, far[2:]])
    for t in (0.05, 0.5, 2.0):
        got = semigroup_apply(h, t, X)
        assert np.array_equal(got[[0, 1, 5]], got[[2, 3, 4]])
        assert np.array_equal(got[2:5], semigroup_apply(h, t, finite))
    for s in (0.5, np.array([0.05, 0.5, 2.0])):
        for idx in ((1,), (1, 1), (1, 3 % k), (1, 1, 0)):
            got = semigroup_derivative(h, s, X, idx)
            assert np.array_equal(got[..., [0, 1, 5]], got[..., [2, 3, 4]])
            assert np.array_equal(got[..., 2:5], semigroup_derivative(h, s, finite, idx))
        grad, lap = semigroup_jet(h, s, X)
        want_grad, want_lap = semigroup_jet(h, s, finite)
        assert np.array_equal(grad[..., [0, 1, 5], :], grad[..., [2, 3, 4], :])
        assert np.array_equal(lap[..., [0, 1, 5]], lap[..., [2, 3, 4]])
        assert np.array_equal(grad[..., 2:5, :], want_grad)
        assert np.array_equal(lap[..., 2:5], want_lap)


_HALF_PLANE = IndicatorFunction(HalfSpace(np.array([1.0, 0.0]), 0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda t: semigroup_apply(_HALF_PLANE, t, np.zeros(2)),
        lambda t: semigroup_derivative(_HALF_PLANE, t, np.zeros(2), (0,)),
        lambda t: semigroup_jet(_HALF_PLANE, t, np.zeros(2)),
        lambda t: backward_residual(_HALF_PLANE, t, np.zeros(2)),
        lambda t: semigroup_derivative(_HALF_PLANE, np.array([0.5, t]), np.zeros(2), (0,)),
        lambda t: semigroup_jet(_HALF_PLANE, np.array([0.5, t]), np.zeros(2)),
    ],
    ids=["semigroup_apply", "semigroup_derivative", "semigroup_jet", "backward_residual",
         "semigroup_derivative-times", "semigroup_jet-times"],
)
def test_nan_time_raises(call):
    # each returned nan: the checks were written so that NaN passed them
    with pytest.raises(DomainError):
        call(math.nan)


@pytest.mark.parametrize(
    "times",
    [[0.5, 0.0], [-0.5, 0.5], [0.5, math.nan], [-math.inf], [0.5, math.inf], [], [[0.5, 1.0]]],
    ids=["zero", "negative", "nan", "minus-inf", "plus-inf", "empty", "two-dimensional"],
)
@pytest.mark.parametrize("entry", ["semigroup_derivative", "semigroup_jet"])
def test_derivative_time_arrays_are_checked(entry, times):
    call = {
        "semigroup_derivative": lambda s: semigroup_derivative(_HALF_PLANE, s, np.zeros(2), (0,)),
        "semigroup_jet": lambda s: semigroup_jet(_HALF_PLANE, s, np.zeros(2)),
    }[entry]
    with pytest.raises(DomainError):
        call(np.array(times))
    if np.ndim(times) == 1 and len(times) == 1:
        with pytest.raises(DomainError):
            call(times[0])


@pytest.mark.parametrize(
    "h, quad",
    [
        (IndicatorFunction(HalfSpace(np.array([0.6, -0.8]), 0.2)), QuadratureSpec()),
        (IndicatorFunction(Ball(np.array([0.4, -0.3]), 1.1)), QuadratureSpec()),
        (IndicatorFunction(Box([-1.2, -0.4], [0.5, math.inf])), QuadratureSpec()),
        (IndicatorFunction(Ball(np.zeros(2), -1.0)), QuadratureSpec()),
        (IndicatorFunction(Box([-0.5, -0.3], [0.7, 0.4]).dilate(0.2)), QuadratureSpec()),
        (IndicatorFunction(Ball(np.zeros(2), 1.0)), QuadratureSpec(inner_method="gauss-hermite")),
    ],
    ids=["half-space", "ball", "slab", "empty", "dilated-box", "gauss-hermite"],
)
def test_derivatives_at_an_array_of_times_stack_the_single_time_values(h, quad):
    # a time axis first, each entry the bytes of its single-time call
    X = RngStream(35, stream_id=2).generator().standard_normal((5, 2))
    times = np.array([0.02, 0.5, 3.0])
    for idx in ((1,), (0, 0), (0, 1, 1)):
        got = semigroup_derivative(h, times, X, idx, quad)
        want = np.stack([semigroup_derivative(h, s, X, idx, quad) for s in times])
        assert got.shape == (3, 5) and got.tobytes() == want.tobytes()
        at_point = semigroup_derivative(h, times, X[2], idx, quad)
        assert at_point.shape == (3,) and at_point.tobytes() == got[:, 2].tobytes()
    grad, lap = semigroup_jet(h, times, X, quad)
    singles = [semigroup_jet(h, s, X, quad) for s in times]
    assert grad.shape == (3, 5, 2) and lap.shape == (3, 5)
    assert grad.tobytes() == np.stack([g for g, _ in singles]).tobytes()
    assert lap.tobytes() == np.stack([l for _, l in singles]).tobytes()
    g2, l2 = semigroup_jet(h, times, X[2], quad)
    assert g2.shape == (3, 2) and g2.tobytes() == grad[:, 2].tobytes()
    assert l2.shape == (3,) and l2.tobytes() == lap[:, 2].tobytes()


@pytest.mark.parametrize("count", (1, 2, 3))
@pytest.mark.parametrize("k", range(1, 9))
def test_ncx2_densities_match_scipy(k, count):
    # z = sqrt(lam q) on both sides of the switch between the power series
    # and the closed forms, in batches wholly below it, wholly above it and
    # across it; an entry's bits do not depend on the rest of its batch
    below = np.array([0.5, 2.0, 0.999 * _NCX2_SERIES_Z])
    above = np.array([1.001 * _NCX2_SERIES_Z, 6.0, 12.0])
    nus = k + 2 + 2 * np.arange(count)
    for q in (0.7, 3.0, 9.0):
        parts = []
        for z in (below, above, np.concatenate([below, above])):
            lam = z**2 / q
            f = _ncx2_densities(q, k, lam, count)
            assert f.shape == (count, len(lam))
            for row, nu in zip(f, nus):
                np.testing.assert_allclose(row, stats.ncx2.pdf(q, nu, lam), rtol=5e-14, atol=0)
            parts.append(f)
        assert np.concatenate(parts[:2], axis=1).tobytes() == parts[2].tobytes()
        # dF_k / d lam = (F_{k+2} - F_k) / 2 = -f_{k+2}
        gap = stats.ncx2.cdf(q, k, lam) - stats.ncx2.cdf(q, k + 2, lam)
        assert np.max(np.abs(gap - 2.0 * f[0])) <= 1e-15
        at_zero = _ncx2_densities(q, k, np.zeros(1), count)[:, 0]
        np.testing.assert_allclose(at_zero, stats.chi2.pdf(q, nus), rtol=1e-14, atol=0)


def test_ncx2_series_terms_reach_the_switch():
    # at z = sqrt(lam q) = _NCX2_SERIES_Z, x = z^2 / 4, the first term the
    # series omits, x^T / (T! (n+1)_T), is below 2^-53 of the sum for every
    # order n = k/2 + j a ball takes up to k = 8
    terms, x = _NCX2_SERIES_TERMS, _NCX2_SERIES_Z**2 / 4.0
    for k in range(1, 9):
        table = _ncx2_series_coefficients(k, 3)
        assert _ncx2_series_coefficients(k, 3) is table  # cached
        assert table.shape == (terms, 3) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
        for j, column in enumerate(table.T):
            n = k / 2.0 + j
            expect = [1.0 / (math.factorial(m) * math.prod(n + 1 + i for i in range(m)))
                      for m in range(terms)]
            np.testing.assert_allclose(column, expect, rtol=1e-15, atol=0)
            omitted = x**terms / (math.factorial(terms) * math.prod(n + 1 + i for i in range(terms)))
            assert omitted < 2.0**-53 * (column @ x ** np.arange(terms))


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


@pytest.mark.parametrize("k", (7, 8))
def test_ball_hooks_sum_their_squares_as_the_row_wise_sum_does(k, monkeypatch):
    # lambda and |grad lambda|^2 sum squared columns in order up to k = 7 and
    # keep np.sum beyond; either way the bits are those of the row-wise sum
    gen = RngStream(37, stream_id=k).generator()
    X = np.vstack([np.zeros((1, k)), gen.standard_normal((30, k)) * 1.5])
    times = np.array([0.05, 0.5, 3.0])
    cases = [Ball(np.zeros(k), 2.2), Ball(gen.standard_normal(k) * 0.3, 3.1)]
    idxs = ((0,), (0, 0), (1, k - 1), (0, 0, 0), (0, 1, k - 1))

    def hooks():
        out = []
        for C in cases:
            h = IndicatorFunction(C)
            out += list(semigroup_jet(h, times, X))
            out += [semigroup_derivative(h, times, X, idx) for idx in idxs]
        return out

    got = hooks()
    monkeypatch.setattr(convex, "_square_sum", lambda a: np.sum(a * a, axis=-1))
    for g, want in zip(got, hooks()):
        _same_bytes(g, want)


def _check_ball_hooks_are_zero_at(fars, times):
    """The far rows take the limit 0, and a finite row keeps its bits beside them."""
    h = IndicatorFunction(Ball([0.0, 0.0], 1.0))
    finite = [[0.3, 0.2]]
    for far in fars:
        X = [far] + finite
        for s in times:
            grad, lap = semigroup_jet(h, s, X)
            want_grad, want_lap = semigroup_jet(h, s, finite)
            assert np.all(grad[..., 0, :] == 0.0) and np.all(lap[..., 0] == 0.0)
            _same_bytes(grad[..., 1:, :], want_grad)
            _same_bytes(lap[..., 1:], want_lap)
            for idx in ((0,), (0, 1), (1, 1, 0)):
                got = semigroup_derivative(h, s, X, idx)
                assert np.all(got[..., 0] == 0.0)
                _same_bytes(got[..., 1:], semigroup_derivative(h, s, finite, idx))


def test_ball_jet_and_derivatives_at_a_far_finite_row_are_zero():
    # lambda overflowed ("overflow encountered in multiply", an error in this
    # suite) on a finite row past 1e154
    _check_ball_hooks_are_zero_at(
        ([1e300, 0.0], [0.0, -1e200], [1e300, 1e300]), (0.5, np.array([0.05, 0.5, 2.0]))
    )


def test_ball_jet_and_derivatives_past_the_density_gap_are_zero():
    # at a small OU time lambda stays finite on a row of about 1e153, but
    # q * lambda and |grad lambda|^2 overflowed ("overflow encountered in
    # multiply", an error in this suite); every density there is 0
    _check_ball_hooks_are_zero_at(
        ([1.3e153, 0.0], [0.0, -1e152], [4e152, 4e152]), (0.01, np.array([0.001, 0.01, 0.1]))
    )


def test_dilated_box_measure_at_a_far_finite_row_is_zero():
    # a normal density squared an edge past about 1e154 ("overflow encountered
    # in square", an error in this suite); the mass there is 0
    for k in (2, 3, 4):
        C = Box(-np.ones(k), np.ones(k)).dilate(0.2)
        gen = np.random.default_rng(k)
        finite = gen.standard_normal((5, k))
        X = np.vstack([np.eye(k)[-1] * 1e300, finite, np.eye(k)[0] * -1e200])
        for sigma in (1.0, 0.05):
            got = C.shifted_measure(X, sigma)
            assert got[[0, -1]].tolist() == [0.0, 0.0]
            assert np.array_equal(got[1:-1], C.shifted_measure(finite, sigma))
        h = IndicatorFunction(C)
        got = semigroup_apply(h, 0.5, X)
        assert got[[0, -1]].tolist() == [0.0, 0.0]
        assert np.array_equal(got[1:-1], semigroup_apply(h, 0.5, finite))


def test_generator_eigenfunctions_exact():
    g1 = hermite_product_function((1, 0))
    g2 = hermite_product_function((1, 1))
    gen = RngStream(15, stream_id=3).generator()
    for x in gen.standard_normal((10, 2)):
        assert generator_apply(g1, x) == pytest.approx(-x[0], abs=1e-12)
        assert generator_apply(g2, x) == pytest.approx(-2.0 * x[0] * x[1], abs=1e-12)


@pytest.mark.parametrize("x", [[0.3, 0.4, 0.5], [0.3], [[0.3, 0.4]]], ids=["3", "1", "1x2"])
def test_hermite_product_derivatives_need_a_point_of_its_dimension(x):
    # the gradient took its size from the orders and dropped the third coordinate
    g = hermite_product_function((1, 2))
    for derivative in (g.grad, g.hess):
        with pytest.raises(DomainError):
            derivative(np.array(x))
    with pytest.raises(DomainError):
        generator_apply(g, np.array(x))


@pytest.mark.parametrize("x", [[0.3, 0.4, 0.5], [0.3], [[0.3, 0.4, 0.5]], 0.3],
                         ids=["3", "1", "1x3", "scalar"])
def test_hermite_product_value_needs_points_of_its_dimension(x):
    # the value read the first two coordinates of a 3-vector and indexed past a 1-vector
    with pytest.raises(DomainError):
        hermite_product_function((1, 2))(np.array(x))


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
    for C, to_boundary in (
        (HalfSpace(np.array([1.0, 0.0]), 0.3), lambda x: abs(x[0] - 0.3)),
        (Ball(np.zeros(2), 1.2), lambda x: abs(np.linalg.norm(x) - 1.2)),
    ):
        h = IndicatorFunction(C)
        mass = gaussian_measure(C)
        checked = 0
        for x in pts:
            if to_boundary(x) < 0.5:
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
