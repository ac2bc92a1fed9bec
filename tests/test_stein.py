import math
import warnings

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
    gamma_star_hat,
    gaussian_measure,
    hermite_kernel,
    laplacian_drift,
    norm_cdf,
    psi,
    psi_d1,
    psi_d2,
    psi_d3,
    rademacher_source,
    semigroup_apply,
    semigroup_derivative,
    semigroup_jet,
    shifted_measure_batch,
    smoothed_target,
    smoothing_weight,
    stein_residual,
    weight1_integral_total,
    weight3_integral,
    weight_bound,
)
from steinclt.convex import DilatedBox
from steinclt.errors import DimensionMismatchError, DomainError
from steinclt.quadrature import gauss_hermite_tensor, gauss_legendre_1d
from steinclt.stein import T_MIN, _time_node_count, _time_rule


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


_BALL = Ball(np.zeros(2), 1.0)
_BOX = Box(-np.ones(2), np.ones(2))
_BALL_H = IndicatorFunction(_BALL)
_BALL_SOL = SteinSolution(0.5, _BALL_H)
# each entry evaluates a k = 2 set, or a function of one, at the points x
_POINT_ENTRIES = {
    "shifted-measure-ball": lambda x: shifted_measure_batch(_BALL, x, 1.0),
    "shifted-measure-box": lambda x: shifted_measure_batch(_BOX, x, 1.0),
    "shifted-measure-half-space": lambda x: shifted_measure_batch(HalfSpace([1, 0], 0.2), x, 1.0),
    "shifted-measure-dilated-box": lambda x: shifted_measure_batch(DilatedBox(_BOX, 0.2), x, 1.0),
    "semigroup-apply": lambda x: semigroup_apply(_BALL_H, 0.5, x),
    "semigroup-derivative": lambda x: semigroup_derivative(_BALL_H, 0.5, x, (0,)),
    "semigroup-jet": lambda x: semigroup_jet(_BALL_H, 0.5, x),
    "psi": lambda x: psi(_BALL_SOL, x),
    "psi-d1": lambda x: psi_d1(_BALL_SOL, x, 0),
    "psi-d2": lambda x: psi_d2(_BALL_SOL, x, (0, 1)),
    "psi-d3": lambda x: psi_d3(_BALL_SOL, x, (0, 0, 1)),
    "laplacian-drift": lambda x: laplacian_drift(_BALL_SOL, x),
    "smoothed-target": lambda x: smoothed_target(_BALL_SOL, x),
    "stein-residual": lambda x: stein_residual(_BALL_SOL, x),
    "kernel-report-shifts": lambda x: double_integral_kernel_report(_BALL_H, 4, 0.5, (0, 0, 1), x),
    "gamma-star-translates": lambda x: gamma_star_hat(
        rademacher_source(2), 4, 0.5, _BALL, 0.1, 64, RngStream(0), translates=x
    ),
}


@pytest.mark.parametrize(
    "x", [np.zeros((3, 1)), np.zeros(3)], ids=["batch-of-1-vectors", "3-vector"]
)
@pytest.mark.parametrize("entry", sorted(_POINT_ENTRIES))
def test_points_of_another_dimension_raise_at_every_entry(entry, x):
    # a (3, 1) batch used to broadcast through the ball and box closed forms at k = 2
    with pytest.raises(DimensionMismatchError):
        _POINT_ENTRIES[entry](x)


def test_stein_identity_through_monte_carlo_inner():
    # force the MC inner integrals on a set that has a closed form, and use
    # a set that has none at all; both must close the identity at MC accuracy
    x = np.array([0.4, -0.3])
    quad = QuadratureSpec(inner_method="monte-carlo")
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


def _with_time_nodes(sol, n):
    """sol with its time rule replaced by the n-node one."""
    sol.s_nodes, sol.s_weights = _time_rule(sol.t, n)
    return sol


def test_stein_residual_refines_with_node_count():
    # at the smallest t the time quadrature error is visible at 16 nodes and
    # must fall fast as nodes double
    h = IndicatorFunction(Ball(np.zeros(1), 1.0))
    x = np.array([1.3])
    r16, r32, r64 = (
        abs(stein_residual(_with_time_nodes(SteinSolution(0.01, h), m), x)) for m in (16, 32, 64)
    )
    assert r16 > 1e-5
    assert r32 <= 1e-2 * r16
    assert r64 <= 1e-9


def test_solution_rejects_tiny_t():
    with pytest.raises(DomainError):
        SteinSolution(1e-3, IndicatorFunction(Ball(np.zeros(1), 1.0)))


@pytest.mark.parametrize("t", (709.0, 745.0, 800.0))
def test_solution_rejects_t_whose_decay_is_not_a_normal_double(t):
    # e^-t below the smallest normal double: from t = 745 the nodes in u = e^-s
    # are no longer finite and every integral was NaN, with warnings
    with pytest.raises(DomainError, match=f"t = {t}"):
        SteinSolution(t, IndicatorFunction(Ball(np.zeros(1), 1.0)))


def test_solution_at_t_708_keeps_finite_nodes():
    sol = SteinSolution(708.0, IndicatorFunction(HalfSpace(np.ones(1), 0.3)))
    assert np.isfinite(sol.s_nodes).all() and np.isfinite(sol.s_weights).all()
    assert np.isfinite(laplacian_drift(sol, np.array([[0.2], [-1.0]]))).all()


@pytest.mark.parametrize("n", (24, 32, 64))
def test_gauss_legendre_rule_is_built_once_and_read_only(n):
    x, w = gauss_legendre_1d(n)
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    assert gauss_legendre_1d(n)[0] is x  # one entry per node count, shared
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("t, n", ((0.01, 64), (0.027, 64), (0.5, 16), (5.0, 16), (708.39, 16)))
def test_solution_time_nodes_keep_the_bits_of_a_fresh_rule(t, n):
    # each solution used to solve for its own Gauss-Legendre rule; mapping the
    # cached N(t)-node rule onto (e^{-(t+40)}, e^{-t}] must give the same nodes
    # and weights, with no warning up to the largest t
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = math.exp(-(t + 40.0)), math.exp(-t)
    u, du = 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = SteinSolution(t, IndicatorFunction(Ball([0.0], 1.0)))
    assert sol.s_nodes.tobytes() == (-np.log(u)).tobytes()
    assert sol.s_weights.tobytes() == (du / u).tobytes()


def test_time_node_count_falls_with_t_from_64_to_16():
    ts = np.concatenate([np.linspace(T_MIN, 1.0, 400), np.geomspace(1.0, 708.39, 50)])
    counts = [_time_node_count(t) for t in ts.tolist()]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert _time_node_count(T_MIN) == 64 and _time_node_count(0.027) == 64
    assert [_time_node_count(t) for t in (0.1, 0.2)] == [33, 23]
    assert all(c == 16 for t, c in zip(ts, counts) if t >= 0.4)


def _accuracy_outputs(sol, X):
    k = X.shape[1]
    return np.concatenate([
        psi(sol, X), psi_d1(sol, X, 0), psi_d1(sol, X, k - 1), psi_d2(sol, X, (0, k - 1)),
        psi_d3(sol, X, (0, 0, 0)), psi_d3(sol, X, (k - 1, 0, 0)), laplacian_drift(sol, X),
    ])


@pytest.mark.parametrize("k", (1, 3))
@pytest.mark.parametrize("t", (0.03, 0.05, 0.1, 0.2, 0.5, 1.0))
def test_time_rule_of_t_matches_a_256_node_rule(t, k):
    # N(t) nodes, as few as 16, must reach what 256 nodes give on closed-form
    # sets: within 1e-12 (about 4e-14 at most on this batch)
    X = 1.5 * RngStream(5, stream_id=k).generator().standard_normal((12, k))
    normal = np.linspace(1.0, -0.5, k)
    sets = (
        HalfSpace(normal / np.linalg.norm(normal), 0.3),
        Ball(np.linspace(0.5, -0.4, k), 1.2),
        Box(np.linspace(-1.0, -0.6, k), np.linspace(0.8, 1.3, k)),
    )
    for C in sets:
        sol = SteinSolution(t, IndicatorFunction(C))
        got = _accuracy_outputs(sol, X)
        want = _accuracy_outputs(_with_time_nodes(sol, 256), X)
        assert np.abs(got - want).max() <= 1e-12, C


def test_laplacian_drift_of_a_ball_at_a_far_finite_row_is_zero():
    # the ball's lambda overflowed on a finite row past 1e154 (an error in this
    # suite); psi_t's derivatives and x . grad psi_t vanish there
    sol = SteinSolution(0.5, IndicatorFunction(Ball([0.0, 0.0], 1.0)))
    finite = [[0.3, 0.2]]
    got = laplacian_drift(sol, [[1e300, 0.0]] + finite)
    assert got[0] == 0.0 and got[1] == laplacian_drift(sol, finite)[0]


def test_weight_inequality_pointwise():
    gen = RngStream(23, stream_id=3).generator()
    s = np.exp(gen.uniform(math.log(1e-6), math.log(25.0), size=10_000))
    assert np.all(smoothing_weight(s) <= weight_bound(s))


# the integral of w(s)^3 over (t, infinity), to 17 digits, from a 50-digit
# evaluation (mpmath) of the antiderivative w - atan(w) at w = e^{-t} / sqrt(-expm1(-2t)),
# 300 digits at t = 50, where the difference cancels 43 of them; a 50-digit
# quadrature of w^3 agrees with it at every t >= 1e-4
WEIGHT3_REFERENCE = {
    5e-324: 3.1812124520951962e161,
    1e-300: 7.0710678118654752e149,
    1e-12: 707105.2103912814,
    1e-6: 705.53704551971818,
    1e-4: 69.150488187340826,
    0.01: 5.6061315282447557,
    0.1: 0.99424477145502097,
    0.5: 0.11118430886558198,
    1.0: 0.018895598887500167,
    2.0: 8.4009720061121201e-4,
    5.0: 1.0197160671932877e-7,
    10.0: 3.1192076620663078e-14,
    50.0: 2.3916986577214701e-66,
    355.0: 0.0,  # about 1e-463
    700.0: 0.0,
    1e4: 0.0,
}


@pytest.mark.parametrize("t", sorted(WEIGHT3_REFERENCE))
def test_weight3_integral_against_antiderivative(t):
    # relative accuracy at every t, a reference of 0.0 pinned exactly: past
    # t = 2, w - atan(w) cancelled (7.9e-9 relative at t = 10, 0.0 at t = 50) and
    # its series is taken instead.  Adaptive quadrature returned -1.527 at t = 1e-6
    # and raised IntegrationWarning, an error in this suite, at every t <= 1e-6
    val, ref = weight3_integral(t), WEIGHT3_REFERENCE[t]
    assert abs(val - ref) <= 1e-14 * ref
    assert val <= (2.0 * t) ** -0.5 + 1e-8


def test_weight1_total_is_half_pi():
    assert weight1_integral_total() == math.pi / 2.0


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


@pytest.mark.parametrize(
    "n, s, match",
    [
        (10, math.nan, "s must be finite and > 0"),
        (10, math.inf, "s must be finite and > 0"),
        (10, 0.0, "s must be finite and > 0"),
        (2.5, 1.0, "n must be an integer"),
        (1, 1.0, "n must be >= 2"),
    ],
)
def test_kernel_report_error_names_its_argument(n, s, match):
    # NaN and inf s used to fail later as "sigma must be positive"; n = 2.5 was accepted
    h = IndicatorFunction(HalfSpace(np.eye(1)[0], 0.0))
    with pytest.raises(DomainError, match=match):
        double_integral_kernel_report(h, n=n, s=s, idx=(0, 0, 0), shift_grid=np.zeros((1, 1)))


def test_kernel_report_rejects_an_empty_shift_grid():
    # no shifts raised numpy's ValueError from a reduction over a zero-size array
    h = IndicatorFunction(HalfSpace(np.eye(2)[0], 0.0))
    with pytest.raises(DomainError, match="shift_grid"):
        double_integral_kernel_report(h, n=10, s=1.0, idx=(0, 0, 0), shift_grid=np.zeros((0, 2)))


def test_kernel_report_zero_for_constant():
    const = SmoothFunction(lambda X: np.full(len(np.atleast_2d(X)), 1.0))
    rep = double_integral_kernel_report(
        const, n=4, s=1.0, idx=(0, 0, 0), shift_grid=np.zeros((1, 2)),
    )
    assert rep.max_abs <= 1e-12


def test_kernel_report_monte_carlo_route_stable():
    # an ellipsoid has no closed smoothing, forcing the MC branch
    h = IndicatorFunction(Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])))
    grid = np.zeros((1, 2))
    r1 = double_integral_kernel_report(
        h, n=10, s=1.0, idx=(0, 0, 1), shift_grid=grid,
        stream=RngStream(3, stream_id=5),
    )
    r2 = double_integral_kernel_report(
        h, n=10, s=1.0, idx=(0, 0, 1), shift_grid=grid,
        stream=RngStream(4, stream_id=6),
    )
    assert r1.std_error > 0.0
    assert abs(r1.max_abs - r2.max_abs) <= 4.0 * (r1.std_error + r2.std_error)


def _halfspace_kernel(n, s, shifts):
    """The elementary kernel of {x_1 <= 0}: (w/sigma)^3 |He_2(y/sigma)| phi(y/sigma) at
    y = e^{-s} u_1.

    sigma^2 = 1 - e^{-2s}/n; it is the third derivative of Phi(-y/sigma) times w^3.
    """
    sigma = math.sqrt(1.0 - math.exp(-2.0 * s) / n)
    y = math.exp(-s) * shifts[:, 0] / sigma
    w = math.sqrt(-math.expm1(-2.0 * s))
    return (w / sigma) ** 3 * np.abs(y * y - 1.0) * np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("k", (1, 3, 8, 128))
@pytest.mark.parametrize("s", (0.5, 1.0, 2.0))
def test_kernel_report_of_a_half_space_is_the_one_dimensional_value(s, k):
    # the Gauss-Hermite grid read 0.4091 at s = 2, k = 1 (0.3891 exact), and Monte Carlo
    # stood in above k = 3
    shifts = RngStream(45, stream_id=k).generator().normal(0.0, 1.2, (9, k))
    h = IndicatorFunction(HalfSpace(np.eye(k)[0], 0.0))
    rep = double_integral_kernel_report(h, n=10, s=s, idx=(0, 0, 0), shift_grid=shifts)
    exact = _halfspace_kernel(10, s, shifts)
    assert np.max(np.abs(np.array(rep.per_shift) - exact)) <= 1e-14
    assert rep.std_error == 0.0


def _grid_kernel(C, n, s, idx, shifts):
    """|E h~(aX + e^{-s} u + wZ) He_idx(Z)| with X averaged by the closed-form shifted measure
    and Z on the 32^k Gauss-Hermite grid: the report's former path at k <= 3."""
    k = shifts.shape[1]
    a, es, w = math.sqrt((n - 1) / n) * math.exp(-s), math.exp(-s), math.sqrt(-math.expm1(-2 * s))
    nodes, wts = gauss_hermite_tensor(k, 32)
    kernel = hermite_kernel(wts, nodes, idx)
    center = gaussian_measure(C)
    return np.array([
        abs(float((shifted_measure_batch(C, es * u + w * nodes, a) - center) @ kernel))
        for u in shifts
    ])


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("name", ("half-space", "ball-off-centre", "box"))
def test_kernel_report_agrees_with_the_tensor_grid_at_small_k(name, k):
    normal = np.linspace(1.0, -0.5, k)
    C = {
        "half-space": HalfSpace(normal / np.linalg.norm(normal), 0.3),
        "ball-off-centre": Ball(np.linspace(0.5, -0.4, k), 1.2),
        "box": Box(np.linspace(-1.0, -0.6, k), np.linspace(0.8, 1.3, k)),
    }[name]
    shifts = RngStream(46, stream_id=k).generator().normal(0.0, 0.7, (6, k))
    for idx in ((0, 0, 0), (0, 0, k - 1), (0, min(1, k - 1), k - 1)):
        rep = double_integral_kernel_report(IndicatorFunction(C), 10, 0.5, idx, shifts)
        grid = _grid_kernel(C, 10, 0.5, idx, shifts)
        assert np.max(np.abs(np.array(rep.per_shift) - grid)) <= 1e-9, idx


@pytest.mark.parametrize("k", (2, 3, 4))
def test_kernel_report_monte_carlo_branch_is_unbiased(k):
    # a box as a SmoothFunction has no closed form, so it takes the one-draw Monte Carlo
    # branch; its z-scores against the box's closed form over 20 seeds
    box = Box(np.full(k, -0.8), np.full(k, 1.2))
    smooth = SmoothFunction(lambda X: box.contains(X).astype(float))
    shift = np.full((1, k), 0.3)
    shift[0, 0] = -0.4
    exact = double_integral_kernel_report(IndicatorFunction(box), 10, 0.5, (0, 0, 0), shift)
    assert exact.max_abs > 0.05
    z = []
    for seed in range(20):
        rep = double_integral_kernel_report(
            smooth, 10, 0.5, (0, 0, 0), shift, stream=RngStream(seed, stream_id=45)
        )
        z.append((rep.max_abs - exact.max_abs) / rep.std_error)
    z = np.array(z)
    assert abs(z.mean()) <= 0.7 and 0.5 <= z.std() <= 1.5 and np.max(np.abs(z)) <= 4.0, z


def test_kernel_report_of_an_empty_set_is_zero():
    rep = double_integral_kernel_report(
        IndicatorFunction(Box([0.0, 1.0], [1.0, 0.0])), 10, 0.5, (0, 0, 1), np.zeros((2, 2))
    )
    assert rep.per_shift == (0.0, 0.0) and rep.std_error == 0.0


def test_kernel_vanishing_moments():
    # integrals of the kernel and of z_i times the kernel vanish
    nodes, wts = gauss_hermite_tensor(2, 32)
    for idx in ((0, 0, 0), (0, 0, 1), (0, 1, 1)):
        kern = hermite_kernel(wts, nodes, idx)
        assert abs(float(kern.sum())) <= 1e-8
        for i0 in (0, 1):
            assert abs(float(kern @ nodes[:, i0])) <= 1e-8


def _index_entry_points():
    """entry point -> (its derivative order, call taking only the index), at k = 2."""
    h = IndicatorFunction(Box(-np.ones(2), np.ones(2)))
    sol = SteinSolution(0.5, h)
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


def _per_node_reference(sol, X, idxs):
    """psi, the jet and psi_idx as one single-time semigroup call per s-node gives them."""
    grad, lap = np.zeros(X.shape), np.zeros(len(X))
    values = np.empty((len(X), len(sol.s_nodes)))
    parts = np.empty((len(idxs), len(X), len(sol.s_nodes)))
    center = sol.center(X.shape[1])
    for j, (s, weight) in enumerate(zip(sol.s_nodes, sol.s_weights)):
        g, l = semigroup_jet(sol.h, float(s), X, sol.quad)
        grad -= weight * g
        lap -= weight * l
        values[:, j] = semigroup_apply(sol.h, float(s), X, sol.quad) - center
        for p, idx in enumerate(idxs):
            parts[p, :, j] = semigroup_derivative(sol.h, float(s), X, idx, sol.quad)
    return -(values @ sol.s_weights), grad, lap, [-(part @ sol.s_weights) for part in parts]


def _assert_same_bits(got, want):
    # NaN where the reference is NaN, and every other entry the same bytes
    # (so -0.0 is not 0.0); a NaN's sign bit is not compared, since numpy's
    # loops may order the two operands differently where two NaNs meet
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def _assert_integrals_match_per_node(sol, X, idxs):
    value, grad, lap, parts = _per_node_reference(sol, X, idxs)
    _assert_same_bits(psi(sol, X), value)
    _assert_same_bits(laplacian_drift(sol, X), lap - np.sum(X * grad, axis=1))
    for i in sorted({0, X.shape[1] - 1}):
        _assert_same_bits(psi_d1(sol, X, i), grad[:, i])
    for idx, want in zip(idxs, parts):
        _assert_same_bits((psi_d2 if len(idx) == 2 else psi_d3)(sol, X, idx), want)


def _rows_with_nans(rows, k):
    X = 2.0 * RngStream(43, stream_id=rows).generator().standard_normal((rows, k))
    if rows >= 7:
        X[3] = math.nan
        X[5, 1] = math.nan
    return X


@pytest.mark.parametrize(
    "rows, t",
    [(0, 0.5), (1, 0.01), (1, 2.0), (7, 0.01), (7, 0.5), (7, 2.0), (1024, 0.5), (1024, 2.0),
     (5000, 0.01)],
)
def test_batched_time_integrals_match_one_call_per_node(rows, t):
    # 4096 // rows nodes share one closed-form call: all of them (64 at t = 0.01,
    # 16 at 0.5 and 2.0) at 0, 1 and 7 rows (0 rows must not divide by zero),
    # 4 at 1024 rows and 1 at 5000
    X = _rows_with_nans(rows, 3)
    sets = (
        HalfSpace(np.array([0.6, -0.8, 0.0]), 0.3),
        Ball(np.zeros(3), 1.5),
        Ball(np.array([0.5, 0.1, -0.4]), 1.2),
        Box(np.array([-1.0, -0.8, -0.6]), np.array([0.8, 1.0, 1.3])),
        Ball(np.zeros(3), -1.0),
    )
    for C in sets:
        sol = SteinSolution(t, IndicatorFunction(C))
        _assert_integrals_match_per_node(sol, X, ((0, 0), (0, 0, 2), (0, 1, 2)))


@pytest.mark.parametrize(
    "h, quad",
    [
        # closed-form value, quadrature derivatives, one time at a time
        (IndicatorFunction(Box([-0.5, -0.3], [0.7, 0.4]).dilate(0.2)), QuadratureSpec()),
        (IndicatorFunction(Ball(np.array([0.3, -0.2]), 1.1)),
         QuadratureSpec(inner_method="gauss-hermite")),
    ],
    ids=["dilated-box", "gauss-hermite"],
)
def test_quadrature_time_integrals_match_one_call_per_node(h, quad):
    sol = SteinSolution(0.5, h, quad)
    _assert_integrals_match_per_node(sol, _rows_with_nans(7, 2), ((0, 1), (0, 0, 1)))
