import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from steinclt import (
    Ball,
    Box,
    DilatedSet,
    Ellipsoid,
    ErodedSet,
    HalfSpace,
    RngStream,
    SetFamily,
    default_family,
    family_from_config,
    family_to_config,
    gaussian_measure,
    gaussian_measure_estimate,
    load_family,
    omega_star_hat,
    quantile_a,
    save_family,
    shell_measure,
    shifted_measure_batch,
)
from steinclt.convex import (
    DilatedBox,
    _center_distance,
    _ncx2_cdf,
    _projection,
    _qmc_membership_mean,
    _sobol_normal_replicates,
    set_to_config,
)
from steinclt.errors import ConfigurationError, DimensionMismatchError, DomainError


def _closed_form_phi(C):
    """Phi(C) from the set's closed form: the estimate carries no standard error."""
    mass, std_error = gaussian_measure_estimate(C)
    assert std_error == 0.0
    return mass


def _catalog(k=2):
    gen = RngStream(5, stream_id=2).generator()
    d = gen.standard_normal(k)
    d /= np.linalg.norm(d)
    return [
        HalfSpace(d, 0.4),
        Ball(np.zeros(k), 1.3),
        Ball(np.full(k, 0.4), 0.9),
        Box(-np.ones(k), np.full(k, 1.5)),
        Ellipsoid(np.zeros(k), np.diag(np.linspace(1.0, 4.0, k))),
    ]


def test_membership_examples():
    assert Ball(np.zeros(2), 1.0).contains(np.zeros(2))
    assert HalfSpace(np.array([1.0, 0.0]), 0.0).contains(np.array([0.0, 5.0]))
    ell = Ellipsoid(np.zeros(2), np.diag([1.0, 4.0]))
    assert ell.contains(np.array([0.0, 1.9]))
    assert not ell.contains(np.array([0.0, 2.1]))


def test_halfspace_requires_unit_normal():
    with pytest.raises(DomainError):
        HalfSpace(np.array([1.0, 1.0]), 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Ball([math.nan, 0.0], 1.0),
        lambda: Ball([math.inf, 0.0], 1.0),
        lambda: Ball([0.0, 0.0], math.nan),
        lambda: Ball([0.0, 0.0], math.inf),
        lambda: Box([math.nan, 0.0], [1.0, 1.0]),
        lambda: Box([0.0, 0.0], [1.0, math.nan]),
        lambda: Ellipsoid([math.nan, 0.0], np.eye(2)),
        lambda: Ellipsoid([0.0, -math.inf], np.eye(2)),
        lambda: Ellipsoid(np.zeros(2), np.diag([1.0, math.inf])),
        lambda: Ball(np.zeros(2), 1.0).translate([math.nan, 0.0]),
        lambda: Box(-np.ones(2), np.ones(2)).translate([0.0, math.nan]),
        lambda: Ellipsoid(np.zeros(2), np.eye(2)).translate([math.nan, 0.0]),
    ],
    ids=["ball-center-nan", "ball-center-inf", "ball-radius-nan", "ball-radius-inf",
         "box-lower-nan", "box-upper-nan", "ellipsoid-center-nan", "ellipsoid-center-inf",
         "ellipsoid-shape-inf",
         "ball-translate-nan", "box-translate-nan", "ellipsoid-translate-nan"],
)
def test_non_finite_set_parameters_raise(build):
    # each used to be accepted; a NaN centre or bound then gave a nan Phi(C)
    with pytest.raises(DomainError):
        build()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Ball(np.zeros(2), 1.0).contains(np.zeros(3))


def test_dilate_examples():
    assert Ball(np.zeros(2), 1.0).dilate(0.5).radius == pytest.approx(1.5)
    box = Box(-np.ones(2), np.ones(2))
    corner = np.array([1.2, 1.2])
    assert box.dilate(0.3).contains(corner)  # dist = sqrt(2)*0.2 < 0.3
    assert not box.dilate(0.25).contains(corner)


def test_dilate_zero_matches_contains():
    gen = RngStream(6, stream_id=3).generator()
    pts = gen.standard_normal((200, 2)) * 1.5
    for C in _catalog():
        d0 = C.dilate(0.0)
        assert np.array_equal(d0.contains(pts), C.contains(pts))


def test_erode_examples():
    assert Ball(np.zeros(2), 1.0).erode(1.0).is_empty is False  # radius 0: the point {0}
    assert gaussian_measure(Ball(np.zeros(2), 1.0).erode(1.0)) == 0.0
    hs = HalfSpace(np.array([1.0, 0.0]), 2.0).erode(0.5)
    assert hs.offset == pytest.approx(1.5)
    assert Box(np.zeros(2), np.ones(2)).erode(0.5).is_empty is False  # single point
    assert Box(np.zeros(2), np.ones(2)).erode(0.6).is_empty


def test_sandwich_property():
    gen = RngStream(7, stream_id=4).generator()
    pts = gen.standard_normal((1000, 2)) * 1.6
    for C in _catalog():
        for eps in (0.1, 0.4):
            inner = C.erode(eps)
            outer = C.dilate(eps)
            in_inner = np.asarray(inner.contains(pts))
            in_c = np.asarray(C.contains(pts))
            in_outer = np.asarray(outer.contains(pts))
            assert np.all(~in_inner | in_c)
            assert np.all(~in_c | in_outer)


def _box_excess(B, pts):
    return np.maximum(np.maximum(B.lower - pts, pts - B.upper), 0.0)


def _distance_to(C, pts):
    """dist(x, C), 0 inside: written out for each closed-form variant."""
    if isinstance(C, HalfSpace):
        return np.maximum(pts @ C.normal - C.offset, 0.0)
    if isinstance(C, Ball):
        return np.maximum(np.linalg.norm(pts - C.center, axis=1) - C.radius, 0.0)
    if isinstance(C, Box):
        return np.linalg.norm(_box_excess(C, pts), axis=1)
    return np.where(C.contains(pts), 0.0, C.boundary_distance(pts))


def test_indicator_correspondence_with_distance():
    # 1_{C^eps}(x) = 1 iff dist(x, C) <= eps; erosion the dual way
    gen = RngStream(8, stream_id=5).generator()
    pts = gen.standard_normal((400, 2)) * 1.6
    for C in _catalog():
        for eps in (0.15, 0.5):
            dil = np.asarray(C.dilate(eps).contains(pts))
            pred = _distance_to(C, pts) <= eps + 1e-12
            assert np.array_equal(dil, pred)


def test_translation_scaling_closure():
    shift = np.array([0.3, -0.7])
    for C in _catalog():
        assert type(C.translate(shift)) is type(C)
        assert type(C.scale(2.0)) is type(C)


def test_translate_scale_membership_semantics():
    gen = RngStream(9, stream_id=6).generator()
    pts = gen.standard_normal((300, 2)) * 1.4
    shift = np.array([0.5, -0.2])
    b = 1.7
    for C in _catalog():
        t = C.translate(shift)
        assert np.array_equal(t.contains(pts), C.contains(pts - shift))
        s = C.scale(b)
        assert np.array_equal(s.contains(pts), C.contains(pts / b))


def test_ellipsoid_boundary_distance_matches_sampling():
    ell = Ellipsoid(np.zeros(2), np.diag([1.0, 4.0]))
    gen = RngStream(10, stream_id=7).generator()
    theta = gen.uniform(0, 2 * math.pi, 2000)
    boundary = np.stack([np.cos(theta), 2.0 * np.sin(theta)], axis=1)
    for x in [np.array([1.5, 0.4]), np.array([0.2, 0.3]), np.array([-0.4, 1.1])]:
        brute = float(np.min(np.linalg.norm(boundary - x, axis=1)))
        assert ell.boundary_distance(x) == pytest.approx(brute, abs=2e-3)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_spherical_ellipsoid_boundary_distance_is_exact(k):
    gen = RngStream(12, stream_id=k).generator()
    center = gen.standard_normal(k)
    radius = 1.7
    ell = Ellipsoid(center, radius**2 * np.eye(k))
    pts = center + gen.standard_normal((500, k)) * 1.5
    pts[0] = center  # every boundary point is nearest
    exact = np.abs(np.linalg.norm(pts - center, axis=1) - radius)
    assert np.max(np.abs(ell.boundary_distance(pts) - exact)) <= 1e-12


def test_ellipsoid_boundary_distance_on_the_long_axis():
    # semi-axes a < b: from (0, y) with |y| <= (b^2 - a^2)/b the nearest
    # boundary points leave the axis, at squared distance a^2 (1 - y^2/(b^2 - a^2))
    a, b = 1.0, 2.0
    ell = Ellipsoid(np.zeros(2), np.diag([a**2, b**2]))
    ys = np.linspace(-(b**2 - a**2) / b, (b**2 - a**2) / b, 41)
    pts = np.stack([np.zeros_like(ys), ys], axis=1)
    exact = np.sqrt(a**2 * (1.0 - ys**2 / (b**2 - a**2)))
    assert np.max(np.abs(ell.boundary_distance(pts) - exact)) <= 1e-12
    # the distance is 1-Lipschitz, so stepping off the axis moves it by at most the step
    for y in (0.0, 0.5, -1.2, 1.5, 1.9):
        on_axis = ell.boundary_distance(np.array([0.0, y]))
        off_axis = ell.boundary_distance(np.array([1e-9, y]))
        assert abs(on_axis - off_axis) <= 1e-9 + 1e-12
    assert ell.boundary_distance(np.array([1e-12, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert ell.erode(0.9).contains(np.array([0.0, 0.5]))
    assert ell.erode(0.9).contains(np.array([1e-6, 0.5]))


def test_ellipsoid_boundary_distance_matches_dense_boundary():
    # the boundary is c + A u over unit vectors u, for any A with A A^T = shape
    shape = np.array([[2.0, 0.9], [0.9, 0.8]])
    center = np.array([0.3, -0.2])
    ell = Ellipsoid(center, shape)
    theta = np.linspace(0.0, 2 * math.pi, 1 << 18, endpoint=False)
    boundary = center + np.stack([np.cos(theta), np.sin(theta)], axis=1) @ np.linalg.cholesky(shape).T
    evals, evecs = np.linalg.eigh(shape)
    axes = evecs * np.sqrt(evals)
    gen = RngStream(13, stream_id=9).generator()
    pts = np.concatenate([
        center + gen.standard_normal((40, 2)) * 1.2,
        center + np.outer([0.0, 0.2, 0.5, 1.5], axes[:, 1]),  # on the long axis
        center + np.outer([0.3, 0.6], axes[:, 0]),  # on the short axis
    ])
    d = ell.boundary_distance(pts)
    for x, dist in zip(pts, d):
        brute = float(np.min(np.linalg.norm(boundary - x, axis=1)))
        if brute < 0.01:
            continue  # boundary samples lie up to 4e-5 apart; keep the oracle sharp
        # a sampled boundary can only overestimate the distance
        assert -1e-12 <= brute - dist <= 1e-6


def _exact_distance_contains(C, pts):
    """Parallel-body membership from the base's exact distance alone, for every row."""
    ok = np.asarray(C.base.contains(pts))
    if isinstance(C, ErodedSet):
        ok[ok] = C.base.boundary_distance(pts[ok]) >= C.eps
    else:
        ok[~ok] = C.base.boundary_distance(pts[~ok]) <= C.eps
    return ok


def _random_ellipsoid(gen, k):
    A = gen.standard_normal((k, k))
    return Ellipsoid(0.5 * gen.standard_normal(k), A @ A.T + 0.3 * np.eye(k))


def _parallel_bodies(E, eps):
    """E's dilation and erosion by eps, their scaled and translated forms, and re-eroded ones."""
    shift = np.linspace(-0.4, 0.6, E.dim)
    for C in (E.dilate(eps), E.erode(eps)):
        yield C
        yield C.scale(1.7)
        yield C.translate(shift)
    yield E.erode(eps).erode(0.05)
    yield E.erode(eps).dilate(0.5 * eps)


@pytest.mark.parametrize("eps", (0.01, 0.1, 0.3, 0.8))
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_bound_settled_membership_equals_the_exact_distance_rule(k, eps):
    gen = RngStream(40, stream_id=k).generator()
    for _ in range(3):
        E = _random_ellipsoid(gen, k)
        pts = E.center + 1.5 * gen.standard_normal((4000, k))
        for C in _parallel_bodies(E, eps):
            assert isinstance(C, (DilatedSet, ErodedSet))
            assert np.array_equal(C.contains(pts), _exact_distance_contains(C, pts)), C


def test_bound_settled_membership_on_the_sobol_points():
    pts = _sobol_normal_replicates(2, 4096).reshape(-1, 2)
    for E in (
        Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])),
        Ellipsoid(np.array([0.3, -0.2]), np.array([[2.0, 0.9], [0.9, 0.8]])),
        Ellipsoid(np.zeros(2), 1.5**2 * np.eye(2)),
    ):
        for eps in (0.1, 0.4):
            for C in (E.dilate(eps), E.erode(eps), E.dilate(eps).scale(1.35)):
                assert np.array_equal(C.contains(pts), _exact_distance_contains(C, pts)), C


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_bound_settled_membership_at_the_edge_of_the_band(k):
    # along a principal axis the distance to the boundary is the distance to
    # the axis end outside, and (near enough) inside, so these rows sit at
    # eps (1 +- 1e-12) from the parallel body's boundary, inside the band
    E = _random_ellipsoid(RngStream(41, stream_id=k).generator(), k)
    semi = np.sqrt(np.linalg.eigvalsh(E.shape))
    axes = np.linalg.eigh(E.shape)[1].T
    for eps in (0.01, 0.1, 0.3, 0.8):
        offsets = eps * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12])
        radii = np.concatenate([semi[:, None] + offsets, semi[:, None] - offsets], axis=1)
        radii = np.concatenate([radii, -radii], axis=1)  # both ends of each axis
        pts = E.center + (radii[:, :, None] * axes[:, None, :]).reshape(-1, k)
        for C in (E.dilate(eps), E.erode(eps)):
            assert np.array_equal(C.contains(pts), _exact_distance_contains(C, pts)), C


def test_bound_settled_membership_at_the_centre_and_on_nan_rows():
    for E in (
        Ellipsoid(np.array([0.5, -0.5, 0.2]), 1.3**2 * np.eye(3)),  # spherical
        Ellipsoid(np.array([0.5, -0.5, 0.2]), np.diag([0.5, 1.0, 3.0])),
    ):
        pts = np.array([
            E.center,
            [math.nan, math.nan, math.nan],
            [math.nan, 0.0, 0.0],
            E.center + [1e-9, 0.0, 0.0],
            E.center + [0.0, 0.0, 2.0],
        ])
        for eps in (0.1, 0.5, math.sqrt(0.5), 1.3, 2.0):
            for C in (E.dilate(eps), E.erode(eps)):
                assert np.array_equal(C.contains(pts), _exact_distance_contains(C, pts)), C
                assert C.contains(pts[0]) == _exact_distance_contains(C, pts[:1])[0]


def _box_test_points(gen, B, eps):
    """Gaussian rows, rows on each finite face and eps either side of it, NaN rows."""
    k = B.dim
    rows = [1.5 * gen.standard_normal((400, k))]
    for j in range(k):
        for bound in (B.lower[j], B.upper[j]):
            if math.isfinite(bound):
                for offset in (0.0, -eps, eps):
                    face = 0.5 * gen.standard_normal((20, k))
                    face[:, j] = bound + offset
                    rows.append(face)
    nan_rows = np.zeros((2, k))
    nan_rows[0] = math.nan
    nan_rows[1, 0] = math.nan
    rows.append(nan_rows)
    return np.concatenate(rows)


@pytest.mark.parametrize("k", (5, 6))
def test_box_parallel_bodies_follow_the_box_distance(k):
    # above k = 4 a box's dilation is predicate-backed: its membership is the
    # box's boundary_distance, the norm of the coordinate excess outside and
    # the distance to the nearest face inside
    gen = RngStream(44, stream_id=k).generator()
    lower, upper = -np.ones(k), np.linspace(0.5, 1.5, k)
    slab_lower, slab_upper = lower.copy(), upper.copy()
    slab_lower[0], slab_upper[1] = -_INF, _INF
    for B in (
        Box(lower, upper),
        Box(slab_lower, slab_upper),
        Box(np.full(k, -_INF), np.full(k, _INF)),
        Box(upper, lower),  # empty
    ):
        for eps in (0.05, 0.3):
            pts = _box_test_points(gen, B, eps)
            excess = _box_excess(B, pts)
            to_face = np.min(np.minimum(pts - B.lower, B.upper - pts), axis=1)
            dilated, eroded = B.dilate(eps), ErodedSet(B, eps)
            assert type(dilated) is DilatedSet
            near = np.linalg.norm(excess, axis=1) <= eps
            assert np.array_equal(dilated.contains(pts), near & (not B.is_empty)), B
            assert np.array_equal(eroded.contains(pts), to_face >= eps), B
            d = B.boundary_distance(pts)
            if B.is_empty:
                assert np.all(d == _INF)
                continue
            outside = np.any(excess > 0.0, axis=1)
            assert np.array_equal(d[outside], np.linalg.norm(excess[outside], axis=1))
            assert np.array_equal(d[~outside], to_face[~outside], equal_nan=True)
    # an excess whose norm underflows to 0 still counts as outside: distance 0, not < 0
    B = Box(lower, np.zeros(k))
    tiny = np.full((1, k), -0.5)
    tiny[0, 0] = 1e-200
    assert not B.contains(tiny)[0] and B.boundary_distance(tiny)[0] == 0.0


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_ellipsoid_distance_bounds_bracket_the_boundary_distance(k):
    gen = RngStream(42, stream_id=k).generator()
    for E in (_random_ellipsoid(gen, k), Ellipsoid(gen.standard_normal(k), 1.7**2 * np.eye(k))):
        pts = E.center + 2.0 * gen.standard_normal((100_000, k))
        lower, upper = E.boundary_distance_bounds(pts)
        d = E.boundary_distance(pts)
        assert np.all(lower <= d + 1e-13)
        assert np.all(d <= upper + 1e-13)
    # both bounds are exact for a sphere
    assert np.max(np.abs(lower - d)) <= 1e-12
    assert np.max(np.abs(upper - d)) <= 1e-12


def _count_newton_rows(monkeypatch):
    rows = []
    exact = Ellipsoid.boundary_distance

    def counted(self, x):
        rows.append(len(np.atleast_2d(x)))
        return exact(self, x)

    monkeypatch.setattr(Ellipsoid, "boundary_distance", counted)
    return rows


def test_a_spherical_ellipsoid_sends_no_row_to_newton(monkeypatch):
    rows = _count_newton_rows(monkeypatch)
    E = Ellipsoid(np.zeros(2), 1.5**2 * np.eye(2))
    for eps in (0.1, 0.2, 0.4):
        gaussian_measure(E.dilate(eps))
        gaussian_measure(E.erode(eps))
    assert sum(rows) == 0


def test_a_stretched_ellipsoid_sends_few_rows_to_newton(monkeypatch):
    rows = _count_newton_rows(monkeypatch)
    E = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
    for eps in (0.1, 0.2, 0.4):
        for C in (E.dilate(eps), E.erode(eps)):
            rows.clear()
            gaussian_measure(C)  # 2^16 scrambled-Sobol points
            assert 0 < sum(rows) < 0.05 * (1 << 16), C


def test_gaussian_measure_analytic_cases():
    assert gaussian_measure(HalfSpace(np.array([1.0, 0.0]), 0.0)) == pytest.approx(0.5)
    a2 = quantile_a(2).a_k
    assert gaussian_measure(Ball(np.zeros(2), a2)) == pytest.approx(7 / 8, abs=1e-10)
    box = Box(-np.ones(2), np.ones(2))
    assert gaussian_measure(box) == pytest.approx((2 * ndtr(1.0) - 1) ** 2, abs=1e-14)
    slab = Box([0.0, 0.0], [1.0, math.inf])  # infinite bounds stay legal
    assert gaussian_measure(slab) == pytest.approx((ndtr(1.0) - 0.5) * 0.5, rel=1e-14)


def test_gaussian_measure_offcenter_ball_vs_qmc():
    ball = Ball(np.array([0.5, -0.3]), 1.1)
    exact = gaussian_measure(ball)
    # force the QMC route through an equivalent ellipsoid
    ell = Ellipsoid(ball.center, np.eye(2) * ball.radius**2)
    est, se = gaussian_measure_estimate(ell)
    assert abs(est - exact) <= max(4 * se, 1e-3)


def test_gaussian_measure_monotone_under_dilation():
    for C in _catalog():
        base = gaussian_measure(C)
        for eps in (0.1, 0.3):
            assert gaussian_measure(C.dilate(eps)) >= base - 1e-12


def test_shifted_measure_batch_matches_translate_scale():
    shifts = RngStream(11, stream_id=8).generator().standard_normal((20, 2))
    sigma = 0.7
    for C in _catalog()[:4]:  # analytic variants only
        vals = shifted_measure_batch(C, shifts, sigma)
        assert vals is not None
        for row, v in zip(shifts, vals):
            moved = C.translate(-row).scale(1.0 / sigma)
            assert v == pytest.approx(gaussian_measure(moved), abs=1e-10)


@pytest.mark.parametrize("k", range(1, 7))
def test_ball_measures_equal_scipy_ncx2_cdf_bit_for_bit(k):
    # the library calls scipy.special so as not to import scipy.stats; the
    # values must stay those of scipy.stats.ncx2.cdf exactly
    from scipy import stats

    gen = RngStream(17, stream_id=k).generator()
    center = gen.standard_normal(k)
    for radius in (0.0, 0.4, 1.1, 3.0):
        ball = Ball(center, radius)
        # Phi(C) is the shifted measure at shift 0, whose noncentrality is a row sum
        nc = np.sum(np.square(center))
        assert _closed_form_phi(ball) == stats.ncx2.cdf(radius**2, k, nc)
        # first and last rows sit on the center: noncentrality exactly 0
        shifts = np.vstack([center, center + 2.0 * gen.standard_normal((40, k)), center])
        for sigma in (0.3, 1.0, 2.5):
            nc = np.sum((shifts - center) ** 2, axis=1) / sigma**2
            assert nc[0] == nc[-1] == 0.0
            expected = stats.ncx2.cdf((radius / sigma) ** 2, k, nc)
            assert np.array_equal(ball.shifted_measure(shifts, sigma), expected)
            assert np.array_equal(shifted_measure_batch(ball, shifts, sigma), expected)
    nc = np.array([0.0, 0.5, math.inf, math.nan])
    assert np.array_equal(_ncx2_cdf(math.inf, k, nc), stats.ncx2.cdf(math.inf, k, nc),
                          equal_nan=True)


_INF = math.inf


@pytest.mark.parametrize(
    "measure",
    [
        lambda B: gaussian_measure(B.dilate(0.8)),
        lambda B: shell_measure(B, 0.4),
        lambda B: omega_star_hat(B, 0.4, 0.3),
    ],
    ids=["gaussian_measure", "shell_measure", "omega_star_hat"],
)
def test_parallel_body_of_an_empty_box_is_empty(measure):
    # the inverted box's distance_outside used to be finite: 0.209, 0.209 and 0.254
    empty = Box([1.0], [0.0])
    assert empty.dilate(0.8).is_empty
    assert not np.any(empty.dilate(0.8).contains(np.linspace(-2.0, 2.0, 41)[:, None]))
    assert measure(empty) == 0.0


def test_dilation_of_an_empty_ball_is_empty():
    gone = Ball(np.zeros(2), 0.5).erode(0.6)
    assert gone.is_empty and gone.dilate(0.2).is_empty
    assert gaussian_measure(gone.dilate(0.2)) == 0.0


@pytest.mark.parametrize("lo, hi", [(-0.5, 0.7), (-_INF, 0.3), (0.2, _INF), (1.5, 1.5)])
@pytest.mark.parametrize("eps", (0.1, 0.4, 2.0))
def test_dilated_box_measure_in_one_dimension_is_exact(lo, hi, eps):
    mass = _closed_form_phi(Box([lo], [hi]).dilate(eps))
    assert mass == pytest.approx(ndtr(hi + eps) - ndtr(lo - eps), abs=1e-14)


def _slice_integral(lo, hi, eps):
    """Phi(box^eps) at k = 2 by adaptive quadrature over z_1 of the exact slice mass.

    At distance d <= eps of z_1 outside [lo_1, hi_1] the slice of the
    dilation is [lo_2 - r, hi_2 + r] with r = sqrt(eps^2 - d^2).
    """

    def slice_mass(z):
        d = max(lo[0] - z, z - hi[0], 0.0)
        r = math.sqrt(max(eps * eps - d * d, 0.0))
        return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) * (ndtr(hi[1] + r) - ndtr(lo[1] - r))

    a, b = max(lo[0] - eps, -40.0), min(hi[0] + eps, 40.0)
    kinks = [p for p in (lo[0], hi[0]) if a < p < b]
    return integrate.quad(slice_mass, a, b, points=kinks or None, epsabs=1e-14, epsrel=1e-13,
                          limit=200)[0]


@pytest.mark.parametrize(
    "lo, hi",
    [([-0.5, -0.3], [0.7, 0.4]), ([-1.0, -1.0], [1.0, 1.0]), ([-_INF, -0.3], [0.7, _INF]),
     ([0.0, -_INF], [_INF, 0.5]), ([-_INF, 0.2], [_INF, 0.9])],
    ids=["box", "cube", "orthant", "orthant-2", "slab"],
)
@pytest.mark.parametrize("eps", (0.1, 0.4, 1.0, 3.0))
def test_dilated_box_measure_in_two_dimensions_matches_adaptive_quadrature(lo, hi, eps):
    mass = _closed_form_phi(Box(lo, hi).dilate(eps))
    assert mass == pytest.approx(_slice_integral(lo, hi, eps), abs=1e-10)


@pytest.mark.parametrize(
    "lo, hi",
    [(-np.linspace(0.5, 1.0, 3), np.linspace(0.3, 0.9, 3)),
     ([-_INF, -0.4, -0.4, -0.4], [0.6, _INF, _INF, _INF]),
     ([-0.8, -0.5, -_INF, -1.0], [0.4, 0.9, _INF, 0.2])],
    ids=["box-3", "orthant-4", "slab-4"],
)
@pytest.mark.parametrize("eps", (0.1, 0.4))
def test_dilated_box_measure_matches_sobol(lo, hi, eps):
    box = Box(lo, hi)
    mass = _closed_form_phi(box.dilate(eps))
    # the predicate-backed parallel body has no closed form and goes to QMC
    est, se = _qmc_membership_mean(DilatedSet(box, eps), 1 << 20)
    assert abs(mass - est) <= 4.0 * se


def _fresh_sobol_membership_mean(C, n_points):
    """The QMC estimate with every replicate built from a fresh Sobol engine."""
    per = max(n_points // 16, 256)
    vals = np.empty(16)
    for r in range(16):
        u = qmc.Sobol(d=C.dim, scramble=True, seed=r).random(per)
        vals[r] = float(np.mean(C.contains(ndtri(np.clip(u, 1e-15, 1.0 - 1e-15)))))
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(16))


def _qmc_sets():
    gen = RngStream(31, stream_id=4).generator()
    for k in (1, 2, 3, 4):
        A = gen.standard_normal((k, k))
        ell = Ellipsoid(0.3 * gen.standard_normal(k), A @ A.T + 0.5 * np.eye(k))
        yield f"dilate-{k}", ell.dilate(0.2)
        yield f"erode-{k}", ell.erode(0.2)
        yield f"scaled-dilate-{k}", ell.dilate(0.2).scale(1.3)
    yield "box-dilate-5", Box(-np.ones(5), np.linspace(0.2, 1.0, 5)).dilate(0.3)


_QMC_SETS = dict(_qmc_sets())


@pytest.mark.parametrize("n_points", (512, 1 << 16))
@pytest.mark.parametrize("name", sorted(_QMC_SETS))
def test_cached_sobol_points_give_the_fresh_engine_estimate_bit_for_bit(name, n_points):
    C = _QMC_SETS[name]
    assert _qmc_membership_mean(C, n_points) == _fresh_sobol_membership_mean(C, n_points)


def test_cached_sobol_points_are_read_only():
    pts = _sobol_normal_replicates(3, 256)
    assert pts.shape == (16, 256, 3)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0, 0] = 0.0


def test_cached_grids_and_membership_plans_are_read_only():
    # threads that run the blocks of one estimate share these arrays
    from steinclt.quadrature import gauss_hermite_1d, gauss_hermite_tensor

    fam = default_family(2)
    arrays = [*gauss_hermite_1d(32), *gauss_hermite_tensor(1, 32), *gauss_hermite_tensor(2, 32)]
    arrays += [a for _, levels, targets in fam._plan[0] for a in (levels, targets)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    assert fam.counts(np.zeros((3, 2))).sum() > 0


def test_a_second_qmc_measure_builds_no_sobol_engine(monkeypatch):
    C = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])).dilate(0.1)
    first = gaussian_measure_estimate(C)

    def no_engine(*args, **kwargs):
        raise AssertionError("a cached measure built a Sobol engine")

    monkeypatch.setattr(qmc, "Sobol", no_engine)
    assert gaussian_measure_estimate(C) == first
    # another set of the same dimension reads the same points
    gaussian_measure_estimate(C.erode(0.3))


def test_a_large_qmc_request_is_not_cached():
    before = _sobol_normal_replicates.cache_info()
    _qmc_membership_mean(DilatedSet(Box(-np.ones(2), np.ones(2)), 0.1), 1 << 20)
    after = _sobol_normal_replicates.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)


@pytest.mark.parametrize("n_points", (0, -5, 2.5, True, math.nan, math.inf, "4096"))
def test_gaussian_measure_rejects_a_bad_point_count(n_points):
    C = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])).dilate(0.1)
    with pytest.raises(DomainError, match="n_points"):
        gaussian_measure(C, n_points=n_points)
    with pytest.raises(DomainError, match="n_points"):
        gaussian_measure_estimate(C, n_points=n_points)


def test_dilated_box_shifted_rows_match_translate_scale():
    shifts = RngStream(12, stream_id=9).generator().standard_normal((12, 3))
    for lo, hi in (([-1.0, -0.2, -0.5], [0.5, 0.8, 0.1]), ([-_INF, -0.2, 0.1], [0.5, _INF, _INF])):
        for sigma in (0.4, 1.3):
            dil = Box(lo, hi).dilate(0.3)
            vals = shifted_measure_batch(dil, shifts, sigma)
            for row, v in zip(shifts, vals):
                moved = dil.translate(-row).scale(1.0 / sigma)
                assert type(moved) is DilatedBox
                assert v == pytest.approx(_closed_form_phi(moved), abs=1e-12)


def test_dilated_box_above_four_dimensions_stays_predicate_backed():
    box = Box(-np.ones(5), np.ones(5))
    assert type(box.dilate(0.3)) is DilatedSet
    assert box.dilate(0.3).shifted_measure(np.zeros((1, 5)), 1.0) is None


@st.composite
def _box_and_radii(draw):
    k = draw(st.integers(1, 3))
    bound = st.floats(-2.0, 2.0)
    lo, hi = [], []
    for _ in range(k):
        a, b = sorted((draw(bound), draw(bound)))
        lo.append(-_INF if draw(st.booleans()) and draw(st.booleans()) else a)
        hi.append(_INF if draw(st.booleans()) and draw(st.booleans()) else b)
    radius = st.floats(0.01, 1.5)
    return Box(lo, hi), draw(radius), draw(radius)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_box_and_radii())
def test_dilated_box_geometric_laws(case):
    box, a, b = case
    small, large = sorted((a, b))
    base = gaussian_measure(box)
    m_small, m_large = gaussian_measure(box.dilate(small)), gaussian_measure(box.dilate(large))
    assert base - 1e-14 <= m_small <= m_large + 1e-14
    assert gaussian_measure(box.dilate(a).dilate(b)) == gaussian_measure(box.dilate(a + b))
    assert box.dilate(a).erode(a) is box
    assert box.dilate(a + b).erode(b).eps == pytest.approx(a)
    assert type(box.dilate(a).translate(np.full(box.dim, 0.3))) is DilatedBox
    assert type(box.dilate(a).scale(1.7)) is DilatedBox


def _scale_variants():
    E = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0]))
    box = Box(-np.ones(2), np.ones(2))
    return {
        "half-space": HalfSpace(np.array([1.0, 0.0]), 0.5),
        "ball": Ball(np.zeros(2), 1.0),
        "box": box,
        "ellipsoid": E,
        "dilated-ellipsoid": E.dilate(0.1),
        "eroded-ellipsoid": E.erode(0.1),
        "dilated-box": box.dilate(0.1),
        "dilated-box-k5": Box(-np.ones(5), np.ones(5)).dilate(0.1),
    }


_BAD_FACTORS = (-1.0, 0.0, -0.0, math.nan, math.inf)


@pytest.mark.parametrize("factor", _BAD_FACTORS)
@pytest.mark.parametrize("name", sorted(_scale_variants()))
def test_scale_rejects_a_factor_that_is_not_finite_and_positive(name, factor):
    # each used to return a wrong or empty set, or fail on an unrelated check
    with pytest.raises(DomainError, match="scale factor"):
        _scale_variants()[name].scale(factor)


@pytest.mark.parametrize("factor", _BAD_FACTORS)
def test_shell_measure_rejects_a_bad_scale(factor):
    with pytest.raises(DomainError, match="scale factor"):
        shell_measure(Ball(np.zeros(2), 1.0), 0.1, scale=factor)


def test_shell_halfspace_closed_form():
    hs = HalfSpace(np.array([1.0]), 0.0)
    assert shell_measure(hs, 0.1, 1.0) == pytest.approx(2 * ndtr(0.2) - 1, abs=1e-12)


def test_shell_zero_eps_and_monotone():
    for C in _catalog():
        assert shell_measure(C, 0.0) == 0.0
        vals = [shell_measure(C, e) for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_shell_ball_qmc_crosscheck():
    a2 = quantile_a(2).a_k
    ball = Ball(np.zeros(2), a2)
    eps = 0.05
    analytic = shell_measure(ball, eps)
    # QMC oracle on the equivalent annulus (ellipsoid forms force QMC)
    outer = Ellipsoid(np.zeros(2), np.eye(2) * (a2 + 2 * eps) ** 2)
    inner = Ellipsoid(np.zeros(2), np.eye(2) * (a2 - 2 * eps) ** 2)
    vo, so = gaussian_measure_estimate(outer)
    vi, si = gaussian_measure_estimate(inner)
    assert abs(analytic - (vo - vi)) <= 3 * math.hypot(so, si) + 1e-4


def test_family_basics_and_serialization():
    fam = default_family(2, seed=3)
    assert len(fam) == 32 * 17 + 17 + 9
    assert fam.dim == 2
    cfg = family_to_config(fam)
    fam2 = family_from_config(cfg)
    assert len(fam2) == len(fam)
    pts = RngStream(12, stream_id=9).generator().standard_normal((50, 2))
    for a, b in zip(fam.sets[:40], fam2.sets[:40]):
        assert np.array_equal(a.contains(pts), b.contains(pts))


def test_serialization_round_trip_for_every_variant(tmp_path):
    fam = SetFamily(
        sets=(
            HalfSpace(np.array([0.6, -0.8]), 0.25),
            Ball(np.array([0.3, -0.1]), 1.2),
            Ball(np.zeros(2), -1.0),
            Box(np.array([-1.0, -0.5]), np.array([0.7, 2.0])),
            Box(np.array([1.0, -1.0]), np.array([-1.0, 1.0])),
            Ellipsoid(np.array([0.4, -0.2]), np.array([[2.0, 0.3], [0.3, 0.5]])),
        ),
        description="mixed",
    )
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_family(fam, str(first))
    loaded = load_family(str(first))
    assert loaded.description == "mixed"
    assert [type(C) for C in loaded.sets] == [type(C) for C in fam.sets]
    pts = RngStream(21, stream_id=4).generator().standard_normal((400, 2)) * 1.5
    for a, b in zip(fam.sets, loaded.sets):
        assert np.array_equal(a.contains(pts), b.contains(pts))
    save_family(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    base = Box(-np.ones(2), np.ones(2))
    for predicate_backed in (DilatedSet(base, 0.2), ErodedSet(base, 0.2)):
        with pytest.raises(ConfigurationError):
            set_to_config(predicate_backed)


def test_family_builder_config():
    fam = family_from_config({"builder": "default", "k": 3, "n_directions": 4, "seed": 1})
    assert fam.dim == 3
    assert len(fam) == 4 * 17 + 17 + 9


def test_family_rejects_empty_and_mixed_dims():
    with pytest.raises(DomainError):
        SetFamily(sets=())
    with pytest.raises(DimensionMismatchError):
        SetFamily(sets=(Ball(np.zeros(2), 1.0), Ball(np.zeros(3), 1.0)))


def _per_set_counts(fam, pts):
    return np.array([np.count_nonzero(C.contains(pts)) for C in fam.sets], dtype=np.int64)


def _lattice_points(k, n, m, seed):
    """m draws from the Rademacher lattice {(2j - n)/sqrt(n)}^k."""
    j = RngStream(seed, stream_id=4).generator().integers(0, n + 1, size=(m, k))
    return (2.0 * j - n) / math.sqrt(n)


def test_family_counts_match_contains_on_the_default_family():
    for k in (1, 2, 3):
        fam = default_family(k)
        gauss = RngStream(30 + k, stream_id=5).generator().standard_normal((4096, k))
        for pts in (gauss, _lattice_points(k, 4, 4096, k), _lattice_points(k, 16, 4096, k)):
            counts = fam.counts(pts)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, _per_set_counts(fam, pts))


def test_default_family_is_built_once_per_arguments():
    fam = default_family(2, seed=5)
    assert default_family(2, seed=5) is fam
    assert default_family(2, seed=6) is not fam
    assert default_family(2, seed=6).description != fam.description


@st.composite
def _mixed_family_and_points(draw):
    """A family mixing shared and distinct statistics, and points on its boundaries."""
    k = draw(st.integers(1, 3))
    n = draw(st.sampled_from([1, 4, 9]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = (2.0 * np.arange(n + 1) - n) / math.sqrt(n)
    level = st.one_of(
        st.sampled_from(lattice.tolist()), st.floats(-3.0, 3.0, allow_nan=False)
    )
    # unit normals: coordinate axes (exact projections) and random directions
    normals = [np.eye(k)[i] for i in range(k)] + [
        d / np.linalg.norm(d) for d in gen.standard_normal((2, k))
    ]
    centers = [np.zeros(k), gen.standard_normal(k)]
    sets = []
    for _ in range(draw(st.integers(1, 12))):
        normal = normals[draw(st.integers(0, len(normals) - 1))]
        sets.append(HalfSpace(normal.copy(), draw(level)))  # shared normals, separate arrays
    for _ in range(draw(st.integers(0, 6))):
        center = centers[draw(st.integers(0, 1))]
        sets.append(Ball(center.copy(), draw(st.sampled_from([-1.0, 0.0, 1.0]) | level)))
    half = np.abs(lattice[-1]) * np.ones(k)
    sets += [
        # centred cubes [-a, a]^k at a lattice value, a = -1 (empty), 0 and inf
        Box(-half, half),
        Box(np.ones(k), -np.ones(k)),
        Box(np.zeros(k), np.zeros(k)),
        Box(np.full(k, -np.inf), np.full(k, np.inf)),
        # boxes that are not centred cubes: asymmetric, shifted, unequal sides (k >= 2)
        Box(-np.ones(k), np.full(k, 1.5)),
        Box(-half + 0.5, half + 0.5),
        Box(-np.arange(1.0, k + 1), np.arange(1.0, k + 1)),
        Ellipsoid(centers[1], np.diag(np.linspace(0.5, 2.0, k))),
        DilatedSet(Box(-np.ones(k), np.ones(k)), 0.25),
        ErodedSet(Ellipsoid(np.zeros(k), 4.0 * np.eye(k)), 0.5),
    ]
    order = draw(st.permutations(range(len(sets))))
    fam = SetFamily(sets=tuple(sets[i] for i in order))
    m = draw(st.integers(1, 64))
    gauss = gen.standard_normal((m, k))
    on_lattice = lattice[gen.integers(0, n + 1, size=(m, k))]
    # exactly on axis half-space offsets and on centred-ball radii
    radii = np.array([C.radius for C in sets if isinstance(C, Ball)] + [1.0])
    on_spheres = np.zeros((m, k))
    on_spheres[:, 0] = gen.choice(np.abs(radii), size=m)
    # rows with NaN and -0.0 entries; and rows that also hold +-inf
    special = gen.choice([np.nan, -0.0, 0.0, 1.0], size=(m, k))
    infinite = gen.choice([np.inf, -np.inf, np.nan, -0.0, 1.0], size=(m, k))
    return fam, np.vstack([gauss, on_lattice, on_spheres, special]), infinite


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_mixed_family_and_points())
def test_family_counts_match_per_set_contains(case):
    fam, pts, infinite = case
    before = pts.copy()
    counts = fam.counts(pts)
    assert counts.dtype == np.int64
    assert np.array_equal(pts, before, equal_nan=True)  # the statistics are sorted in place
    assert np.array_equal(counts, _per_set_counts(fam, pts))
    # inf * 0 in a projection or rotation is NaN; the row counts as a NaN row does,
    # in the plan and in `contains`, and neither warns (the suite turns warnings into errors)
    assert np.array_equal(fam.counts(infinite), _per_set_counts(fam, infinite))
    # the ellipsoid, the two parallel bodies and the boxes that are not centred cubes
    # (two, and a third with unequal sides at k >= 2) count alone; the rest share statistics
    assert _check_plan(fam)[1] == 5 + (fam.dim > 1)
    for C in fam.sets:
        if C.is_empty:
            assert not np.any(C.contains(pts))
        elif isinstance(C, Box):
            # the (M, k) reduction the per-column comparisons replaced
            expect = np.all((pts >= C.lower) & (pts <= C.upper), axis=1)
            assert np.array_equal(C.contains(pts), expect)


def _check_plan(fam):
    """The plan has one group per distinct statistic key, each set's level in its group."""
    groups, others = fam._plan
    tests = [C.membership_statistic() for C in fam.sets]
    assert len(groups) == len({test[0] for test in tests if test is not None})
    assert list(others) == [i for i, test in enumerate(tests) if test is None]
    covered = []
    for _, levels, targets in groups:
        assert [tests[i][0] for i in targets] == [tests[targets[0]][0]] * len(targets)
        assert levels.tolist() == [tests[i][2] for i in targets]
        covered += targets.tolist()
    assert sorted(covered) == [i for i, test in enumerate(tests) if test is not None]
    return len(groups), len(others)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_box_membership_statistic_is_the_max_abs_of_centred_cubes_only(k):
    pts = np.random.default_rng(k).standard_normal((512, k))
    for a in (-1.0, 0.0, -0.0, 0.9, np.inf, -np.inf):
        cube = Box(np.full(k, -a), np.full(k, a))
        key, statistic, level = cube.membership_statistic()
        assert key == ("max_abs",) and level == a
        assert np.array_equal(statistic(pts) <= level, cube.contains(pts))
    non_cubes = [
        Box(-np.ones(k), np.full(k, 1.5)),
        Box(np.zeros(k), np.ones(k)),
        Box(np.full(k, -np.inf), np.ones(k)),
    ]
    if k > 1:
        non_cubes.append(Box(-np.arange(1.0, k + 1), np.arange(1.0, k + 1)))
    for box in non_cubes:
        assert box.membership_statistic() is None
    assert Box([], []).membership_statistic() is None
    assert np.array_equal(SetFamily((Box([], []),)).counts(np.zeros((3, 0))), [3])


@pytest.mark.parametrize("k", range(1, 11))
def test_projection_and_center_distance_equal_the_matrix_forms(k):
    # the family's statistics avoid these forms for speed, and must round exactly as they do
    gen = np.random.default_rng(40 + k)
    for m in (1, 7, 842, 16384):
        pts = gen.standard_normal((m, k)) * gen.choice([1e-3, 1.0, 1e3], size=(m, k))
        pts[::97] = np.nan
        pts[3::89] = -0.0
        for _ in range(20):
            normal = gen.standard_normal(k)
            normal /= np.linalg.norm(normal)
            assert np.array_equal(_projection(normal, pts), pts @ normal, equal_nan=True)
        pts[5::83, 0] = np.inf
        pts[6::83, -1] = -np.inf
        for center in (np.zeros(k), gen.standard_normal(k)):
            expect = np.linalg.norm(pts - center, axis=1)
            assert np.array_equal(_center_distance(center, pts), expect, equal_nan=True)


@st.composite
def _family_with_repeated_levels(draw):
    """Half-spaces and balls that repeat (statistic, level) pairs, and points on those levels."""
    k = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=3))
    levels += [0.0, -0.0]
    normals = [np.eye(k)[0], -np.eye(k)[0], gen.standard_normal(k)]
    normals[2] /= np.linalg.norm(normals[2])
    centers = [np.zeros(k), gen.standard_normal(k)]
    radii = [abs(r) for r in levels] + [-1.0]
    sets = [HalfSpace(normals[0].copy(), 0.0), HalfSpace(normals[0].copy(), -0.0)]
    for _ in range(draw(st.integers(2, 16))):
        normal = normals[draw(st.integers(0, len(normals) - 1))]
        sets.append(HalfSpace(normal.copy(), draw(st.sampled_from(levels))))
    for _ in range(draw(st.integers(0, 8))):
        center = centers[draw(st.integers(0, 1))]
        sets.append(Ball(center.copy(), draw(st.sampled_from(radii))))
    sets.append(Box(-np.ones(k), np.ones(k)))
    order = draw(st.permutations(range(len(sets))))
    fam = SetFamily(sets=tuple(sets[i] for i in order))
    m = draw(st.integers(1, 32))
    # exactly on the repeated offsets along the axis normal and on the repeated radii
    on_levels = np.zeros((len(levels) + len(radii), k))
    on_levels[:, 0] = levels + radii
    nan_rows = np.full((2, k), np.nan)
    nan_rows[1, 1:] = 0.0
    return fam, np.vstack([gen.standard_normal((m, k)), on_levels, nan_rows])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_family_with_repeated_levels())
def test_family_counts_sort_each_shared_statistic_once(case):
    fam, pts = case
    assert np.array_equal(fam.counts(pts), _per_set_counts(fam, pts))
    # half-spaces, balls and the centred cube all share statistics: none counts alone
    assert _check_plan(fam)[1] == 0


def test_default_family_plan_sorts_one_statistic_per_group():
    fam = default_family(1)
    assert len(fam) == 570
    # 32 directions reduce to +-1: 2 projections, the centre distance and the cubes' max |x|
    assert _check_plan(fam) == (4, 0)
    assert _check_plan(default_family(2)) == (34, 0)
