import math
import re
import tracemalloc
import warnings

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
from steinclt import convex
from steinclt.convex import (
    DilatedBox,
    _BoundaryShell,
    _center_distance,
    _ncx2_cdf,
    _projection,
    _qmc_membership_mean,
    _replicate_group,
    _shell_base,
    _sobol_normal_replicates,
    _sobol_points,
    _square_sum,
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


_TRANSLATED = _catalog() + [
    Box(-np.ones(2), np.ones(2)).dilate(0.2),
    Ellipsoid(np.zeros(2), np.diag([1.0, 4.0])).dilate(0.2),
    Ellipsoid(np.zeros(2), np.diag([1.0, 4.0])).erode(0.2),
]


@pytest.mark.parametrize("shift", [[0.3], [0.3, 0.1, 0.2], [[0.3, 0.1]]], ids=["1", "3", "1x2"])
@pytest.mark.parametrize("C", _TRANSLATED, ids=lambda C: type(C).__name__)
def test_translate_needs_a_shift_of_the_set_dimension(C, shift):
    # a 1-vector shift broadcast through the ball, box and ellipsoid centres
    with pytest.raises(DimensionMismatchError):
        C.translate(shift)


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
    """Gaussian, face, far, infinite and NaN rows for a box and its eps-dilation.

    Rows lie on each finite face and eps either side of it; far rows hold
    +-1e300 or 1e160 in one coordinate or all of them; infinite rows hold
    +-inf along a finite and along an infinite bound.
    """
    k = B.dim
    rows = [1.5 * gen.standard_normal((400, k))]
    for j in range(k):
        for bound in (B.lower[j], B.upper[j]):
            if math.isfinite(bound):
                for offset in (0.0, -eps, eps):
                    face = 0.5 * gen.standard_normal((20, k))
                    face[:, j] = bound + offset
                    rows.append(face)
    for value in (1e300, -1e300, 1e160, math.inf, -math.inf, math.nan):
        rows += [np.full((1, k), value), 0.3 * gen.standard_normal((k, k))]
        rows[-1][np.arange(k), np.arange(k)] = value
    return np.concatenate(rows)


def _excess_norm_contains(B, eps, pts):
    """Membership of B's eps-dilation row by row in Python: |max(l - x, x - u, 0)| <= eps."""
    if B.is_empty:
        return np.zeros(len(pts), dtype=bool)
    inside = []
    for row in pts.tolist():
        excess = [l - x if x < l else x - u if x > u else 0.0
                  for x, l, u in zip(row, B.lower.tolist(), B.upper.tolist())]
        nan = any(math.isnan(x) for x in row)
        inside.append(not nan and math.hypot(*excess) <= eps)
    return np.array(inside)


def _membership_boxes(k):
    lower, upper = -np.ones(k), np.linspace(0.5, 1.5, k)
    slab_lower, slab_upper = lower.copy(), upper.copy()
    slab_lower[0], slab_upper[-1] = -_INF, _INF
    yield Box(lower, upper)
    yield Box(slab_lower, slab_upper)  # at k = 1 the whole line
    yield Box(np.full(k, -_INF), upper)  # an orthant
    yield Box(lower, np.full(k, _INF))
    yield Box(upper, lower)  # empty


@pytest.mark.parametrize("eps", (1e-300, 0.05, 0.3, 1e200))
@pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 6))
def test_dilated_box_membership_is_the_norm_of_the_coordinate_excess(k, eps):
    gen = RngStream(44, stream_id=k).generator()
    for B in _membership_boxes(k):
        pts = _box_test_points(gen, B, eps)
        C = B.dilate(eps)
        assert type(C) is DilatedBox and C.has_closed_form == (k <= 4)
        assert np.array_equal(C.contains(pts), _excess_norm_contains(B, eps, pts)), B
    # an excess whose square underflows to 0 is outside an eps below it
    tiny = np.full((1, k), -0.5)
    tiny[0, 0] = 1e-200
    assert Box(-np.ones(k), np.zeros(k)).dilate(eps).contains(tiny)[0] == (eps > 1e-200)


@pytest.mark.parametrize("k", (1, 2, 5, 6))
def test_a_box_and_its_parallel_bodies_leave_out_a_far_finite_row(k):
    # the norm's squares overflowed past about 1e154 ("overflow encountered in
    # multiply", an error in this suite); in units of eps they take their limit
    B = Box(-np.ones(k), np.ones(k))
    gen = np.random.default_rng(70 + k)
    finite = 1.5 * gen.standard_normal((6, k))
    far = np.zeros((3, k))
    far[0, 0] = 1e300
    far[1, -1] = -1e200
    far[1, 0] = 3e199
    far[2] = 1.7e308
    X = np.vstack([far[:1], finite, far[1:]])
    for C in (B, B.dilate(0.1), B.dilate(1e-300), B.erode(0.1)):
        got = np.asarray(C.contains(X))
        assert not got[[0, -2, -1]].any(), C
        assert got[1:-2].tobytes() == np.asarray(C.contains(finite)).tobytes(), C
    assert B.dilate(1e300).contains(X).tolist() == [True] * (len(X) - 1) + [False]
    assert not Box(-np.ones(5), np.ones(5)).dilate(0.1).contains([[1e300, 0, 0, 0, 0]])[0]


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


@pytest.mark.parametrize("k", range(1, 9))
def test_ellipsoid_quadratic_form_equals_the_short_axis_sum(k):
    # contains sums the weighted squared columns in order; it must round as the sum does
    gen = np.random.default_rng(60 + k)
    E = _random_ellipsoid(gen, k)
    for m in (1, 7, 842, 16384):
        pts = E.center + gen.standard_normal((m, k)) * gen.choice([1e-3, 1.0, 1e3], size=(m, k))
        expect = np.sum(np.square(E._rotated(pts)) / E._evals, axis=1)
        assert np.array_equal(E._quadratic_form(pts), expect)


@pytest.mark.parametrize("k", (1, 2, 3, 7))
def test_ellipsoid_membership_of_nan_and_infinite_rows_is_false(k):
    # the suite turns warnings into errors, so a warning would fail here
    for E in (_random_ellipsoid(np.random.default_rng(k), k), Ellipsoid(np.zeros(k), np.eye(k))):
        pts = np.zeros((5, k))
        pts[0, 0] = math.nan
        pts[1, -1] = math.inf
        pts[2, 0] = -math.inf
        pts[3] = math.inf
        pts[4, ::2] = -math.inf
        assert not np.asarray(E.contains(pts)).any()
        assert E.contains(E.center)


@pytest.mark.parametrize("k", (1, 2, 3, 7))
def test_ellipsoid_boundary_distance_of_non_finite_rows_is_their_limit(k):
    # inf * 0 in the rotation warned (an error in this suite) and gave NaN
    gen = np.random.default_rng(k)
    for E in (_random_ellipsoid(gen, k), Ellipsoid(np.zeros(k), np.diag(np.arange(1.0, k + 1)))):
        finite = E.center + gen.standard_normal((6, k))
        bad = np.zeros((5, k))
        bad[0, 0] = math.inf
        bad[1, -1] = -math.inf
        bad[2] = math.inf
        bad[3, 0] = math.nan
        bad[4] = np.where(np.arange(k) == 0, math.nan, -math.inf)
        d = E.boundary_distance(np.vstack([bad[:2], finite, bad[2:]]))
        assert d[:2].tolist() == [math.inf, math.inf] and d[-3] == math.inf
        assert np.isnan(d[-2:]).all()
        assert np.array_equal(d[2:-3], E.boundary_distance(finite))
    E = Ellipsoid([0.0, 0.0], np.diag([1.0, 2.0]))
    assert E.boundary_distance([math.inf, 0.0]) == math.inf
    assert E.boundary_distance([0.0, -math.inf]) == math.inf


@pytest.mark.parametrize("k", (1, 2, 3, 7))
def test_ellipsoid_boundary_distance_of_huge_rows_does_not_overflow(k):
    # the squared distance overflowed (a warning, an error in this suite) past about 1e154
    gen = np.random.default_rng(20 + k)
    E = _random_ellipsoid(gen, k)
    finite = E.center + gen.standard_normal((5, k))
    directions = gen.standard_normal((4, k))
    huge = directions * np.array([1e160, 1e200, 1e250, 1e300])[:, None]
    d = E.boundary_distance(np.vstack([huge[:2], finite, huge[2:]]))
    # a far point's distance to a set of size about 1 is its norm, to the last digits
    norms = [math.hypot(*row) for row in huge]
    assert d[[0, 1, -2, -1]] == pytest.approx(norms, rel=1e-12)
    assert np.array_equal(d[2:-2], E.boundary_distance(finite))
    assert Ellipsoid([0.0, 0.0], np.diag([1.0, 2.0])).boundary_distance([1e300, 0.0]) == 1e300
    flat = Ellipsoid(np.zeros(2), np.diag([1e-10, 4.0]))  # ratio2 up to 1e10 on its short axis
    assert flat.boundary_distance([[1e150, 0.0], [0.0, 1e150]]).tolist() == [1e150, 1e150]


@pytest.mark.parametrize("k", (1, 2, 3, 7))
def test_ellipsoid_hooks_at_a_far_finite_row_take_their_limit(k):
    # q overflowed past about 1e154 ("overflow encountered in square", an error
    # in this suite) in membership, in the distance bracket and so in both
    # parallel bodies: the row lies outside each, and its bracket is its distance
    gen = np.random.default_rng(30 + k)
    for E in (_random_ellipsoid(gen, k), Ellipsoid(np.zeros(k), np.diag(np.arange(1.0, k + 1)))):
        finite = E.center + gen.standard_normal((6, k))
        far = np.vstack([np.eye(k)[0] * 1e300, gen.standard_normal(k) * 1e200])
        X = np.vstack([far[:1], finite, far[1:]])
        for C in (E, E.dilate(0.1), E.erode(0.1)):
            got = np.asarray(C.contains(X))
            assert not got[[0, -1]].any()
            assert np.array_equal(got[1:-1], C.contains(finite))
        lower, upper = E.boundary_distance_bounds(X)
        assert lower[[0, -1]].tolist() == upper[[0, -1]].tolist() == E.boundary_distance(far).tolist()
        for got, want in zip((lower, upper), E.boundary_distance_bounds(finite)):
            assert np.array_equal(got[1:-1], want)


@pytest.mark.parametrize("k", (1, 2, 3, 7))
def test_ellipsoid_distance_bounds_of_non_finite_rows_are_their_limit(k):
    # inf * 0 in the rotation raised "invalid value encountered in matmul" (an
    # error in this suite) when called directly; the parallel bodies ignored it
    gen = np.random.default_rng(40 + k)
    for E in (_random_ellipsoid(gen, k), Ellipsoid(np.zeros(k), np.diag(np.arange(1.0, k + 1)))):
        finite = E.center + gen.standard_normal((4, k))
        bad = np.zeros((3, k))
        bad[0, 0] = math.inf
        bad[1, -1] = -math.inf
        bad[2, 0] = math.nan
        lower, upper = E.boundary_distance_bounds(np.vstack([bad[:1], finite, bad[1:]]))
        for got, want in zip((lower, upper), E.boundary_distance_bounds(finite)):
            assert got[0] == got[-2] == math.inf and math.isnan(got[-1])
            assert np.array_equal(got[1:-2], want)


@st.composite
def _ellipsoid_and_radii(draw):
    """A rotated ellipsoid at k = 2..4 and two shell radii eps1 < eps2."""
    k = draw(st.integers(2, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation = np.linalg.qr(gen.standard_normal((k, k)))[0]
    semi = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=k, max_size=k)))
    center = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    E = Ellipsoid(center, (rotation * semi**2) @ rotation.T)
    eps1, eps2 = sorted(draw(st.lists(
        st.sampled_from((0.01, 0.05, 0.1, 0.2, 0.4)), min_size=2, max_size=2, unique=True
    )))
    return E, eps1, eps2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_ellipsoid_and_radii())
def test_ellipsoid_parallel_bodies_nest_on_the_sobol_points(case):
    # E^{-eps2} within E^{-eps1} within E within E^{eps1} within E^{eps2}, row by row
    E, eps1, eps2 = case
    pts = _sobol_normal_replicates(E.dim, 4096).reshape(-1, E.dim)
    chain = [E.erode(eps2), E.erode(eps1), E, E.dilate(eps1), E.dilate(eps2)]
    inside = [np.asarray(C.contains(pts)) for C in chain]
    for smaller, larger, C in zip(inside, inside[1:], chain):
        assert not np.any(smaller & ~larger), C


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
    dilated = Box(lo, hi).dilate(eps)
    mass = _closed_form_phi(dilated)
    # QMC on the dilation's own membership, the excess-norm rule
    est, se = _qmc_membership_mean(dilated, 1 << 20)
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


def _per_replicate_membership_mean(C, n_points):
    """The QMC estimate with one `contains` call per replicate of the Sobol points."""
    per = max(n_points // 16, 256)
    build = _sobol_normal_replicates
    if 16 * per > 1 << 16:  # larger requests are not cached; keep the cache as it was
        build = _sobol_normal_replicates.__wrapped__
    vals = np.array([np.mean(C.contains(pts)) for pts in build(C.dim, per)])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(16))


def _grouped_qmc_sets():
    gen = RngStream(32, stream_id=4).generator()
    inv = 1.0 / math.exp(0.3)  # shell_measure's rescaling at scale e^0.3
    for k in (2, 3, 4):
        A = gen.standard_normal((k, k))
        ell = Ellipsoid(0.3 * gen.standard_normal(k), A @ A.T + 0.5 * np.eye(k))
        for eps in (0.05, 0.1, 0.2):
            yield f"shell-dilate-{k}-{eps}", ell.dilate(2.0 * eps).scale(inv)
            yield f"shell-erode-{k}-{eps}", ell.erode(2.0 * eps).scale(inv)
    sphere = Ellipsoid(np.array([0.2, -0.1, 0.4]), 1.3**2 * np.eye(3))
    yield "sphere", sphere
    yield "sphere-dilate", sphere.dilate(0.2)
    yield "sphere-erode", sphere.erode(0.2)
    yield "no-point", Ellipsoid(np.full(2, 40.0), np.diag([0.5, 2.0]))
    yield "box-dilate-5", Box(-np.ones(5), np.linspace(0.2, 1.0, 5)).dilate(0.3)
    yield "ellipsoid-erode-5", Ellipsoid(np.zeros(5), np.diag(np.linspace(0.5, 2.0, 5))).erode(0.1)


_GROUPED_QMC_SETS = dict(_grouped_qmc_sets())


@pytest.mark.parametrize("n_points", (512, 1 << 16, 1 << 17))
@pytest.mark.parametrize("name", sorted(_GROUPED_QMC_SETS))
def test_grouped_membership_gives_the_per_replicate_estimate_bit_for_bit(name, n_points):
    C = _GROUPED_QMC_SETS[name]
    assert not C.has_closed_form
    got = np.array(gaussian_measure_estimate(C, n_points))
    assert np.array_equal(got, _per_replicate_membership_mean(C, n_points)), (name, got)
    if name == "no-point":
        assert got.tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "n_points, calls", [(512, [4096]), (1 << 16, [1 << 14] * 4), (1 << 17, [1 << 14] * 8),
                        (1 << 19, [1 << 15] * 16), (80000, [3 * 5000] * 5 + [5000])]
)
def test_membership_runs_once_per_group_of_at_most_2_14_rows(monkeypatch, n_points, calls):
    rows = []
    monkeypatch.setattr(
        Ellipsoid, "contains", lambda self, x: rows.append(len(x)) or np.zeros(len(x), dtype=bool)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # scipy's Sobol balance warning at 5000 points
        _qmc_membership_mean(Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])), n_points)
    assert rows == calls


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
        raise AssertionError("a cached measure built Sobol points")

    monkeypatch.setattr(convex, "_sobol_points", no_engine)
    assert gaussian_measure_estimate(C) == first
    # another set of the same dimension reads the same points
    gaussian_measure_estimate(C.erode(0.3))


@pytest.mark.parametrize("per", (32, 256, 4096, 8192))
@pytest.mark.parametrize("dim", (1, 2, 3, 5, 8))
def test_sobol_points_are_scipys_bit_for_bit(dim, per):
    got = _sobol_points(dim, per, range(16))
    assert got.shape == (16, per, dim)
    for r in range(16):
        assert np.array_equal(got[r], qmc.Sobol(d=dim, scramble=True, seed=r).random(per)), r


def test_uncached_sobol_replicates_are_scipys_bit_for_bit():
    # 2^20 points: 16 replicates of 2^16, built one group at a time and not cached
    per = 1 << 16
    for r in range(16):
        u = qmc.Sobol(d=2, scramble=True, seed=r).random(per)
        want = ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))
        assert np.array_equal(_replicate_group(2, per, r, r + 1)[0], want), r


@pytest.mark.parametrize("dim", (1, 2, 3, 5, 8))
def test_sobol_direction_numbers_are_cached_read_only_per_dimension(dim):
    v = convex._sobol_direction_numbers(dim, convex._SOBOL_TABLE)
    assert v is convex._sobol_direction_numbers(dim, convex._SOBOL_TABLE)
    with pytest.raises(ValueError, match="read-only"):
        v[0, 0] = 0
    # dimension d's numbers do not depend on how many dimensions are built
    assert np.array_equal(v, convex._sobol_direction_numbers(40, convex._SOBOL_TABLE)[:dim])


def test_a_qmc_measure_holds_no_direction_number_table():
    # the whole table (21201 x 18 initial numbers, 3.2 MiB) was cached for the process
    convex._sobol_direction_numbers.cache_clear()
    _sobol_normal_replicates.cache_clear()
    C = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])).dilate(0.1)
    tracemalloc.start()
    try:
        gaussian_measure_estimate(C)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    with np.load(convex._SOBOL_TABLE) as table:
        table_bytes = table["vinit"].nbytes
    # what stays is the cached replicates, 16 x 4096 points at k = 2
    points = _sobol_normal_replicates(2, 4096).nbytes
    assert points <= held < points + table_bytes // 4


def _no_npz(tmp_path):
    return str(tmp_path / "missing.npz")


def _garbage_npz(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"PK\x03\x04 not a zip archive")
    return str(path)


def _keyless_npz(tmp_path):
    path = tmp_path / "keyless.npz"
    np.savez(path, poly=np.ones(3, dtype=np.int64))
    return str(path)


@pytest.mark.parametrize("table", (_no_npz, _garbage_npz, _keyless_npz),
                         ids=["missing", "garbage", "no-vinit"])
def test_an_unreadable_direction_number_file_raises_naming_it(monkeypatch, tmp_path, table):
    path = table(tmp_path)
    monkeypatch.setattr(convex, "_SOBOL_TABLE", path)
    with pytest.raises(ConfigurationError, match="Sobol direction numbers") as info:
        _sobol_points(2, 32, range(2))
    assert path in str(info.value)
    # an uncached measure builds its points, and fails the same way rather than use others
    C = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])).dilate(0.1)
    with pytest.raises(ConfigurationError, match="Sobol direction numbers"):
        gaussian_measure_estimate(C, n_points=1 << 17)


_BALANCE = re.escape("The balance properties of Sobol' points require n to be a power of 2.")


def test_sobol_points_warn_as_scipy_does_off_a_power_of_two():
    with pytest.warns(UserWarning, match=_BALANCE):
        got = _sobol_points(3, 5000, range(2))
    with pytest.warns(UserWarning, match=_BALANCE):
        want = [qmc.Sobol(d=3, scramble=True, seed=r).random(5000) for r in range(2)]
    assert np.array_equal(got, want)
    # 80000 points: 16 uncached replicates of 5000, built and warned about on each call
    C = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])).dilate(0.1)
    with pytest.warns(UserWarning, match=_BALANCE):
        gaussian_measure_estimate(C, n_points=80000)
    with pytest.warns(UserWarning, match=_BALANCE):  # 312 points per cached replicate
        gaussian_measure_estimate(Ellipsoid(np.zeros(3), np.eye(3)).dilate(0.1), n_points=5000)


def test_a_large_qmc_request_is_not_cached():
    before = _sobol_normal_replicates.cache_info()
    _qmc_membership_mean(Box(-np.ones(2), np.ones(2)).dilate(0.1), 1 << 20)
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


@pytest.mark.parametrize("k", (4, 5, 7))
def test_dilated_box_above_four_dimensions_has_no_closed_form_measure(k):
    dilated = Box(-np.ones(k), np.ones(k)).dilate(0.3)
    assert type(dilated) is DilatedBox and dilated.has_closed_form == (k <= 4)
    assert (dilated.shifted_measure(np.zeros((1, k)), 1.0) is None) == (k > 4)
    assert (gaussian_measure_estimate(dilated)[1] > 0.0) == (k > 4)  # a QMC estimate above


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


def _shell_bodies(C, eps, t):
    """shell_measure's dilation and erosion of C at shell width eps and scale e^{-t}."""
    inv = 1.0 / math.exp(-t)
    return C.dilate(2.0 * eps).scale(inv), C.erode(2.0 * eps).scale(inv)


def _two_measure_shell(C, eps, t):
    outer, inner = _shell_bodies(C, eps, t)
    return max(gaussian_measure(outer) - gaussian_measure(inner), 0.0)


@st.composite
def _ellipsoid_shell_cases(draw):
    """A rotated, off-centre ellipsoid at k = 2..4, a shell width eps and a time t.

    The widest shells (2 eps up to 3.2 against semi-axes of at most 3) have an
    empty erosion.
    """
    k = draw(st.integers(2, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation = np.linalg.qr(gen.standard_normal((k, k)))[0]
    semi = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=k, max_size=k)))
    center = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    E = Ellipsoid(center, (rotation * semi**2) @ rotation.T)
    eps = draw(st.sampled_from((0.01, 0.05, 0.1, 0.3, 0.8, 1.6)))
    return E, eps, draw(st.sampled_from((0.0, 0.3, 1.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_ellipsoid_shell_cases())
def test_an_ellipsoid_shell_in_one_pass_is_the_two_measure_difference(case):
    E, eps, t = case
    assert shell_measure(E, eps, math.exp(-t)) == _two_measure_shell(E, eps, t)
    # row by row the shell is the dilation less the erosion on the cached Sobol points
    outer, inner = _shell_bodies(E, eps, t)
    base = _shell_base(outer, inner)
    assert base is not None
    pts = _sobol_normal_replicates(E.dim, 4096).reshape(-1, E.dim)
    shell = _BoundaryShell(base, outer.eps).contains(pts)
    assert np.array_equal(shell, outer.contains(pts) & ~inner.contains(pts))


@pytest.mark.parametrize("eps", (0.125, 0.25, 0.5))
@pytest.mark.parametrize("k", (2, 3, 4))
def test_an_ellipsoid_shell_puts_rows_at_distance_eps_on_the_closed_side(k, eps):
    # the unit sphere's bracket and exact distance are exact at radii 1 -+ eps:
    # the inside row lies in the erosion, out of the shell; the outside row in
    # the dilation, in the shell
    E = Ellipsoid(np.zeros(k), np.eye(k))
    pts = np.zeros((4, k))
    pts[0, 0], pts[1, 0], pts[2, -1], pts[3, -1] = 1.0 - eps, 1.0 + eps, eps - 1.0, -1.0 - eps
    assert E.boundary_distance(pts).tolist() == [eps] * 4
    expect = [False, True, False, True]
    assert _BoundaryShell(E, eps).contains(pts).tolist() == expect
    assert (E.dilate(eps).contains(pts) & ~E.erode(eps).contains(pts)).tolist() == expect


def test_an_ellipsoid_shell_with_an_empty_erosion_is_the_dilation():
    E = Ellipsoid(np.array([0.3, -0.2]), np.diag([0.25, 1.0]))  # semi-axes 0.5 and 1
    outer, inner = _shell_bodies(E, 0.3, 0.0)
    assert gaussian_measure(inner) == 0.0
    assert shell_measure(E, 0.3) == gaussian_measure(outer) > 0.0


def _two_measure_shell_sets():
    yield "ball", Ball(np.zeros(2), 1.3)
    yield "ball-off-centre", Ball(np.array([0.4, -0.2, 0.1]), 0.9)
    for k in (2, 3, 4):
        yield f"box-{k}", Box(-np.ones(k), np.linspace(0.5, 1.5, k))
    yield "box-5", Box(-np.ones(5), np.linspace(0.5, 1.5, 5))


@pytest.mark.parametrize("t", (0.0, 0.3))
@pytest.mark.parametrize("eps", (0.05, 0.2))
@pytest.mark.parametrize("name, C", list(_two_measure_shell_sets()))
def test_shells_of_balls_and_boxes_keep_their_two_measure_values(name, C, eps, t):
    outer, inner = _shell_bodies(C, eps, t)
    if name.startswith("box"):  # above k = 4 the dilation's Phi is a QMC estimate
        assert type(outer) is DilatedBox and type(inner) is Box
        assert outer.has_closed_form == (name != "box-5")
    assert _shell_base(outer, inner) is None
    assert shell_measure(C, eps, math.exp(-t)) == _two_measure_shell(C, eps, t)


def test_an_ellipsoid_shell_asks_one_bracket_per_group_of_rows(monkeypatch):
    calls = {"bounds": [], "distance": []}
    bounds, exact = Ellipsoid.boundary_distance_bounds, Ellipsoid.boundary_distance
    monkeypatch.setattr(Ellipsoid, "boundary_distance_bounds",
                        lambda self, x: calls["bounds"].append(len(x)) or bounds(self, x))
    monkeypatch.setattr(Ellipsoid, "boundary_distance",
                        lambda self, x: calls["distance"].append(len(x)) or exact(self, x))

    def parallel_body_contains(self, x):
        raise AssertionError(f"the shell asked {type(self).__name__}.contains")

    monkeypatch.setattr(DilatedSet, "contains", parallel_body_contains)
    monkeypatch.setattr(ErodedSet, "contains", parallel_body_contains)
    E = Ellipsoid(np.array([0.3, -0.2]), np.array([[2.0, 0.9], [0.9, 0.8]]))
    assert 0.0 < omega_star_hat(E, 0.1, 0.3) < 1.0
    assert calls["bounds"] == [1 << 14] * 4  # one bracket per group of four replicates
    assert 1 <= len(calls["distance"]) <= 4


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
    E, box = Ellipsoid(np.zeros(2), np.diag([1.0, 2.0])), Box(-np.ones(2), np.ones(2))
    for parallel_body in (E.dilate(0.2), E.erode(0.2), box.dilate(0.2)):
        with pytest.raises(ConfigurationError):
            set_to_config(parallel_body)


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
        Box(-np.ones(k), np.ones(k)).dilate(0.25),
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


@pytest.mark.parametrize("k", range(1, 10))
def test_square_sum_equals_the_short_axis_sum(k):
    # the ball's lambda and |grad lambda|^2 sum squared columns in order up to
    # _COLUMN_SUM_MAX_DIM; that must round as np.sum over the last axis does
    gen = np.random.default_rng(70 + k)
    for shape in ((1, k), (842, k), (5, 97, k)):
        a = gen.standard_normal(shape) * gen.choice([1e-3, 1.0, 1e3], size=shape)
        assert np.array_equal(_square_sum(a), np.sum(a * a, axis=-1))


def test_ball_membership_of_a_far_finite_row_is_false():
    # the squared distance overflowed ("overflow encountered in square", an
    # error in this suite); its limit inf is outside every ball
    ball = Ball([0.0, 0.0], 1.0)
    assert ball.contains([[1e300, 0.0], [0.3, 0.2], [0.0, -1e200]]).tolist() == [False, True, False]
    assert not Ball([0.0, 0.0], 1e100).contains([1e300, 0.0])


def test_ball_shifted_measure_of_a_far_row_is_zero():
    # a row past 1e154 overflowed in the noncentrality; at 1e10 chndtr gave NaN
    ball = Ball([0.0, 0.0], 1.0)
    shifts = np.array([[1e300, 0.0], [1e10, 0.0], [0.0, -3e9], [0.3, 0.2]])
    got = ball.shifted_measure(shifts, 1.0)
    assert got[:3].tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(got[3:], ball.shifted_measure(shifts[3:], 1.0))
    assert np.array_equal(shifted_measure_batch(ball, shifts, 0.5)[:3], np.zeros(3))


@pytest.mark.parametrize("k", (1, 2, 3, 5))
def test_ncx2_cdf_is_zero_only_where_the_concentration_gap_proves_it(k):
    # chndtr is NaN once nc passes about 9.8e18; F = 0 there only where
    # sqrt(nc) - sqrt(q) - sqrt(k) > 38.62, and every other NaN stays
    nc = np.array([1e20, 1e300, math.inf, math.nan, -1.0])
    got = _ncx2_cdf(1.0, k, nc)
    assert got[:3].tolist() == [0.0, 0.0, 0.0]
    assert np.isnan(got[3:]).all()
    # at q = nc = 1e18 the CDF is near 1/2, not 0: chndtr's NaN stands
    got = _ncx2_cdf(1e18, k, np.array([1e18, 1e20]))
    assert np.isnan(got[0]) and got[1] == 0.0
    # finite values are chndtr's own, and equal to 0 wherever the gap holds
    finite = np.geomspace(1e2, 1e18, 400)
    vals = _ncx2_cdf(9.0, k, finite)
    assert np.isfinite(vals).all()
    assert (vals[np.sqrt(finite) - 3.0 - math.sqrt(k) > 38.62] == 0.0).all()


def test_family_counts_of_a_far_finite_row():
    # the ball group's centre distance overflowed, which the counting plan
    # did not ignore; the row counts as the infinite row it approaches
    fam = default_family(2)
    far = np.array([[1e300, 0.0], [0.0, -1e300]])
    infinite = np.array([[math.inf, 0.0], [0.0, -math.inf]])
    assert np.array_equal(fam.counts(far), _per_set_counts(fam, far))
    assert np.array_equal(fam.counts(far), fam.counts(infinite))
