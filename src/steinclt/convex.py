"""Convex body catalog: membership, dilation, erosion, Gaussian measure.

Four analytic variants (half-space, ball, axis box, ellipsoid) are closed
under translation and positive scaling.  Dilation/erosion stay in closed form
where possible (half-space, ball, eroded box); otherwise the result is a
predicate-backed set whose membership is decided by its base's distance to
the boundary, which is all the Monte Carlo machinery needs.  A predicate
base gives that distance (`boundary_distance`) and may give a cheaper
bracket of it (`boundary_distance_bounds`; an ellipsoid does, by scaling
about its centre): its parallel bodies settle every point whose bracket lies
clear of eps, only the points in a narrow band around eps pay for the exact
distance, and each decision equals the one the exact distance alone gives.

Sets are closed: boundary points count as inside.  A row with an infinite
entry may meet inf * 0 or inf - inf in a projection or rotation; membership
ignores numpy's invalid flag for it, once per call, and the row counts as a
NaN row does.

Each variant keeps its closed forms on its own class, in three hooks:
`shifted_measure`, the shifted measure P(s + sigma Z in C), whose value at
s = 0 and sigma = 1 is Phi(C); `smoothed_derivative`, the mixed partials of
x -> P(alpha x + w Z in C); and `smoothed_jet`, its gradient and Laplacian,
which the OU semigroup needs.  Half-spaces, balls (central and off-center)
and boxes give all three; a dilated box (`DilatedBox`) gives the shifted
measure.  The base class returns None from each, which sends the caller to a
scrambled-Sobol QMC estimate or to quadrature.  A serializable variant names
its config tag and constructor fields.

A ball's noncentral chi-square CDF is scipy.special's chndtr (chdtr at
noncentrality 0), equal bit for bit to scipy.stats.ncx2.cdf.  scipy.stats is
imported only by the QMC estimate, on its first call: importing it costs
more than a small CLI run.  The QMC estimate's Gaussian points depend only
on the dimension and the point count, so they are built once per process and
shared read-only (see `_qmc_membership_mean` for the memory bound).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce

import numpy as np
from scipy import special

from .errors import ConfigurationError, DimensionMismatchError, DomainError, check_count
from .gaussian import hermite_he, multiplicities, norm_cdf, norm_pdf
from .quadrature import gauss_legendre_panel
from .rng import RngStream

_UNIT_TOL = 1e-12
_TINY = np.finfo(float).tiny


def _as_points(x, dim: int):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError(
            f"points of dimension {pts.shape[-1] if pts.ndim else '?'} vs set of dimension {dim}"
        )
    return pts, single


def _ret(mask, single):
    return bool(mask[0]) if single else mask


class ConvexSet:
    """Base type: immutable by convention, membership vectorized.

    The closed-form hooks below (`shifted_measure`, `smoothed_derivative`,
    `smoothed_jet`) return None here, and a caller that gets None falls back
    to QMC or quadrature, one hook at a time.  A variant that overrides
    `shifted_measure` sets `has_closed_form`, and its Phi(C) is that hook at
    shift 0 and sigma 1; its derivative hooks may still return None.  The
    hooks assume a non-empty set: callers answer for the empty set first.
    A base of a predicate-backed parallel body gives `boundary_distance`, and
    may give a cheaper `boundary_distance_bounds`.
    """

    dim: int
    has_closed_form = False
    variant: str | None = None  # config tag; None means not serializable
    config_fields: tuple = ()  # constructor arguments, in order

    @property
    def is_empty(self) -> bool:
        return False

    def contains(self, x):
        raise NotImplementedError

    def membership_statistic(self):
        """(key, statistic, level) with x in C iff statistic(x) <= level, or None.

        Sets whose keys are equal compute the same statistic, so a family
        evaluates it once per sample for all of them (`SetFamily.counts`,
        which sorts it in place: statistic(x) must return a new array).
        """
        return None

    def shifted_measure(self, shifts, sigma: float):
        """P(shift + sigma*Z in C) for each row of shifts (M, k), or None."""
        return None

    def smoothed_derivative(self, alpha: float, w: float, X, idx):
        """D_idx [x -> P(alpha*x + w*Z in C)] for rows of X (M, k), or None."""
        return None

    def smoothed_jet(self, alpha: float, w: float, X):
        """Gradient (M, k) and Laplacian (M,) of x -> P(alpha*x + w*Z in C), or None."""
        return None

    def dilate(self, eps: float) -> "ConvexSet":
        raise NotImplementedError

    def erode(self, eps: float) -> "ConvexSet":
        raise NotImplementedError

    def translate(self, shift) -> "ConvexSet":
        raise NotImplementedError

    def scale(self, factor: float) -> "ConvexSet":
        """The set {factor * y : y in C}; DomainError unless factor is finite and > 0."""
        raise NotImplementedError

    def boundary_distance(self, x):
        """Euclidean distance from each row to the boundary of C, inside or outside."""
        raise NotImplementedError

    def boundary_distance_bounds(self, x):
        """(lower, upper) arrays with lower <= `boundary_distance` <= upper per row.

        Here both are the exact distance; a cheaper override is exact up to
        rounding, and NaN where a row cannot be bracketed.  `DilatedSet` and
        `ErodedSet` decide each row whose bracket lies clear of their eps from
        it and send only the rest to `boundary_distance`.
        """
        d = self.boundary_distance(x)
        return d, d


def _projection(normal, pts):
    # `dot` gives the values of `pts @ normal` bit for bit, in a sixth of its time at
    # k = 1; at k = 2 and 3 it takes about 3 us more per 16384 rows
    return pts.dot(normal)


# numpy's add.reduce sums a row of fewer than 8 entries left to right, as the
# column sum below does; longer rows go through its 8-way pairwise sum, which
# the column sum would not match bit for bit, so they keep the norm
_COLUMN_SUM_MAX_DIM = 7


def _center_distance(center, pts):
    if len(center) > _COLUMN_SUM_MAX_DIM:
        return np.linalg.norm(pts - center, axis=1)
    # the squared columns summed in order: the norm's values, without its short-axis reduction
    return np.sqrt(reduce(np.add, (np.square(pts[:, j] - c) for j, c in enumerate(center))))


def _max_abs(pts):
    # column by column, cheaper than a short-axis max; NaN propagates
    return reduce(np.maximum, (np.abs(column) for column in pts.T))


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not eps >= 0.0:
        raise DomainError("dilation/erosion radius must be >= 0")
    return eps


def _check_factor(factor: float) -> float:
    factor = float(factor)
    if not (math.isfinite(factor) and factor > 0.0):
        raise DomainError(f"scale factor must be finite and > 0, got {factor}")
    return factor


class HalfSpace(ConvexSet):
    """{x : normal . x <= offset} with a unit normal."""

    has_closed_form = True
    variant = "half_space"
    config_fields = ("normal", "offset")

    def __init__(self, normal, offset: float):
        normal = np.asarray(normal, dtype=float)
        if normal.ndim != 1 or normal.size < 1:
            raise DomainError("normal must be a vector")
        # written so that a NaN or infinite entry (a NaN or infinite norm) fails too
        if not abs(np.linalg.norm(normal) - 1.0) <= _UNIT_TOL:
            raise DomainError("half-space normal must have unit length")
        offset = float(offset)
        if not math.isfinite(offset):
            raise DomainError(f"half-space offset must be finite, got {offset}")
        self.normal = normal
        self.offset = offset
        self.dim = normal.size

    def membership_statistic(self):
        key = ("projection", self.normal.tobytes())
        return key, partial(_projection, self.normal), self.offset

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        with np.errstate(invalid="ignore"):  # an infinite row: see the module docstring
            return _ret(_projection(self.normal, pts) <= self.offset, single)

    def shifted_measure(self, shifts, sigma):
        return norm_cdf((self.offset - shifts @ self.normal) / sigma)

    def _smoothed_projection(self, alpha, w, X):
        return (self.offset - alpha * (X @ self.normal)) / w

    def smoothed_derivative(self, alpha, w, X, idx):
        u = self._smoothed_projection(alpha, w, X)
        m = len(idx)
        val = -((alpha / w) ** m) * hermite_he(m - 1, u) * norm_pdf(u)
        for i in idx:
            val = val * self.normal[i]
        return val

    def smoothed_jet(self, alpha, w, X):
        u = self._smoothed_projection(alpha, w, X)
        pdf = norm_pdf(u)
        grad = np.outer(-(alpha / w) * pdf, self.normal)
        lap = -((alpha / w) ** 2) * hermite_he(1, u) * pdf * float(self.normal @ self.normal)
        return grad, lap

    def dilate(self, eps):
        return HalfSpace(self.normal, self.offset + _check_eps(eps))

    def erode(self, eps):
        return HalfSpace(self.normal, self.offset - _check_eps(eps))

    def translate(self, shift):
        shift = np.asarray(shift, dtype=float)
        return HalfSpace(self.normal, self.offset + float(self.normal @ shift))

    def scale(self, factor):
        return HalfSpace(self.normal, self.offset * _check_factor(factor))

    def __repr__(self):
        return f"HalfSpace(normal={self.normal.tolist()}, offset={self.offset})"


# Up to z = sqrt(lambda q) = 4 the densities come from their power series,
# whose first omitted term (m = 16) is then below 1e-17 of the sum; there the
# Bessel recurrence would divide by a small lambda and cancel.  Switching at
# z = 2 instead costs more than a digit at k = 5.
_NCX2_SERIES_Z = 4.0
_NCX2_SERIES_TERMS = 16


def _ncx2_cdf(q: float, k: int, nc):
    """Noncentral chi-square CDF F_k(q; nc), bit for bit as scipy.stats.ncx2.cdf.

    Like scipy.stats it takes special.chndtr where nc != 0 and the central
    special.chdtr where nc == 0 (chndtr differs there in the last bits), and
    puts 1 at q = inf for every valid nc; calling scipy.special directly keeps
    the import of scipy.stats off the library's path.
    """
    nc = np.asarray(nc, dtype=float)
    if q == math.inf:
        return np.where(nc >= 0.0, 1.0, math.nan)
    with np.errstate(over="ignore"):
        out = np.asarray(special.chndtr(q, k, nc))
        central = nc == 0.0
        if central.any():
            out[central] = special.chdtr(k, q)
    return out


def _ncx2_densities(q: float, k: int, lam, count: int) -> np.ndarray:
    """Noncentral chi-square densities f_{k+2}, ..., f_{k+2*count} at q, shape (count, M).

    f_nu(q; lam) = 1/2 e^{-(q+lam)/2} (q/lam)^{nu/4-1/2} I_{nu/2-1}(sqrt(lam q))
    (Johnson, Kotz & Balakrishnan 1995, ch. 29).  For z = sqrt(lam q) above
    the switch, the recurrence lam f_{nu+2} = q f_{nu-2} - (nu-2) f_nu runs
    upward from f_1, f_3 (elementary, half-integer orders) for odd k, or from
    f_2, f_4 (scaled I_0, I_1) for even k.  Below it, including lam = 0,
    f_nu = 1/2 (q/2)^n e^{-(q+lam)/2} sum_m (lam q/4)^m / (m! Gamma(m+n+1))
    with n = nu/2 - 1, evaluated only on those rows.
    """
    z = np.sqrt(q * lam)
    out = np.empty((count, len(lam)))
    series = z <= _NCX2_SERIES_Z
    if series.any():
        ls = lam[series]
        n = k / 2.0 + np.arange(count)[:, None]
        x = ls * (q / 4.0)
        acc = np.ones((count, len(ls)))
        for m in range(_NCX2_SERIES_TERMS - 1, 0, -1):  # Horner
            acc *= x
            acc /= m * (m + n)
            acc += 1.0
        log_half_q = math.log(q / 2.0) if q > 0.0 else -math.inf
        lead = n * log_half_q - q / 2.0 - special.gammaln(n + 1.0)
        out[:, series] = 0.5 * np.exp(lead - ls / 2.0) * acc
    closed = ~series
    if closed.any():
        lc, zc = lam[closed], z[closed]
        r, rho = math.sqrt(q), np.sqrt(lc)
        if k % 2:
            # f_1, f_3 = (phi(r - rho) +- phi(r + rho)) / (2r, 2 rho)
            near, far = norm_pdf(r - rho), np.exp(-2.0 * zc)  # phi(r + rho) = near * far
            lo = near * (1.0 + far) / (2.0 * r)
            hi = near * (1.0 - far) / (2.0 * rho)
            nu = 3
        else:
            half_kernel = 0.5 * np.exp(-0.5 * (r - rho) ** 2)
            lo = half_kernel * special.i0e(zc)
            hi = half_kernel * (r / rho) * special.i1e(zc)
            nu = 4
        dens = []  # hi is f_nu, lo is f_{nu-2}
        while nu < k + 2 * count:
            if nu >= k + 2:
                dens.append(hi)
            lo, hi, nu = hi, (q * lo - (nu - 2) * hi) / lc, nu + 2
        dens.append(hi)
        out[:, closed] = dens
    return out


class Ball(ConvexSet):
    """{x : |x - center| <= radius}; a negative radius denotes the empty set."""

    has_closed_form = True
    variant = "ball"
    config_fields = ("center", "radius")

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1:
            raise DomainError("center must be a vector")
        radius = float(radius)
        if not (np.isfinite(center).all() and math.isfinite(radius)):
            raise DomainError(f"ball center and radius must be finite, got {center}, {radius}")
        self.center = center
        self.radius = radius
        self.dim = center.size

    @property
    def is_empty(self):
        return self.radius < 0.0

    def membership_statistic(self):
        key = ("center_distance", self.center.tobytes())
        return key, partial(_center_distance, self.center), self.radius

    def contains(self, x):
        # an empty ball has a negative radius, which no distance is below
        pts, single = _as_points(x, self.dim)
        return _ret(_center_distance(self.center, pts) <= self.radius, single)

    def shifted_measure(self, shifts, sigma):
        delta = shifts - self.center
        nc = np.sum(delta * delta, axis=1) / sigma**2
        q = (self.radius / sigma) ** 2
        return _ncx2_cdf(q, self.dim, nc)

    def _lambda_derivatives(self, alpha, w, X, m):
        """dF, grad lambda and d2 for P(alpha x + w Z in C) = F_k(q; lambda(x)).

        With q = r^2/w^2 and lambda = |alpha x - c|^2 / w^2, dF lists
        d^j F_k / d lambda^j (M,) for j = 1..m, grad lambda is (M, k) and
        D_ij lambda = d2 * delta_ij.
        """
        mu = alpha * X - self.center
        w2 = w * w
        lam = np.sum(mu * mu, axis=1) / w2
        # d^j F_k / d lambda^j = -2^{1-j} Delta^{j-1} f_{k+2}, Delta the forward
        # difference in the degrees of freedom
        f = _ncx2_densities(self.radius**2 / w2, self.dim, lam, m)
        dF = [-np.diff(f[:j], j - 1, axis=0)[0] / 2.0 ** (j - 1) for j in range(1, m + 1)]
        return dF, 2.0 * alpha * mu / w2, 2.0 * alpha * alpha / w2

    def smoothed_derivative(self, alpha, w, X, idx):
        m = len(idx)
        dF, dl, d2l = self._lambda_derivatives(alpha, w, X, m)
        if m == 1:
            (i,) = idx
            return dF[0] * dl[:, i]
        if m == 2:
            i, j = idx
            val = dF[1] * dl[:, i] * dl[:, j]
            if i == j:
                val = val + dF[0] * d2l
            return val
        i, j, l = idx
        val = dF[2] * dl[:, i] * dl[:, j] * dl[:, l]
        val = val + dF[1] * d2l * (
            (i == j) * dl[:, l] + (i == l) * dl[:, j] + (j == l) * dl[:, i]
        )
        return val

    def smoothed_jet(self, alpha, w, X):
        # grad F(lambda) = F' grad lambda;  Laplacian = F'' |grad lambda|^2 + F' k d2
        (dF1, dF2), dl, d2l = self._lambda_derivatives(alpha, w, X, 2)
        grad = dF1[:, None] * dl
        lap = dF2 * np.sum(dl * dl, axis=1) + dF1 * (self.dim * d2l)
        return grad, lap

    def dilate(self, eps):
        eps = _check_eps(eps)
        return self if self.is_empty else Ball(self.center, self.radius + eps)

    def erode(self, eps):
        return Ball(self.center, max(self.radius - _check_eps(eps), -1.0))

    def translate(self, shift):
        return Ball(self.center + np.asarray(shift, dtype=float), self.radius)

    def scale(self, factor):
        factor = _check_factor(factor)
        return Ball(self.center * factor, self.radius * factor)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


def _box_factor(m, alpha, w, hi, lo):
    """Order-m (m >= 1) derivative of Phi(hi) - Phi(lo) along one coordinate."""
    fac = hermite_he(m - 1, hi) * norm_pdf(hi) - hermite_he(m - 1, lo) * norm_pdf(lo)
    return -((alpha / w) ** m) * fac


class Box(ConvexSet):
    """Axis-aligned box [lower, upper]; empty if any side is inverted.

    Infinite bounds are allowed (slabs and orthants); NaN bounds are not.
    """

    has_closed_form = True
    variant = "box"
    config_fields = ("lower", "upper")

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DomainError("box corners must be vectors of equal length")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise DomainError(f"box corners must not be NaN, got {lower}, {upper}")
        self.lower = lower
        self.upper = upper
        self.dim = lower.size

    @property
    def is_empty(self):
        return bool(np.any(self.lower > self.upper))

    def membership_statistic(self):
        """max |x_j| <= a for a centred cube [-a, a]^k (empty if a < 0); None for other boxes."""
        upper = self.upper
        if not (self.dim and np.all(upper == upper[0]) and np.all(self.lower == -upper)):
            return None
        return ("max_abs",), _max_abs, float(upper[0])

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        if self.is_empty:
            return _ret(np.zeros(len(pts), dtype=bool), single)
        # per-column comparisons, cheaper than reducing an (M, k) temporary
        inside = np.ones(len(pts), dtype=bool)
        for j in range(self.dim):
            inside &= pts[:, j] >= self.lower[j]
            inside &= pts[:, j] <= self.upper[j]
        return _ret(inside, single)

    def shifted_measure(self, shifts, sigma):
        hi = (self.upper - shifts) / sigma
        lo = (self.lower - shifts) / sigma
        return np.prod(norm_cdf(hi) - norm_cdf(lo), axis=1)

    def _edges(self, alpha, w, X):
        return (self.upper - alpha * X) / w, (self.lower - alpha * X) / w

    def smoothed_derivative(self, alpha, w, X, idx):
        mult = multiplicities(idx, self.dim)
        hi, lo = self._edges(alpha, w, X)
        plain = norm_cdf(hi) - norm_cdf(lo)
        val = np.ones(len(X))
        for j in range(self.dim):
            m = mult.get(j, 0)
            if m == 0:
                val = val * plain[:, j]
            else:
                val = val * _box_factor(m, alpha, w, hi[:, j], lo[:, j])
        return val

    def smoothed_jet(self, alpha, w, X):
        # product rule: coordinate i takes its derivative factor, the others plain
        hi, lo = self._edges(alpha, w, X)
        plain = norm_cdf(hi) - norm_cdf(lo)
        first = _box_factor(1, alpha, w, hi, lo)
        second = _box_factor(2, alpha, w, hi, lo)
        grad = np.empty_like(plain)
        lap = np.zeros(len(X))
        for i in range(self.dim):
            others = np.prod(np.delete(plain, i, axis=1), axis=1)
            grad[:, i] = first[:, i] * others
            lap += second[:, i] * others
        return grad, lap

    def dilate(self, eps):
        eps = _check_eps(eps)
        if eps == 0.0:
            return self
        return DilatedBox(self, eps) if self.dim <= _DILATED_BOX_MAX_DIM else DilatedSet(self, eps)

    def erode(self, eps):
        eps = _check_eps(eps)
        return Box(self.lower + eps, self.upper - eps)

    def translate(self, shift):
        shift = np.asarray(shift, dtype=float)
        return Box(self.lower + shift, self.upper + shift)

    def scale(self, factor):
        factor = _check_factor(factor)
        return Box(self.lower * factor, self.upper * factor)

    def boundary_distance(self, x):
        """Norm of the coordinate excess outside; distance to the nearest face inside."""
        pts, single = _as_points(x, self.dim)
        if self.is_empty:  # no point is within any distance of the empty set
            d = np.full(len(pts), math.inf)
        else:
            beyond = np.maximum(self.lower - pts, pts - self.upper)  # > 0 on outside coordinates
            # the largest coordinate decides the side (a tiny excess has a norm that
            # underflows to 0); column by column is cheaper than a short-axis max
            worst = reduce(np.maximum, beyond.T)
            d = np.where(worst > 0.0, np.linalg.norm(np.maximum(beyond, 0.0), axis=1), -worst)
        return float(d[0]) if single else d

    def __repr__(self):
        return f"Box(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


class Ellipsoid(ConvexSet):
    """{x : (x-c)^T M^{-1} (x-c) <= 1} with M symmetric positive definite."""

    variant = "ellipsoid"
    config_fields = ("center", "shape")

    def __init__(self, center, shape):
        center = np.asarray(center, dtype=float)
        shape = np.asarray(shape, dtype=float)
        if center.ndim != 1 or shape.shape != (center.size, center.size):
            raise DomainError("need a center vector and a matching shape matrix")
        if not (np.isfinite(center).all() and np.isfinite(shape).all()):
            raise DomainError(f"ellipsoid center and shape must be finite, got {center}, {shape}")
        if not np.allclose(shape, shape.T, atol=1e-10):
            raise DomainError("shape matrix must be symmetric")
        evals, evecs = np.linalg.eigh(0.5 * (shape + shape.T))
        if np.min(evals) <= 0.0:
            raise DomainError("shape matrix must be positive definite")
        self.center = center
        self.shape = shape
        self.dim = center.size
        self._evals = evals  # squared semi-axes
        self._evecs = evecs

    def _rotated(self, pts):
        return (pts - self.center) @ self._evecs

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        with np.errstate(invalid="ignore"):  # an infinite row: see the module docstring
            q = np.sum(np.square(self._rotated(pts)) / self._evals, axis=1)
        return _ret(q <= 1.0, single)

    def boundary_distance(self, x):
        """Euclidean distance to the boundary shell, inside or outside.

        In principal axes the nearest boundary point is w_i = lam_i v_i /
        (lam_i + mu), where mu > -lam_min solves the projection secular
        equation |p(mu)| = 1 with p_i = sqrt(lam_i) v_i / (lam_i + mu).  The
        root is found in t = mu + lam_min, so lam_i + mu = (lam_i - lam_min) + t
        does not cancel near the pole, by Newton's method on
        psi(t) = 1/|p(t)| - 1 (More & Sorensen 1983, "Computing a trust region
        step").  psi is increasing and concave, so iterates started left of the
        root, at t0 = max(0, max_i sqrt(lam_i)|v_i| - (lam_i - lam_min)), rise
        monotonically to it; a row stops when a step no longer increases t.
        If the root would lie at t <= 0 (every lam_min coordinate of v is 0
        and |p(0)| <= 1), then mu = -lam_min and the nearest point takes up
        the remaining length along a lam_min axis.
        """
        pts, single = _as_points(x, self.dim)
        v = self._rotated(pts)
        lam = self._evals
        lam_min = float(np.min(lam))
        gap = lam - lam_min
        g = np.sqrt(lam) * v
        t = np.maximum(np.max(np.abs(g) - gap, axis=1), 0.0)
        rows, t_rows, g_rows = np.arange(len(t)), t, g
        while rows.size:
            # t = 0 only where g vanishes on every axis with gap 0; the floor
            # keeps those terms at 0 rather than 0 * inf
            inv = 1.0 / np.maximum(gap + t_rows[:, None], _TINY)
            p2 = np.square(g_rows * inv)
            norm2 = p2.sum(axis=1)
            with np.errstate(invalid="ignore"):  # 0/0 at the centre: nan does not rise
                step = (np.sqrt(norm2) - 1.0) * norm2 / (p2 * inv).sum(axis=1)
            t_next = t_rows + step
            rising = t_next > t_rows
            rows, t_rows, g_rows = rows[rising], t_next[rising], g_rows[rising]
            t[rows] = t_rows
        inv = 1.0 / np.maximum(gap + t[:, None], _TINY)
        d2 = np.square(t - lam_min) * np.sum(np.square(v * inv), axis=1)
        # t = 0 means mu = -lam_min: fill one lam_min axis up to the boundary
        hard = t == 0.0
        d2[hard] += lam_min * (1.0 - np.sum(np.square(g[hard] * inv[hard]), axis=1))
        d = np.sqrt(d2)
        return float(d[0]) if single else d

    def boundary_distance_bounds(self, x):
        """Scaling bounds on `boundary_distance`, exact for a sphere.

        With v = R^T (x - c), q = sum v_i^2 / lam_i and r = sqrt(q), x lies on
        the boundary of the copy of E scaled by r about its centre.  The ball
        of radius sqrt(lam_min) about c lies in E, so for r > 1 every point
        within (r - 1) sqrt(lam_min) of E lies in that copy, and for r < 1 the
        ball of radius (1 - r) sqrt(lam_min) about x lies in E: either way
        d >= |r - 1| sqrt(lam_min).  The boundary point c + R v / r gives
        d <= |v| |1 - 1/r|.  Outside, convexity of v -> v^T Lam^{-1} v gives
        d >= (q - 1) / (2 |Lam^{-1} v|) as well, which is near-exact on the
        long axes.  At the centre the upper bound is NaN, and both are NaN on
        a NaN row.
        """
        pts, _ = _as_points(x, self.dim)
        lam = self._evals
        # q, |v|^2 and |Lam^{-1} v|^2 in one product: reducing (M, k) arrays
        # along their short axis costs several times more
        weights = np.stack([1.0 / lam, np.ones_like(lam), lam**-2.0], axis=1)
        q, norm2_v, norm2_w = (np.square(self._rotated(pts)) @ weights).T
        r = np.sqrt(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.sqrt(norm2_v) * np.abs(1.0 - 1.0 / r)
            first_order = (q - 1.0) / (2.0 * np.sqrt(norm2_w))
        lower = np.maximum(np.abs(r - 1.0) * math.sqrt(np.min(lam)), first_order)
        return lower, upper

    def dilate(self, eps):
        eps = _check_eps(eps)
        return self if eps == 0.0 else DilatedSet(self, eps)

    def erode(self, eps):
        eps = _check_eps(eps)
        return self if eps == 0.0 else ErodedSet(self, eps)

    def translate(self, shift):
        return Ellipsoid(self.center + np.asarray(shift, dtype=float), self.shape)

    def scale(self, factor):
        factor = _check_factor(factor)
        return Ellipsoid(self.center * factor, self.shape * factor**2)

    def __repr__(self):
        return f"Ellipsoid(center={self.center.tolist()}, shape={self.shape.tolist()})"


# A parallel body settles a row from its base's distance bracket only when the
# bracket clears [eps (1 - _BAND), eps (1 + _BAND)].  The bracket and the
# exact (Newton) distance each carry rounding of a few ulps of the set's size,
# so wherever eps exceeds about 1e-6 of that size (every shell width the
# library uses) the band is wider than their disagreement: a settled row gets
# the decision the exact distance gives, and a row in the band gets the exact
# distance itself.
_BAND = 1e-9


def _settled(bounds, eps):
    """Rows whose boundary distance is surely below eps, and surely above it."""
    lower, upper = bounds
    return upper < eps * (1.0 - _BAND), lower > eps * (1.0 + _BAND)


class DilatedSet(ConvexSet):
    """Predicate-backed outer parallel body {x : dist(x, base) <= eps}.

    Points outside the base whose distance bracket lies near eps take the exact distance.

    Every operation builds its result with `base.dilate`, so a base whose
    dilation has closed forms (a box's `DilatedBox`) keeps them.
    """

    def __init__(self, base: ConvexSet, eps: float):
        self.base = base
        self.eps = _check_eps(eps)
        self.dim = base.dim

    @property
    def is_empty(self):
        return self.base.is_empty

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        with np.errstate(invalid="ignore"):  # an infinite row: see the module docstring
            near, far = _settled(self.base.boundary_distance_bounds(pts), self.eps)
            ok = np.asarray(self.base.contains(pts)) | near
            band = ~(ok | far)
            if band.any():
                ok[band] = self.base.boundary_distance(pts[band]) <= self.eps
        return _ret(ok, single)

    def dilate(self, eps):
        return self.base.dilate(self.eps + _check_eps(eps))

    def erode(self, eps):
        eps = _check_eps(eps)
        # (C^a)^{-b} = C^{a-b} for convex C, in either direction of a-b
        if eps <= self.eps:
            return self.base.dilate(self.eps - eps)
        return self.base.erode(eps - self.eps)

    def translate(self, shift):
        return self.base.translate(shift).dilate(self.eps)

    def scale(self, factor):
        factor = _check_factor(factor)
        return self.base.scale(factor).dilate(self.eps * factor)

    def __repr__(self):
        return f"{type(self).__name__}({self.base!r}, eps={self.eps})"


# The sector integrals of `_dilated_box_mass` use one Gauss-Legendre rule in
# theta on [0, pi/2]; a mass at dimension k evaluates Phi at 2 * 25^(k-1)
# points.  For one set on a 2-vCPU Xeon that takes 0.4 ms at k = 4 against
# 12 ms for QMC at 2^16 points, 21 ms at k = 5 (QMC 22 ms) and 0.57 s at
# k = 6 (QMC 34 ms), so dilated boxes above k = 4 stay predicate-backed.
_SECTOR_NODES = 24
_SECTOR_THETA, _SECTOR_WEIGHTS = gauss_legendre_panel(0.0, 0.5 * math.pi, _SECTOR_NODES)
_SECTOR_COS = np.cos(_SECTOR_THETA)
_SECTOR_SIN = np.sin(_SECTOR_THETA)
_SECTOR_COS_WEIGHTS = _SECTOR_WEIGHTS * _SECTOR_COS
_DILATED_BOX_MAX_DIM = 4
# rows per chunk keep each (rows, 25^(k-1)) radius array near 2^18 entries
_SECTOR_CHUNK = 1 << 18


def _dilated_box_mass(lo, hi, rho):
    """G_k(rho): standard Gaussian mass of [lo, hi] dilated by rho, per row.

    lo, hi are (M, k) bounds and rho (M, R) radii; returns (M, R).  A point
    lies in the dilation when the distances d_j of its coordinates outside
    [lo_j, hi_j] have sum_j d_j^2 <= rho^2.  Splitting off the last
    coordinate and writing its distance as d = rho sin(theta) leaves the
    others the radius rho cos(theta) (Steiner's decomposition by the
    coordinates outside the box; Schneider, "Convex Bodies: The
    Brunn-Minkowski Theory", 2014, sec. 4.2):
        G_1(rho) = Phi(hi_1 + rho) - Phi(lo_1 - rho),
        G_j(rho) = p_j G_{j-1}(rho) + rho int_0^{pi/2} [phi(lo_j - rho sin)
                   + phi(hi_j + rho sin)] G_{j-1}(rho cos) cos dtheta,
    with p_j = Phi(hi_j) - Phi(lo_j).  The integrand is smooth in theta, so
    the fixed Gauss-Legendre rule converges geometrically: against adaptive
    quadrature at k = 2 the error is about 1e-14 up to rho = 6, 1e-10 at
    rho = 10 and 1e-4 at rho = 20, where phi(lo_j - rho sin) narrows to a
    spike the 24 nodes no longer resolve.
    """
    j = lo.shape[1] - 1
    l, u = lo[:, j, None], hi[:, j, None]
    if j == 0:
        return norm_cdf(u + rho) - norm_cdf(l - rho)
    rows, count = rho.shape
    radii = np.concatenate([rho, (rho[:, :, None] * _SECTOR_COS).reshape(rows, -1)], axis=1)
    inner = _dilated_box_mass(lo[:, :j], hi[:, :j], radii)
    at_rho, at_cos = inner[:, :count], inner[:, count:].reshape(rows, count, _SECTOR_NODES)
    d = rho[:, :, None] * _SECTOR_SIN
    edge = norm_pdf(l[:, :, None] - d) + norm_pdf(u[:, :, None] + d)
    return (norm_cdf(u) - norm_cdf(l)) * at_rho + rho * ((edge * at_cos) @ _SECTOR_COS_WEIGHTS)


class DilatedBox(DilatedSet):
    """Outer parallel body of a non-empty box, k <= 4, with closed-form measures.

    Membership stays the distance predicate of `DilatedSet`; Phi(C) and the
    shifted measure come from `_dilated_box_mass`.  Its derivatives have no
    closed form here, so the OU semigroup takes them by quadrature.
    """

    has_closed_form = True

    def shifted_measure(self, shifts, sigma):
        lo = (self.base.lower - shifts) / sigma
        hi = (self.base.upper - shifts) / sigma
        rho = np.full((len(shifts), 1), self.eps / sigma)
        step = max(_SECTOR_CHUNK // (_SECTOR_NODES + 1) ** (self.dim - 1), 1)
        return np.concatenate([
            _dilated_box_mass(lo[i : i + step], hi[i : i + step], rho[i : i + step])[:, 0]
            for i in range(0, len(shifts), step)
        ])


class ErodedSet(ConvexSet):
    """Inner parallel body: points whose eps-ball is contained in base.

    Points inside the base whose distance bracket lies near eps take the exact distance.
    """

    def __init__(self, base: ConvexSet, eps: float):
        self.base = base
        self.eps = _check_eps(eps)
        self.dim = base.dim

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        with np.errstate(invalid="ignore"):  # an infinite row: see the module docstring
            ok = np.asarray(self.base.contains(pts))
            rows = pts[ok]
            near, keep = _settled(self.base.boundary_distance_bounds(rows), self.eps)
            band = ~(keep | near)
            if band.any():
                keep[band] = self.base.boundary_distance(rows[band]) >= self.eps
        ok[ok] = keep
        return _ret(ok, single)

    def erode(self, eps):
        return ErodedSet(self.base, self.eps + _check_eps(eps))

    def dilate(self, eps):
        eps = _check_eps(eps)
        if eps <= self.eps:
            # exact for smooth bodies with boundary curvature radius >= eps
            return ErodedSet(self.base, self.eps - eps) if eps < self.eps else self.base
        raise ConfigurationError("dilating an eroded set past its base is unsupported")

    def translate(self, shift):
        return ErodedSet(self.base.translate(shift), self.eps)

    def scale(self, factor):
        factor = _check_factor(factor)
        return ErodedSet(self.base.scale(factor), self.eps * factor)

    def __repr__(self):
        return f"ErodedSet({self.base!r}, eps={self.eps})"


# ---------------------------------------------------------------------------
# Gaussian measures


_QMC_REPLICATES = 16
_QMC_CACHED_POINTS = 1 << 16  # the default request; larger ones are built per call


def _sobol_normal_replicate(dim: int, per: int, r: int) -> np.ndarray:
    """Replicate r: `per` scrambled-Sobol points (engine seeded r) mapped through ndtri."""
    from scipy.stats import qmc  # deferred: scipy.stats costs more to import than most runs

    u = qmc.Sobol(d=dim, scramble=True, seed=r).random(per)
    return special.ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))


@lru_cache(maxsize=4)
def _sobol_normal_replicates(dim: int, per: int) -> np.ndarray:
    """All replicates as one read-only (replicates, per, dim) array, built once per process."""
    pts = np.stack([_sobol_normal_replicate(dim, per, r) for r in range(_QMC_REPLICATES)])
    pts.flags.writeable = False
    return pts


def _qmc_membership_mean(C: ConvexSet, n_points: int):
    """Scrambled-Sobol estimate of P(Z in C) with a replicate-based st. error.

    The 16 Gaussian replicates depend only on (dimension, points per
    replicate), so a request of at most 2^16 points reads them from a
    process-wide cache shared read-only by every set: at most four entries
    of at most 2^16 * dim doubles, 0.5 MiB per dimension each (1 MiB at
    k = 2).  A larger request builds its replicates one at a time and
    keeps none.
    """
    per = max(n_points // _QMC_REPLICATES, 256)
    if _QMC_REPLICATES * per <= _QMC_CACHED_POINTS:
        replicates = _sobol_normal_replicates(C.dim, per)
    else:
        replicates = (_sobol_normal_replicate(C.dim, per, r) for r in range(_QMC_REPLICATES))
    vals = np.array([np.mean(C.contains(pts)) for pts in replicates])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(_QMC_REPLICATES))


def gaussian_measure_estimate(C: ConvexSet, n_points: int = 1 << 16) -> tuple[float, float]:
    """(Phi(C), standard error); the error is 0 for analytic variants.

    A set without a closed form is measured by scrambled-Sobol QMC on
    16 * max(n_points // 16, 256) points: 2^16 by default, and never fewer
    than 4096.  n_points must be an integer >= 1 (DomainError otherwise).
    When n_points // 16 is not a power of two, scipy warns that the Sobol
    balance properties need one (a UserWarning); since the points are
    cached, that happens once per dimension and point count, not per call.
    """
    n_points = check_count("n_points", n_points, 1)
    if C.is_empty:
        return 0.0, 0.0
    if C.has_closed_form:  # Phi(C) is the shifted measure at shift 0, sigma 1
        return float(C.shifted_measure(np.zeros((1, C.dim)), 1.0)[0]), 0.0
    return _qmc_membership_mean(C, n_points)


def gaussian_measure(C: ConvexSet, n_points: int = 1 << 16) -> float:
    """Phi(C) for the standard Gaussian; QMC fallback for non-analytic sets.

    n_points is checked and used as in `gaussian_measure_estimate`.
    """
    return gaussian_measure_estimate(C, n_points=n_points)[0]


def shifted_measure_batch(C: ConvexSet, shifts, sigma: float):
    """P(shift + sigma*Z in C) for each row of `shifts`, or None.

    Closed form for half-spaces, balls and boxes (the smoothing kernel of the
    whole library, from `ConvexSet.shifted_measure`); None signals the caller
    to fall back to quadrature/MC.
    """
    sigma = float(sigma)
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if C.is_empty:
        return np.zeros(len(shifts))
    return C.shifted_measure(shifts, sigma)


def shell_measure(C: ConvexSet, eps: float, scale: float = 1.0) -> float:
    """P(scale*Z in boundary shell of width 2*eps around the boundary of C).

    Evaluated as Phi((C^{2eps})/scale) - Phi((C^{-2eps})/scale).
    """
    inv = 1.0 / _check_factor(scale)
    eps = float(eps)
    if not eps >= 0.0:
        raise DomainError("eps must be >= 0")
    if eps == 0.0:
        return 0.0
    outer = gaussian_measure(C.dilate(2.0 * eps).scale(inv))
    inner = gaussian_measure(C.erode(2.0 * eps).scale(inv))
    return max(outer - inner, 0.0)


# ---------------------------------------------------------------------------
# Set families


@dataclass(frozen=True)
class SetFamily:
    """Finite family of same-dimension sets approximating the convex-set sup."""

    sets: tuple
    description: str = ""

    def __post_init__(self):
        if len(self.sets) == 0:
            raise DomainError("a set family cannot be empty")
        dims = {s.dim for s in self.sets}
        if len(dims) != 1:
            raise DimensionMismatchError("family members must share a dimension")

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    def __len__(self):
        return len(self.sets)

    @cached_property
    def _plan(self):
        """Sets grouped by shared membership statistic; and the other sets.

        Each group is (statistic, levels, targets): the level of every set in
        the group, repeats included, and the sets' indices in the same order,
        both read-only.
        """
        groups: dict = {}
        others = []
        for i, C in enumerate(self.sets):
            test = C.membership_statistic()
            if test is None:
                others.append(i)
                continue
            key, statistic, level = test
            _, levels, targets = groups.setdefault(key, (statistic, [], []))
            levels.append(level)
            targets.append(i)
        plan = []
        for statistic, levels, targets in groups.values():
            levels, targets = np.array(levels), np.array(targets)
            levels.flags.writeable = targets.flags.writeable = False
            plan.append((statistic, levels, targets))
        return tuple(plan), tuple(others)

    @cached_property
    def measures(self) -> np.ndarray:
        """Phi(C) for every set, in order; computed once per family and read-only."""
        out = np.array([gaussian_measure(C) for C in self.sets])
        out.flags.writeable = False
        return out

    def counts(self, x) -> np.ndarray:
        """Number of points of x inside each set, as int64.

        Equal to `count_nonzero(C.contains(x))` for every set C, but sets
        sharing a membership statistic (half-spaces with one normal, balls
        with one centre, centred cubes) sort its values once, and each set's
        count is the number of sorted values at or below its level.  NaN sorts
        last and is below no level, as it fails every comparison.
        """
        pts, _ = _as_points(x, self.dim)
        groups, others = self._plan
        out = np.empty(len(self.sets), dtype=np.int64)
        with np.errstate(invalid="ignore"):  # an infinite row: see the module docstring
            for statistic, levels, targets in groups:
                values = statistic(pts)
                values.sort()  # in place: a statistic returns a new array
                out[targets] = values.searchsorted(levels, side="right")
        for i in others:
            out[i] = np.count_nonzero(self.sets[i].contains(pts))
        return out


@lru_cache(maxsize=32)
def default_family(
    k: int,
    n_directions: int = 32,
    n_offsets: int = 17,
    n_radii: int = 17,
    n_box_sizes: int = 9,
    seed: int = 0,
) -> SetFamily:
    """Half-spaces in random directions, centered balls, centered cubes.

    This finite family lower-bounds the supremum over all Borel convex sets;
    half-spaces and balls are the extremal shapes in the classical analyses.
    Cached by its arguments: repeated calls share one family and its
    membership plan.
    """
    gen = RngStream(seed, stream_id=101).generator()
    sets: list[ConvexSet] = []
    offsets = np.linspace(-3.2, 3.2, n_offsets)
    for _ in range(n_directions):
        d = gen.standard_normal(k)
        d /= np.linalg.norm(d)
        for b in offsets:
            sets.append(HalfSpace(d, float(b)))
    # ball radii at even chi-mass spacing so every radius is informative
    probs = np.linspace(0.02, 0.98, n_radii)
    radii = np.sqrt(2.0 * special.gammaincinv(0.5 * k, probs))
    for r in radii:
        sets.append(Ball(np.zeros(k), float(r)))
    for a in np.linspace(0.3, 2.7, n_box_sizes):
        sets.append(Box(-a * np.ones(k), a * np.ones(k)))
    return SetFamily(
        sets=tuple(sets),
        description=f"default(k={k} dirs={n_directions} offs={n_offsets} seed={seed})",
    )


def default_translates(k: int) -> np.ndarray:
    """Translation grid for sup-over-translates: 0 and radii 0.5, 1.5 in 6 seeded directions."""
    gen = RngStream(0, stream_id=202).generator()
    rows = [np.zeros(k)]
    for _ in range(6):
        d = gen.standard_normal(k)
        d /= np.linalg.norm(d)
        rows.append(0.5 * d)
        rows.append(1.5 * d)
    return np.array(rows)


# --- serialization ----------------------------------------------------------


_VARIANTS = {cls.variant: cls for cls in (HalfSpace, Ball, Box, Ellipsoid)}


def set_to_config(C: ConvexSet) -> dict:
    if C.variant is None:
        raise ConfigurationError(f"cannot serialize set of type {type(C).__name__}")
    cfg = {"variant": C.variant}
    for name in C.config_fields:
        cfg[name] = np.asarray(getattr(C, name)).tolist()
    return cfg


def set_from_config(cfg: dict) -> ConvexSet:
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"a set config must be a JSON object, got {cfg!r}")
    variant = cfg.get("variant")
    cls = _VARIANTS.get(variant)
    if cls is None:
        raise ConfigurationError(f"unknown set variant {variant!r}")
    missing = [name for name in cls.config_fields if name not in cfg]
    if missing:
        raise ConfigurationError(f"{variant} set config is missing {', '.join(missing)}")
    try:
        return cls(*(cfg[name] for name in cls.config_fields))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad {variant} set config: {exc}") from None


def family_to_config(fam: SetFamily) -> dict:
    return {
        "description": fam.description,
        "sets": [set_to_config(s) for s in fam.sets],
    }


def family_from_config(cfg: dict) -> SetFamily:
    """Build a family from an explicit set list or a default-builder spec."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("a family config must be a JSON object")
    if "builder" in cfg:
        if cfg["builder"] != "default":
            raise ConfigurationError(f"unknown family builder {cfg['builder']!r}")
        try:
            kw = {
                key: int(cfg[key])
                for key in ("k", "n_directions", "n_offsets", "n_radii", "n_box_sizes", "seed")
                if key in cfg
            }
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad family builder spec: {exc}") from None
        if "k" not in kw:
            raise ConfigurationError("family builder spec needs the dimension k")
        return default_family(**kw)
    if not isinstance(cfg.get("sets"), list):
        raise ConfigurationError("family config needs a 'sets' list or a 'builder' spec")
    sets = tuple(set_from_config(c) for c in cfg["sets"])
    return SetFamily(sets=sets, description=cfg.get("description", ""))


def save_family(fam: SetFamily, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_config(fam), fh, indent=1, sort_keys=True)


def load_family(path: str) -> SetFamily:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"family file {path}: {exc}") from None
    return family_from_config(cfg)
