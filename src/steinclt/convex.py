"""Convex body catalog: membership, dilation, erosion, Gaussian measure.

Four analytic variants (half-space, ball, axis box, ellipsoid) are closed
under translation and positive scaling.  Dilation/erosion stay in closed form
where possible (half-space, ball, eroded box); otherwise the result is a
predicate-backed set whose membership is decided by exact or iterative
distance computations, which is all the Monte Carlo machinery needs.

Sets are closed: boundary points count as inside.  Each variant keeps its
closed forms on its own class: half-spaces, balls (central and off-center)
and boxes give Phi(C), the shifted measure P(s + sigma Z in C), and the
mixed partials and gradient/Laplacian jet of x -> P(alpha x + w Z in C)
that the OU semigroup needs.  The base class returns None for each, which
sends the caller to a scrambled-Sobol QMC estimate or to quadrature.  A
serializable variant names its config tag and constructor fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from scipy import special, stats
from scipy.stats import qmc

from .errors import ConfigurationError, DimensionMismatchError, DomainError
from .gaussian import chi_cdf, hermite_he, multiplicities, norm_cdf, norm_pdf
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

    The closed-form hooks below return None here; a variant that overrides
    them sets `has_closed_form`.  They assume a non-empty set: callers
    answer for the empty set first.
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
        evaluates it once per sample for all of them (`SetFamily.counts`).
        """
        return None

    def closed_form_measure(self) -> float | None:
        """Phi(C) for the standard Gaussian, or None."""
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
        """The set {factor * y : y in C}, factor > 0."""
        raise NotImplementedError

    # distance hooks used by the predicate-backed dilation/erosion
    def distance_outside(self, x):
        """dist(x, C) for each point (0 inside)."""
        raise NotImplementedError

    def distance_inside(self, x):
        """dist(x, boundary) for points inside C (<= 0 outside)."""
        raise NotImplementedError


def _projection(normal, pts):
    return pts @ normal


def _center_distance(center, pts):
    return np.linalg.norm(pts - center, axis=1)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if eps < 0.0:
        raise DomainError("dilation/erosion radius must be >= 0")
    return eps


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
        return _ret(_projection(self.normal, pts) <= self.offset, single)

    def closed_form_measure(self):
        return float(norm_cdf(self.offset))

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
        return HalfSpace(self.normal, self.offset * float(factor))

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        d = np.maximum(pts @ self.normal - self.offset, 0.0)
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        d = self.offset - pts @ self.normal
        return float(d[0]) if single else d

    def __repr__(self):
        return f"HalfSpace(normal={self.normal.tolist()}, offset={self.offset})"


# Up to z = sqrt(lambda q) = 4 the densities come from their power series,
# whose first omitted term (m = 16) is then below 1e-17 of the sum; there the
# Bessel recurrence would divide by a small lambda and cancel.  Switching at
# z = 2 instead costs more than a digit at k = 5.
_NCX2_SERIES_Z = 4.0
_NCX2_SERIES_TERMS = 16


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

    def closed_form_measure(self):
        nc = float(self.center @ self.center)
        if nc == 0.0:
            return float(chi_cdf(self.radius, self.dim))
        # off-center ball: exact noncentral chi-square CDF
        return float(stats.ncx2.cdf(self.radius**2, self.dim, nc))

    def shifted_measure(self, shifts, sigma):
        delta = shifts - self.center
        nc = np.sum(delta * delta, axis=1) / sigma**2
        q = (self.radius / sigma) ** 2
        return stats.ncx2.cdf(q, self.dim, nc)

    def _noncentrality(self, alpha, w, X):
        """q, lambda(x) and its derivatives for P(alpha x + w Z in C) = F_k(q; lambda(x)).

        Returns q = r^2/w^2, lambda = |alpha x - c|^2 / w^2 (M,), grad lambda
        (M, k), and the constant d2 with D_ij lambda = d2 * delta_ij.
        """
        mu = alpha * X - self.center
        w2 = w * w
        lam = np.sum(mu * mu, axis=1) / w2
        return self.radius**2 / w2, lam, 2.0 * alpha * mu / w2, 2.0 * alpha * alpha / w2

    def smoothed_derivative(self, alpha, w, X, idx):
        q, lam, dl, d2l = self._noncentrality(alpha, w, X)
        m = len(idx)
        # d^j F_k / d lambda^j = -2^{1-j} Delta^{j-1} f_{k+2}, Delta the forward
        # difference in the degrees of freedom
        f = _ncx2_densities(q, self.dim, lam, m)
        dF = [-np.diff(f[:j], j - 1, axis=0)[0] / 2.0 ** (j - 1) for j in range(1, m + 1)]
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
        q, lam, dl, d2l = self._noncentrality(alpha, w, X)
        f_k2, f_k4 = _ncx2_densities(q, self.dim, lam, 2)
        dF1, dF2 = -f_k2, 0.5 * (f_k2 - f_k4)
        grad = dF1[:, None] * dl
        lap = dF2 * np.sum(dl * dl, axis=1) + dF1 * (self.dim * d2l)
        return grad, lap

    def dilate(self, eps):
        return Ball(self.center, self.radius + _check_eps(eps))

    def erode(self, eps):
        return Ball(self.center, max(self.radius - _check_eps(eps), -1.0))

    def translate(self, shift):
        return Ball(self.center + np.asarray(shift, dtype=float), self.radius)

    def scale(self, factor):
        factor = float(factor)
        return Ball(self.center * factor, self.radius * factor)

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        d = np.maximum(np.linalg.norm(pts - self.center, axis=1) - self.radius, 0.0)
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        d = self.radius - np.linalg.norm(pts - self.center, axis=1)
        return float(d[0]) if single else d

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

    def closed_form_measure(self):
        mass = float(np.prod(norm_cdf(self.upper) - norm_cdf(self.lower)))
        return max(mass, 0.0)

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
        return self if eps == 0.0 else DilatedSet(self, eps)

    def erode(self, eps):
        eps = _check_eps(eps)
        return Box(self.lower + eps, self.upper - eps)

    def translate(self, shift):
        shift = np.asarray(shift, dtype=float)
        return Box(self.lower + shift, self.upper + shift)

    def scale(self, factor):
        factor = float(factor)
        return Box(self.lower * factor, self.upper * factor)

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        excess = np.maximum(np.maximum(self.lower - pts, pts - self.upper), 0.0)
        d = np.linalg.norm(excess, axis=1)
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        d = np.minimum(pts - self.lower, self.upper - pts).min(axis=1)
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

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        outside = ~self.contains(pts)
        d = np.zeros(len(pts))
        d[outside] = self.boundary_distance(pts[outside])
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        inside = self.contains(pts)
        bd = self.boundary_distance(pts)
        d = np.where(inside, bd, -bd)
        return float(d[0]) if single else d

    def dilate(self, eps):
        eps = _check_eps(eps)
        return self if eps == 0.0 else DilatedSet(self, eps)

    def erode(self, eps):
        eps = _check_eps(eps)
        return self if eps == 0.0 else ErodedSet(self, eps)

    def translate(self, shift):
        return Ellipsoid(self.center + np.asarray(shift, dtype=float), self.shape)

    def scale(self, factor):
        factor = float(factor)
        return Ellipsoid(self.center * factor, self.shape * factor**2)

    def __repr__(self):
        return f"Ellipsoid(center={self.center.tolist()}, shape={self.shape.tolist()})"


class DilatedSet(ConvexSet):
    """Predicate-backed outer parallel body {x : dist(x, base) <= eps}."""

    def __init__(self, base: ConvexSet, eps: float):
        self.base = base
        self.eps = _check_eps(eps)
        self.dim = base.dim

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        return _ret(self.base.distance_outside(pts) <= self.eps, single)

    def dilate(self, eps):
        return DilatedSet(self.base, self.eps + _check_eps(eps))

    def erode(self, eps):
        eps = _check_eps(eps)
        # (C^a)^{-b} = C^{a-b} for convex C, in either direction of a-b
        if eps <= self.eps:
            return DilatedSet(self.base, self.eps - eps) if eps < self.eps else self.base
        return self.base.erode(eps - self.eps)

    def translate(self, shift):
        return DilatedSet(self.base.translate(shift), self.eps)

    def scale(self, factor):
        factor = float(factor)
        return DilatedSet(self.base.scale(factor), self.eps * factor)

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        d = np.maximum(self.base.distance_outside(pts) - self.eps, 0.0)
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        inside_base = np.asarray(self.base.contains(pts))
        d = np.where(
            inside_base,
            self.base.distance_inside(pts) + self.eps,
            self.eps - self.base.distance_outside(pts),
        )
        return float(d[0]) if single else d

    def __repr__(self):
        return f"DilatedSet({self.base!r}, eps={self.eps})"


class ErodedSet(ConvexSet):
    """Inner parallel body: points whose eps-ball is contained in base."""

    def __init__(self, base: ConvexSet, eps: float):
        self.base = base
        self.eps = _check_eps(eps)
        self.dim = base.dim

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        ok = np.asarray(self.base.contains(pts))
        ok[ok] = self.base.distance_inside(pts[ok]) >= self.eps
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
        factor = float(factor)
        return ErodedSet(self.base.scale(factor), self.eps * factor)

    def __repr__(self):
        return f"ErodedSet({self.base!r}, eps={self.eps})"


# ---------------------------------------------------------------------------
# Gaussian measures


def _qmc_membership_mean(C: ConvexSet, n_points: int):
    """Scrambled-Sobol estimate of P(Z in C) with a replicate-based st. error."""
    replicates = 16
    per = max(n_points // replicates, 256)
    vals = np.empty(replicates)
    for r in range(replicates):
        eng = qmc.Sobol(d=C.dim, scramble=True, seed=r)
        u = eng.random(per)
        pts = special.ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))
        vals[r] = float(np.mean(C.contains(pts)))
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(replicates))


def gaussian_measure_estimate(C: ConvexSet, n_points: int = 1 << 16) -> tuple[float, float]:
    """(Phi(C), standard error); the error is 0 for analytic variants."""
    if C.is_empty:
        return 0.0, 0.0
    mass = C.closed_form_measure()
    if mass is not None:
        return mass, 0.0
    return _qmc_membership_mean(C, n_points)


def gaussian_measure(C: ConvexSet, n_points: int = 1 << 16) -> float:
    """Phi(C) for the standard Gaussian; QMC fallback for non-analytic sets."""
    return gaussian_measure_estimate(C, n_points=n_points)[0]


def shifted_measure_batch(C: ConvexSet, shifts, sigma: float):
    """P(shift + sigma*Z in C) for each row of `shifts`, or None.

    Closed form for half-spaces, balls and boxes (the smoothing kernel of the
    whole library, from `ConvexSet.shifted_measure`); None signals the caller
    to fall back to quadrature/MC.
    """
    sigma = float(sigma)
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if C.is_empty:
        return np.zeros(len(shifts))
    return C.shifted_measure(shifts, sigma)


def shell_measure(C: ConvexSet, eps: float, scale: float = 1.0) -> float:
    """P(scale*Z in boundary shell of width 2*eps around the boundary of C).

    Evaluated as Phi((C^{2eps})/scale) - Phi((C^{-2eps})/scale).
    """
    if float(scale) <= 0.0:
        raise DomainError("scale must be positive")
    eps = float(eps)
    if eps < 0.0:
        raise DomainError("eps must be >= 0")
    if eps == 0.0:
        return 0.0
    inv = 1.0 / float(scale)
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
        """Sets grouped by shared membership statistic, and the other sets."""
        groups: dict = {}
        others = []
        for i, C in enumerate(self.sets):
            test = C.membership_statistic()
            if test is None:
                others.append(i)
                continue
            key, statistic, level = test
            groups.setdefault(key, (statistic, []))[1].append((i, level))
        return tuple(groups.values()), tuple(others)

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
        with one centre) compute it once: each such set costs one comparison.
        """
        pts, _ = _as_points(x, self.dim)
        groups, others = self._plan
        out = np.empty(len(self.sets), dtype=np.int64)
        for statistic, members in groups:
            values = statistic(pts)
            for i, level in members:
                out[i] = np.count_nonzero(values <= level)
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
