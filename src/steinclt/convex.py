"""Convex body catalog: membership, dilation, erosion, Gaussian measure.

Four analytic variants (half-space, ball, axis box, ellipsoid) are closed
under translation and positive scaling.  Dilation/erosion stay in closed form
where possible: a half-space or ball stays one, and a box erodes to a box and
dilates to a `DilatedBox` (closed-form membership at every k, Phi up to k = 4).
Only an ellipsoid's parallel bodies are predicate-backed, decided by its
distance to the boundary (`boundary_distance`), which is all the Monte Carlo
machinery needs, and a cheaper bracket of it (`boundary_distance_bounds`, by
scaling about the centre): they settle every point whose bracket lies clear
of eps, only the points in a narrow band around eps pay for the exact
distance, and each decision equals the one the exact distance alone gives.
The boundary shell between the two is decided the same way, from one bracket
per point (`shell_measure`).

Sets are closed: boundary points count as inside.  A row with an infinite
entry may meet inf * 0 or inf - inf in a projection or rotation; the hook
that does so ignores numpy's invalid flag, and the row counts as a NaN
row does.  A ball's squared distance, an ellipsoid's quadratic form, a
dilated box's excess in units of eps and the square in its normal density
overflow to their limit inf at a far finite row, and those hooks ignore it.

Each variant keeps its closed forms on its own class, in three hooks:
`shifted_measure`, the shifted measure P(s + sigma Z in C), whose value at
s = 0 and sigma = 1 is Phi(C); `smoothed_derivative`, the mixed partials of
x -> P(alpha x + w Z in C); and `smoothed_jet`, its gradient and Laplacian,
which the OU semigroup needs.  The two derivative hooks take a batch of
OU times at once, as per-node arrays alpha = e^{-s} and w, and return a
leading node axis; each per-node scalar that needs a power or a logarithm is
taken with Python's ** or math (`_per_node`), so a node's values are the
bits it would get alone.  Half-spaces, balls (central and off-center)
and boxes give all three; a dilated box (`DilatedBox`) gives the shifted
measure up to k = 4.  The base class returns None from each, which sends
the caller to a scrambled-Sobol QMC estimate or to quadrature.  A
serializable variant names its config tag and constructor fields.

A ball's noncentral chi-square CDF is scipy.special's chndtr (chdtr at
noncentrality 0), equal bit for bit to scipy.stats.ncx2.cdf.  The QMC
estimate's scrambled Sobol points are built in numpy from the direction
numbers scipy installs (`_sobol_points`), bit for bit those of
scipy.stats.qmc.Sobol, so the library never imports scipy.stats: importing
it costs more than a small CLI run.  The points depend only on the dimension
and the point count, so they are built once per process and shared
read-only (see `_qmc_membership_mean` for the memory bound).
"""

from __future__ import annotations

import json
import math
import os
import warnings
import zipfile
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce

import numpy as np
import scipy
from scipy import special

from .errors import ConfigurationError, DimensionMismatchError, DomainError, check_count, check_real
from .gaussian import _as_points, _unbatch, hermite_he, multiplicities, norm_cdf, norm_pdf
from .quadrature import gauss_legendre_panel
from .rng import RngStream

_UNIT_TOL = 1e-12
_TINY = np.finfo(float).tiny
_SQUARE_SAFE = 1e150  # below sqrt of the largest double (1.3e154), a square stays finite


def _per_node(fn, *arrays):
    """fn over the Python floats of per-node arrays, as an array.

    With Python's ** and math each node gets the scalars a call for that node
    alone computes; numpy's power, exp and log may differ in the last bit.
    """
    return np.array([fn(*vals) for vals in zip(*(a.tolist() for a in arrays))], dtype=float)


class ConvexSet:
    """Base type: immutable by convention, membership vectorized.

    The closed-form hooks below (`shifted_measure`, `smoothed_derivative`,
    `smoothed_jet`) return None here, and a caller that gets None falls back
    to QMC or quadrature, one hook at a time.  A variant that overrides
    `shifted_measure` sets `has_closed_form`, and its Phi(C) is that hook at
    shift 0 and sigma 1; its derivative hooks may still return None.  The
    hooks assume a non-empty set: callers answer for the empty set first.
    A base of a predicate-backed parallel body (an ellipsoid) gives
    `boundary_distance` and a cheaper bracket of it, `boundary_distance_bounds`.
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

    def smoothed_derivative(self, alpha, w, X, idx):
        """D_idx [x -> P(alpha*x + w*Z in C)], (S, M), or None.

        alpha and w are (S,) arrays, one entry per OU time; X is (M, k).
        """
        return None

    def smoothed_jet(self, alpha, w, X):
        """Gradient (S, M, k) and Laplacian (S, M) of x -> P(alpha*x + w*Z in C), or None.

        alpha and w are (S,) arrays, one entry per OU time; X is (M, k).
        """
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


def _projection(normal, pts):
    # `dot` gives the values of `pts @ normal` bit for bit, in a sixth of its time at
    # k = 1; at k = 2 and 3 it takes about 3 us more per 16384 rows
    return pts.dot(normal)


# numpy's add.reduce sums a row of fewer than 8 entries left to right, as a
# sum of columns in order does; longer rows go through its 8-way pairwise sum,
# which the column sum would not match bit for bit, so they keep numpy's
# short-axis reduction.  The column sum serves `_center_distance` (Ball.contains
# and the ball groups of SetFamily.counts), `_square_sum` (lambda and
# |grad lambda|^2 in Ball._lambda_derivatives and Ball.smoothed_jet) and
# Ellipsoid._quadratic_form (Ellipsoid.contains)
_COLUMN_SUM_MAX_DIM = 7


def _center_distance(center, pts):
    if len(center) > _COLUMN_SUM_MAX_DIM:
        return np.linalg.norm(pts - center, axis=1)
    # the squared columns summed in order: the norm's values, without its short-axis reduction
    return np.sqrt(reduce(np.add, (np.square(pts[:, j] - c) for j, c in enumerate(center))))


def _square_sum(a):
    """np.sum(a * a, axis=-1), bit for bit; summed by column in order up to _COLUMN_SUM_MAX_DIM."""
    if a.shape[-1] > _COLUMN_SUM_MAX_DIM:
        return np.sum(a * a, axis=-1)
    return reduce(np.add, (np.square(a[..., j]) for j in range(a.shape[-1])))


def _max_abs(pts):
    # column by column, cheaper than a short-axis max; NaN propagates
    return reduce(np.maximum, (np.abs(column) for column in pts.T))


def _check_shift(shift, dim: int) -> np.ndarray:
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (dim,):
        raise DimensionMismatchError(f"shift of shape {shift.shape} vs set of dimension {dim}")
    return shift


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
        self.normal = normal
        self.offset = check_real("half-space offset", offset, -math.inf)
        self.dim = normal.size
        self._ignored = np.flatnonzero(normal == 0.0)

    def membership_statistic(self):
        key = ("projection", self.normal.tobytes())
        return key, partial(_projection, self.normal), self.offset

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        with np.errstate(invalid="ignore"):  # an infinite row: see the module docstring
            return _unbatch(_projection(self.normal, pts) <= self.offset, single)

    def _project(self, X):
        """X @ normal, with an infinite entry where the normal is 0 taken as 0.

        The projection does not depend on such an entry, where inf * 0 would
        give NaN; every other row, and a NaN entry, keeps its bits.  A row
        whose entries run to inf along the normal and to -inf against it has
        no limit: it is NaN, as numpy gives it, without the warning.
        """
        if self._ignored.size:
            ignored = X[:, self._ignored]
            if np.isinf(ignored).any():
                X = X.copy()
                X[:, self._ignored] = np.where(np.isinf(ignored), 0.0, ignored)
        with np.errstate(invalid="ignore"):
            return X @ self.normal

    def shifted_measure(self, shifts, sigma):
        return norm_cdf((self.offset - self._project(shifts)) / sigma)

    def _smoothed_projection(self, alpha, w, X):
        # clipped as a box's edges are (`_EDGE_CLIP`): an infinite row's terms
        # He_m(u) phi(u) take their limit 0, and every finite row keeps its bits
        u = (self.offset - alpha[:, None] * self._project(X)) / w[:, None]
        return np.clip(u, -_EDGE_CLIP, _EDGE_CLIP)

    def smoothed_derivative(self, alpha, w, X, idx):
        u = self._smoothed_projection(alpha, w, X)
        m = len(idx)
        scale = _per_node(lambda a, b: -((a / b) ** m), alpha, w)
        val = scale[:, None] * hermite_he(m - 1, u) * norm_pdf(u)
        for i in idx:
            val = val * self.normal[i]
        return val

    def smoothed_jet(self, alpha, w, X):
        u = self._smoothed_projection(alpha, w, X)
        pdf = norm_pdf(u)
        grad = (-(alpha / w)[:, None] * pdf)[:, :, None] * self.normal
        scale = _per_node(lambda a, b: -((a / b) ** 2), alpha, w)
        lap = scale[:, None] * hermite_he(1, u) * pdf * float(self.normal @ self.normal)
        return grad, lap

    def dilate(self, eps):
        return HalfSpace(self.normal, self.offset + check_real("eps", eps, allow_low=True))

    def erode(self, eps):
        return HalfSpace(self.normal, self.offset - check_real("eps", eps, allow_low=True))

    def translate(self, shift):
        shift = _check_shift(shift, self.dim)
        return HalfSpace(self.normal, self.offset + float(self.normal @ shift))

    def scale(self, factor):
        return HalfSpace(self.normal, self.offset * check_real("scale factor", factor))

    def __repr__(self):
        return f"HalfSpace(normal={self.normal.tolist()}, offset={self.offset})"


# Up to z = sqrt(lambda q) = 4 the densities come from their power series,
# whose first omitted term (m = 16) is then below 1e-17 of the sum; there the
# Bessel recurrence would divide by a small lambda and cancel.  Switching at
# z = 2 instead costs more than a digit at k = 5.
_NCX2_SERIES_Z = 4.0
_NCX2_SERIES_TERMS = 16
# The recurrence above the switch climbs from Bessel order 0 or 1/2 and loses
# 4.3e-14 by k = 6 but 3.8e-13 at k = 8; past this k each order takes scipy's
# scaled I_n, within 2e-14 (against 40-digit values at z = 4..10)
_NCX2_UPWARD_K = 6
# F_k(q; nc) = P(|Z + mu| <= sqrt(q)) with |mu| = sqrt(nc) is at most
# P(|Z| >= sqrt(nc) - sqrt(q)) <= exp(-(sqrt(nc) - sqrt(q) - sqrt(k))^2 / 2), by
# Gaussian concentration of the 1-Lipschitz |Z| about E|Z| <= sqrt(k).  Past
# this gap the bound is below 2^-1075, half the smallest subnormal, so the CDF
# rounds to 0
_NCX2_ZERO_GAP = 38.62


def _ncx2_cdf(q: float, k: int, nc):
    """Noncentral chi-square CDF F_k(q; nc), bit for bit as scipy.stats.ncx2.cdf.

    Like scipy.stats it takes special.chndtr where nc != 0 and the central
    special.chdtr where nc == 0 (chndtr differs there in the last bits), and
    puts 1 at q = inf for every valid nc; calling scipy.special directly keeps
    the import of scipy.stats off the library's path.  chndtr is NaN once nc
    passes about 9.8e18 (and at nc = inf); such an entry is 0 where the gap
    `_NCX2_ZERO_GAP` proves the CDF rounds to 0, and stays NaN elsewhere.

    A call on one element, as for Phi of a ball, costs little more than the
    scipy function it needs: each case is chosen by a count_nonzero (0.3 us,
    where a mask's .any() is 1 us), and chndtr runs only where nc != 0.
    """
    nc = np.asarray(nc, dtype=float)
    if q == math.inf:
        return np.where(nc >= 0.0, 1.0, math.nan)
    noncentral = np.count_nonzero(nc)  # a NaN nc counts as noncentral
    if noncentral == nc.size:
        out = np.asarray(special.chndtr(q, k, nc))
    else:
        out = np.full(nc.shape, special.chdtr(k, q))
        if noncentral:
            rows = nc != 0.0
            out[rows] = special.chndtr(q, k, nc[rows])
    lost = np.isnan(out)
    if np.count_nonzero(lost):
        with np.errstate(invalid="ignore"):  # a negative nc stays NaN
            gap = np.sqrt(nc[lost]) - math.sqrt(q) - math.sqrt(k)
        out[lost] = np.where(gap > _NCX2_ZERO_GAP, 0.0, out[lost])
    return out


@lru_cache(maxsize=64)
def _ncx2_series_coefficients(k: int, count: int) -> np.ndarray:
    """Read-only 1/(m! (n+1)_m) at row m < _NCX2_SERIES_TERMS, column n = k/2 + j < k/2 + count.

    Each is the quotient of integers 2^m / (m! (k+2j+2)(k+2j+4)...(k+2j+2m)), rounded once.
    """
    table = np.array([
        [2**m / (math.factorial(m) * math.prod(range(k + 2 * j + 2, k + 2 * j + 2 * m + 1, 2)))
         for j in range(count)]
        for m in range(_NCX2_SERIES_TERMS)
    ])
    table.flags.writeable = False  # cached: shared by every caller and thread
    return table


def _ncx2_series(k: int, count: int, lam, q, lead) -> np.ndarray:
    """The series densities, shape (count,) + lam.shape; q and lead broadcast against lam."""
    coef = _ncx2_series_coefficients(k, count)
    coef = coef.reshape(coef.shape + (1,) * lam.ndim)
    x = lam * (q / 4.0)
    out = np.empty((count,) + x.shape)
    low = 1 if count == 3 else 0  # three orders: sum the top two, recur down
    acc = out[low:]
    np.multiply(x, coef[-1, low:], out=acc)
    for c in coef[-2:0:-1, low:]:  # Horner
        acc += c
        acc *= x
    acc += coef[0, low:]
    if low:  # g_{n-1} = g_n + x g_{n+1} / (n (n+1)), n = k/2 + 1
        out[0] = out[1] + x * out[2] * (4.0 / ((k + 2) * (k + 4)))
    pre = 0.5 * np.exp(lead - lam / 2.0)
    out[0] *= pre
    for j in range(1, count):
        pre *= q / (k + 2 * j)  # (q/2) / (n+1) from order n = k/2 + j - 1
        out[j] *= pre
    return out


def _ncx2_closed(k: int, count: int, lam, z, q) -> np.ndarray:
    """The densities above the series switch, shape (count,) + lam.shape."""
    r, rho = np.sqrt(q), np.sqrt(lam)
    if k % 2 and k <= _NCX2_UPWARD_K:
        # f_1, f_3 = (phi(r - rho) +- phi(r + rho)) / (2r, 2 rho)
        near, far = norm_pdf(r - rho), np.exp(-2.0 * z)  # phi(r + rho) = near * far
        lo = near * (1.0 + far) / (2.0 * r)
        hi = near * (1.0 - far) / (2.0 * rho)
        nu = 3
    else:
        half_kernel = 0.5 * np.exp(-0.5 * (r - rho) ** 2)
        if k > _NCX2_UPWARD_K:  # f_nu = half_kernel (r/rho)^n ive(n, z)
            return np.array([half_kernel * (r / rho) ** n * special.ive(n, z)
                             for n in k / 2.0 + np.arange(count)])
        lo = half_kernel * special.i0e(z)
        hi = half_kernel * (r / rho) * special.i1e(z)
        nu = 4
    dens = []  # hi is f_nu, lo is f_{nu-2}
    while nu < k + 2 * count:
        if nu >= k + 2:
            dens.append(hi)
        lo, hi, nu = hi, (q * lo - (nu - 2) * hi) / lam, nu + 2
    dens.append(hi)
    return np.array(dens)


def _ncx2_densities(q, k: int, lam, count: int) -> np.ndarray:
    """Noncentral chi-square densities f_{k+2}, ..., f_{k+2*count}, shape (count,) + lam.shape.

    q is a float or an array broadcasting against lam, one q per OU time
    for the ball's batch of nodes: log(q/2) is taken with math per entry of q.

    f_nu(q; lam) = 1/2 e^{-(q+lam)/2} (q/lam)^{n/2} I_n(sqrt(lam q)) with
    n = nu/2 - 1 (Johnson, Kotz & Balakrishnan 1995, ch. 29).  Up to the
    switch in z = sqrt(lam q), including lam = 0, it is 1/2 (q/2)^n
    e^{-(q+lam)/2} g_n(x) / Gamma(n+1), g_n(x) = sum_m x^m / (m! (n+1)_m) at
    x = lam q/4: Horner over the cached `_ncx2_series_coefficients`, with no
    division.  One exp per entry gives the lowest order's prefactor, each
    order above takes the one below times (q/2)/(n+1), and for three orders
    the lowest sum comes from the top two by g_{n-1} = g_n + x g_{n+1} /
    (n (n+1)), whose terms are positive.  Above the switch the recurrence
    lam f_{nu+2} = q f_{nu-2} - (nu-2) f_nu climbs from f_1, f_3 (elementary)
    for odd k or f_2, f_4 (scaled I_0, I_1) for even k, up to
    `_NCX2_UPWARD_K`.  A batch wholly on one side is not gathered.
    """
    q = np.asarray(q, dtype=float)
    log_half_q = _per_node(lambda v: math.log(v / 2.0) if v > 0.0 else -math.inf, q.ravel())
    lead = k / 2.0 * log_half_q.reshape(q.shape) - q / 2.0 - math.lgamma(k / 2.0 + 1.0)
    z = np.sqrt(q * lam)
    series = z <= _NCX2_SERIES_Z
    on_series = np.count_nonzero(series)
    if on_series == series.size:
        return _ncx2_series(k, count, lam, q, lead)
    if not on_series:
        return _ncx2_closed(k, count, lam, z, q)
    out = np.empty((count,) + lam.shape)
    q, lead = np.broadcast_to(q, lam.shape), np.broadcast_to(lead, lam.shape)
    out[:, series] = _ncx2_series(k, count, lam[series], q[series], lead[series])
    closed = ~series
    out[:, closed] = _ncx2_closed(k, count, lam[closed], z[closed], q[closed])
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
        if not np.isfinite(center).all():
            raise DomainError(f"ball center must be finite, got {center}")
        self.center = center
        self.radius = check_real("ball radius", radius, -math.inf)
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
        with np.errstate(over="ignore"):  # a far row's distance is inf: outside
            return _unbatch(_center_distance(self.center, pts) <= self.radius, single)

    def shifted_measure(self, shifts, sigma):
        delta = shifts - self.center
        with np.errstate(over="ignore"):  # a far row's nc is inf, its measure 0
            nc = np.sum(delta * delta, axis=1) / sigma**2
        q = (self.radius / sigma) ** 2
        return _ncx2_cdf(q, self.dim, nc)

    def _lambda_derivatives(self, alpha, w, X, m):
        """dF, grad lambda and d2 for P(alpha x + w Z in C) = F_k(q; lambda(x)).

        With q = r^2/w^2 and lambda = |alpha x - c|^2 / w^2 per node, dF lists
        d^j F_k / d lambda^j (S, M) for j = 1..m, grad lambda is (S, M, k)
        and D_ij lambda = d2 * delta_ij, with d2 (S, 1).
        """
        mu = alpha[:, None, None] * X - self.center
        w2 = (w * w)[:, None]
        a = alpha[:, None]
        # F and all its derivatives tend to 0 as lambda -> inf.  Past the gap of
        # `_NCX2_ZERO_GAP`, sqrt(lambda) - sqrt(q) - sqrt(k) > 38.62, every
        # density underflows to 0, so such a row (an infinite one too) takes
        # that limit, its terms zeroed rather than 0 * inf, and q * lambda or
        # |grad lambda|^2 cannot overflow
        with np.errstate(over="ignore"):
            lam = _square_sum(mu) / w2
            dl = (2.0 * a)[:, :, None] * mu / w2[:, :, None]
        q = self.radius**2 / w2
        limit = (np.sqrt(q) + (math.sqrt(self.dim) + _NCX2_ZERO_GAP)) ** 2
        near = lam <= limit  # neither far nor NaN
        settled = near.all()
        if not settled:
            far, lost = lam > limit, np.isnan(lam)
            lam = np.where(near, lam, 0.0)
        # d^j F_k / d lambda^j = -2^{1-j} Delta^{j-1} f_{k+2}, Delta the forward
        # difference in the degrees of freedom
        f = _ncx2_densities(q, self.dim, lam, m)
        dF = [-np.diff(f[:j], j - 1, axis=0)[0] / 2.0 ** (j - 1) for j in range(1, m + 1)]
        if not settled:
            # a row with a NaN entry is NaN throughout, so no product of its
            # terms meets inf * 0 or squares an overflowing gradient
            for d in dF + [dl]:
                d[far] = 0.0
                d[lost] = math.nan
        return dF, dl, 2.0 * a * a / w2

    def smoothed_derivative(self, alpha, w, X, idx):
        m = len(idx)
        dF, dl, d2l = self._lambda_derivatives(alpha, w, X, m)
        if m == 1:
            (i,) = idx
            return dF[0] * dl[..., i]
        if m == 2:
            i, j = idx
            val = dF[1] * dl[..., i] * dl[..., j]
            if i == j:
                val = val + dF[0] * d2l
            return val
        i, j, l = idx
        val = dF[2] * dl[..., i] * dl[..., j] * dl[..., l]
        val = val + dF[1] * d2l * (
            (i == j) * dl[..., l] + (i == l) * dl[..., j] + (j == l) * dl[..., i]
        )
        return val

    def smoothed_jet(self, alpha, w, X):
        # grad F(lambda) = F' grad lambda;  Laplacian = F'' |grad lambda|^2 + F' k d2
        (dF1, dF2), dl, d2l = self._lambda_derivatives(alpha, w, X, 2)
        grad = dF1[..., None] * dl
        lap = dF2 * _square_sum(dl) + dF1 * (self.dim * d2l)
        return grad, lap

    def dilate(self, eps):
        eps = check_real("eps", eps, allow_low=True)
        return self if self.is_empty else Ball(self.center, self.radius + eps)

    def erode(self, eps):
        return Ball(self.center, max(self.radius - check_real("eps", eps, allow_low=True), -1.0))

    def translate(self, shift):
        return Ball(self.center + _check_shift(shift, self.dim), self.radius)

    def scale(self, factor):
        factor = check_real("scale factor", factor)
        return Ball(self.center * factor, self.radius * factor)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


# phi(z) underflows to 0 for |z| >= 38.6, so clipping edges at this bound
# leaves every finite edge's term He_{m-1}(z) phi(z) as it was and gives an
# infinite bound its limit 0 in place of inf * 0
_EDGE_CLIP = 40.0


def _edge_terms(hi, lo):
    """The clipped edges and their densities, shared by every derivative order."""
    hi, lo = np.clip(hi, -_EDGE_CLIP, _EDGE_CLIP), np.clip(lo, -_EDGE_CLIP, _EDGE_CLIP)
    return hi, lo, norm_pdf(hi), norm_pdf(lo)


def _box_factor(m, alpha, w, edges):
    """Order-m (m >= 1) derivative of Phi(hi) - Phi(lo) along coordinates, node axis first.

    `edges` is `_edge_terms(hi, lo)`.  He_0 = 1, so the first order takes the
    densities as they are.
    """
    hi, lo, pdf_hi, pdf_lo = edges
    if m == 1:
        fac = pdf_hi - pdf_lo
    else:
        fac = hermite_he(m - 1, hi) * pdf_hi - hermite_he(m - 1, lo) * pdf_lo
    scale = _per_node(lambda a, b: -((a / b) ** m), alpha, w)
    return scale.reshape((-1,) + (1,) * (fac.ndim - 1)) * fac


def _box_edge(bound, infinite, shifted, scale):
    """(bound - shifted) / scale, with an infinite bound its own edge on every row.

    That is the edge's value wherever `shifted` is finite; a row infinite
    along such a coordinate would meet inf - inf.  A NaN entry stays NaN.
    `infinite` lists the indices of the infinite entries of `bound`, so a
    bounded box pays for nothing more than the difference.
    """
    if not infinite:
        return (bound - shifted) / scale
    with np.errstate(invalid="ignore"):  # inf - inf, replaced below
        edge = (bound - shifted) / scale
    edge[..., infinite] = np.where(np.isnan(shifted[..., infinite]), np.nan, bound[infinite])
    return edge


class Box(ConvexSet):
    """Axis-aligned box [lower, upper]; empty if any side is inverted.

    Infinite bounds are allowed (slabs and orthants); NaN bounds are not.
    An infinite bound is its own edge at every shift (`_box_edge`), and along
    its coordinate the smoothed derivatives take that edge's limit, 0
    (`_EDGE_CLIP`).
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
        # indices of the infinite bounds, found in Python: cheaper than numpy at small k
        self._infinite = tuple(
            [j for j, b in enumerate(bound.tolist()) if math.isinf(b)] for bound in (upper, lower)
        )

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
            return _unbatch(np.zeros(len(pts), dtype=bool), single)
        # per-column comparisons, cheaper than reducing an (M, k) temporary
        inside = np.ones(len(pts), dtype=bool)
        for j in range(self.dim):
            inside &= pts[:, j] >= self.lower[j]
            inside &= pts[:, j] <= self.upper[j]
        return _unbatch(inside, single)

    def _edges(self, shifted, scale):
        """The upper and lower edges (bound - shifted) / scale."""
        upper, lower = self._infinite
        return (_box_edge(self.upper, upper, shifted, scale),
                _box_edge(self.lower, lower, shifted, scale))

    def shifted_measure(self, shifts, sigma):
        hi, lo = self._edges(shifts, sigma)
        return np.prod(norm_cdf(hi) - norm_cdf(lo), axis=1)

    def _smoothed_edges(self, alpha, w, X):
        return self._edges(alpha[:, None, None] * X, w[:, None, None])

    def smoothed_derivative(self, alpha, w, X, idx):
        mult = multiplicities(idx, self.dim)
        hi, lo = self._smoothed_edges(alpha, w, X)
        val = np.ones(hi.shape[:2])
        for j in range(self.dim):
            m = mult.get(j, 0)
            if m == 0:
                val = val * (norm_cdf(hi[..., j]) - norm_cdf(lo[..., j]))
            else:
                val = val * _box_factor(m, alpha, w, _edge_terms(hi[..., j], lo[..., j]))
        return val

    def smoothed_jet(self, alpha, w, X):
        # product rule: coordinate i takes its derivative factor, the others plain
        hi, lo = self._smoothed_edges(alpha, w, X)
        plain = norm_cdf(hi) - norm_cdf(lo)
        edges = _edge_terms(hi, lo)
        first = _box_factor(1, alpha, w, edges)
        second = _box_factor(2, alpha, w, edges)
        grad = np.empty_like(plain)
        lap = np.zeros(plain.shape[:2])
        columns = [plain[..., j] for j in range(self.dim)]
        for i in range(self.dim):
            # the other columns multiplied in coordinate order, as np.prod does
            others = columns[:i] + columns[i + 1:]
            others = reduce(np.multiply, others) if others else 1.0
            grad[..., i] = first[..., i] * others
            lap += second[..., i] * others
        return grad, lap

    def dilate(self, eps):
        eps = check_real("eps", eps, allow_low=True)
        if eps == 0.0:
            return self
        return DilatedBox(self, eps)

    def erode(self, eps):
        eps = check_real("eps", eps, allow_low=True)
        return Box(self.lower + eps, self.upper - eps)

    def translate(self, shift):
        shift = _check_shift(shift, self.dim)
        return Box(self.lower + shift, self.upper + shift)

    def scale(self, factor):
        factor = check_real("scale factor", factor)
        return Box(self.lower * factor, self.upper * factor)

    def _beyond(self, pts):
        """max(lower - x, x - upper) per coordinate, an infinite bound its own edge.

        Along such a coordinate the bound is never the nearer face: its term is
        the limit -inf (NaN on a NaN entry), where inf - inf would be NaN.
        """
        upper, lower = self._infinite
        if not (upper or lower):
            return np.maximum(self.lower - pts, pts - self.upper)
        # x - upper is (-upper) - (-x) bit for bit, the sign of a zero included
        return np.maximum(_box_edge(self.lower, lower, pts, 1.0),
                          _box_edge(-self.upper, upper, -pts, 1.0))

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

    def _quadratic_form(self, pts):
        """q = (x-c)^T M^{-1} (x-c) per row, the values of np.sum(v^2 / lam, axis=1)."""
        v = self._rotated(pts)
        if self.dim > _COLUMN_SUM_MAX_DIM:
            return np.sum(np.square(v) / self._evals, axis=1)
        # the weighted squared columns summed in order, as in `_center_distance`
        return reduce(np.add, (np.square(v[:, j]) / lam for j, lam in enumerate(self._evals)))

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
            q = self._quadratic_form(pts)
        return _unbatch(q <= 1.0, single)

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

        A row with an infinite entry lies at its limit, distance inf, and a
        row with a NaN entry at NaN: both are set aside before the rotation,
        where inf * 0 would meet them.
        """
        pts, single = _as_points(x, self.dim)
        finite = np.isfinite(pts).all(axis=1)
        if finite.all():
            d = self._secular_distance(pts)
        else:
            d = np.where(np.isnan(pts).any(axis=1), np.nan, np.inf)
            d[finite] = self._secular_distance(pts[finite])
        return _unbatch(d, single)

    def _secular_distance(self, pts):
        """`boundary_distance` of finite rows."""
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
        excess, ratio2 = np.abs(t - lam_min), np.sum(np.square(v * inv), axis=1)
        # d^2 = excess^2 ratio2 would overflow on a far row: there d is the product of the roots
        far = excess * np.maximum(np.sqrt(ratio2), 1.0) > _SQUARE_SAFE
        d2 = np.square(np.where(far, 0.0, excess)) * ratio2
        # t = 0 means mu = -lam_min: fill one lam_min axis up to the boundary
        hard = t == 0.0
        d2[hard] += lam_min * (1.0 - np.sum(np.square(g[hard] * inv[hard]), axis=1))
        d = np.sqrt(d2)
        d[far] = excess[far] * np.sqrt(ratio2[far])
        return d

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
        long axes.  At the centre the upper bound is NaN.  A row whose q is
        not finite (an infinite or NaN entry, or a finite row whose squares
        overflow) takes its exact `boundary_distance` as both bounds: inf,
        NaN, or the far row's distance.
        """
        pts, _ = _as_points(x, self.dim)
        lam = self._evals
        # q, |v|^2 and |Lam^{-1} v|^2 in one product: reducing (M, k) arrays
        # along their short axis costs several times more
        weights = np.stack([1.0 / lam, np.ones_like(lam), lam**-2.0], axis=1)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            q, norm2_v, norm2_w = (np.square(self._rotated(pts)) @ weights).T
            r = np.sqrt(q)
            upper = np.sqrt(norm2_v) * np.abs(1.0 - 1.0 / r)
            first_order = (q - 1.0) / (2.0 * np.sqrt(norm2_w))
            lower = np.maximum(np.abs(r - 1.0) * math.sqrt(np.min(lam)), first_order)
        lost = ~np.isfinite(q)
        if lost.any():
            lower[lost] = upper[lost] = self.boundary_distance(pts[lost])
        return lower, upper

    def dilate(self, eps):
        eps = check_real("eps", eps, allow_low=True)
        return self if eps == 0.0 else DilatedSet(self, eps)

    def erode(self, eps):
        eps = check_real("eps", eps, allow_low=True)
        return self if eps == 0.0 else ErodedSet(self, eps)

    def translate(self, shift):
        return Ellipsoid(self.center + _check_shift(shift, self.dim), self.shape)

    def scale(self, factor):
        factor = check_real("scale factor", factor)
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


def _within(base, pts, eps):
    """Rows of pts within eps of the boundary of base, by the band rule.

    The bracket settles each row clear of the band (`_settled`); a row in the
    band takes its exact `boundary_distance` d and is within when d <= eps
    outside the base and d < eps inside it, so that (sets being closed) a
    point at distance eps lies in the dilation and in the erosion.
    """
    near, far = _settled(base.boundary_distance_bounds(pts), eps)
    band = ~(near | far)
    if band.any():
        band_pts = pts[band]
        d = base.boundary_distance(band_pts)
        near[band] = np.where(base.contains(band_pts), d < eps, d <= eps)
    return near


class DilatedSet(ConvexSet):
    """Predicate-backed outer parallel body {x : dist(x, base) <= eps}.

    Points outside the base whose distance bracket lies near eps take the exact distance.

    Every operation builds its result with `base.dilate`, so a base whose
    dilation has closed forms (a box's `DilatedBox`) keeps them.
    """

    def __init__(self, base: ConvexSet, eps: float):
        self.base = base
        self.eps = check_real("eps", eps, allow_low=True)
        self.dim = base.dim

    @property
    def is_empty(self):
        return self.base.is_empty

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        ok = np.asarray(self.base.contains(pts))
        ok[~ok] = _within(self.base, pts[~ok], self.eps)
        return _unbatch(ok, single)

    def dilate(self, eps):
        return self.base.dilate(self.eps + check_real("eps", eps, allow_low=True))

    def erode(self, eps):
        eps = check_real("eps", eps, allow_low=True)
        # (C^a)^{-b} = C^{a-b} for convex C, in either direction of a-b
        if eps <= self.eps:
            return self.base.dilate(self.eps - eps)
        return self.base.erode(eps - self.eps)

    def translate(self, shift):
        return self.base.translate(shift).dilate(self.eps)

    def scale(self, factor):
        factor = check_real("scale factor", factor)
        return self.base.scale(factor).dilate(self.eps * factor)

    def __repr__(self):
        return f"{type(self).__name__}({self.base!r}, eps={self.eps})"


# The sector integrals of `_dilated_box_mass` use one Gauss-Legendre rule in
# theta on [0, pi/2]; a mass at dimension k evaluates Phi at 2 * 25^(k-1)
# points.  For one set on a 2-vCPU Xeon that takes 0.4 ms at k = 4 against
# 12 ms for QMC at 2^16 points, 21 ms at k = 5 (QMC 22 ms) and 0.57 s at
# k = 6 (QMC 34 ms), so above k = 4 a `DilatedBox` gives no closed form and
# its Phi is a QMC estimate.
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
    """Outer parallel body of a box, with closed-form membership at every k.

    A point lies in it when its coordinate excess max(lower - x, x - upper, 0)
    has norm <= eps (Schneider 2014, sec. 4.2, as in `_dilated_box_mass`).
    Up to k = `_DILATED_BOX_MAX_DIM`, Phi(C) and the shifted measure come
    from `_dilated_box_mass`; above, `shifted_measure` is None and Phi is a
    QMC estimate.  Its derivatives have no closed form here, so the OU
    semigroup takes them by quadrature.
    """

    @property
    def has_closed_form(self):
        return self.dim <= _DILATED_BOX_MAX_DIM

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        if self.is_empty:
            return _unbatch(np.zeros(len(pts), dtype=bool), single)
        excess = np.maximum(self.base._beyond(pts), 0.0)  # NaN on a NaN entry
        # in units of eps: a radius past 1e154 keeps its squares finite, and a
        # far or infinite excess overflows to its limit inf, outside
        with np.errstate(over="ignore"):
            return _unbatch(np.linalg.norm(excess / self.eps, axis=1) <= 1.0, single)

    def shifted_measure(self, shifts, sigma):
        if not self.has_closed_form:
            return None
        hi, lo = self.base._edges(shifts, sigma)
        rho = np.full((len(shifts), 1), self.eps / sigma)
        step = max(_SECTOR_CHUNK // (_SECTOR_NODES + 1) ** (self.dim - 1), 1)
        # phi squares an edge; past about 1e154 the square overflows to its
        # limit inf, and phi to its limit 0 (an np.clip of the edges costs
        # 6 us a call, a tenth of a k = 2 mass)
        with np.errstate(over="ignore"):
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
        self.eps = check_real("eps", eps, allow_low=True)
        self.dim = base.dim

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        ok = np.asarray(self.base.contains(pts))
        ok[ok] = ~_within(self.base, pts[ok], self.eps)
        return _unbatch(ok, single)

    def erode(self, eps):
        return ErodedSet(self.base, self.eps + check_real("eps", eps, allow_low=True))

    def dilate(self, eps):
        eps = check_real("eps", eps, allow_low=True)
        if eps <= self.eps:
            # exact for smooth bodies with boundary curvature radius >= eps
            return ErodedSet(self.base, self.eps - eps) if eps < self.eps else self.base
        raise ConfigurationError("dilating an eroded set past its base is unsupported")

    def translate(self, shift):
        return ErodedSet(self.base.translate(shift), self.eps)

    def scale(self, factor):
        factor = check_real("scale factor", factor)
        return ErodedSet(self.base.scale(factor), self.eps * factor)

    def __repr__(self):
        return f"ErodedSet({self.base!r}, eps={self.eps})"


class _BoundaryShell(ConvexSet):
    """The shell base^eps minus base^{-eps}, by one distance bracket per row.

    Its rows are those within eps of the boundary of base, the inside ones
    strictly (`_within`): row by row the membership of
    `DilatedSet(base, eps)` and not `ErodedSet(base, eps)`, without either.
    Only `shell_measure` builds one.
    """

    def __init__(self, base: ConvexSet, eps: float):
        self.base = base
        self.eps = eps
        self.dim = base.dim

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        return _unbatch(_within(self.base, pts, self.eps), single)


def _shell_base(outer, inner):
    """The base when outer and inner are its predicate-backed dilation and erosion at one eps."""
    if not (isinstance(outer, DilatedSet) and isinstance(inner, ErodedSet)):
        return None
    base, other = outer.base, inner.base
    same = (
        outer.eps == inner.eps and type(base) is type(other) and base.variant is not None
        and all(np.array_equal(getattr(base, f), getattr(other, f)) for f in base.config_fields)
    )
    return base if same else None


# ---------------------------------------------------------------------------
# Gaussian measures


_QMC_REPLICATES = 16
_QMC_CACHED_POINTS = 1 << 16  # the default request; larger ones are built per call
# Rows per membership call: consecutive replicates go to `contains` together,
# at least one replicate a call.  On the shell-smoothing benchmark (2-vCPU
# Xeon) groups of 4 * 4096 rows, with the ellipsoid's column sum, took a pass
# from 0.232 s to 0.184 s (one call per replicate before); all 16 replicates
# in one call saved about 2% more and raised peak RSS from 107.5 to 111.2 MiB.
_QMC_GROUP_ROWS = 1 << 14


# The QMC points are scipy.stats.qmc.Sobol(dim, scramble=True, seed=r).random(per),
# bit for bit, built here in numpy from the direction numbers scipy installs
# (Joe & Kuo 2008, search criterion 6): the measure never imports scipy.stats,
# and a change to scipy's qmc code cannot move them.
_SOBOL_BITS = 30
_SOBOL_TABLE = os.path.join(
    os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz"
)
# bit p counted from the top (p = 0 the top bit) of a 30-bit number sits 29 - p places up
_SOBOL_TOP_FIRST = np.arange(_SOBOL_BITS - 1, -1, -1)


def _sobol_table(path: str):
    """(poly, vinit) from a Sobol direction-number file, read on each call.

    Only `_sobol_direction_numbers` reads it, once per dimension, and keeps
    the rows it needs, so the whole table (3.2 MiB) is never held after.
    ConfigurationError, naming the path, when the file is missing or unreadable.
    """
    try:
        with open(path, "rb") as fh, np.load(fh) as table:
            return table["poly"], table["vinit"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(
            f"cannot read the Sobol direction numbers in {path}: {exc}"
        ) from None


@lru_cache(maxsize=16)
def _sobol_direction_numbers(dim: int, path: str) -> np.ndarray:
    """(dim, 30) direction numbers v_j 2^(29 - j), as scipy's Sobol engine holds them.

    Built from the table in `path` once per (dim, path), read-only.

    Dimension 0 has v_j = 1.  Dimension d has a primitive polynomial
    x^m + a_1 x^(m-1) + ... + a_(m-1) x + 1 (poly[d], a_1 its bit m - 1), the
    first m numbers from vinit[d], and the rest from the recurrence of Bratley
    & Fox (1988, ACM TOMS 14, Alg. 659):
    v_j = 2 a_1 v_(j-1) ^ 4 a_2 v_(j-2) ^ ... ^ 2^m v_(j-m) ^ v_(j-m).
    """
    poly, vinit = _sobol_table(path)
    v = np.ones((dim, _SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        p = int(poly[d])
        m = p.bit_length() - 1
        row = vinit[d, :m].tolist()
        for j in range(m, _SOBOL_BITS):
            new = row[j - m]
            for i in range(1, m + 1):
                if (p >> (m - i)) & 1:
                    new ^= row[j - i] << i
            row.append(new)
        v[d] = row
    v <<= _SOBOL_TOP_FIRST
    v.flags.writeable = False
    return v


def _sobol_points(dim: int, per: int, seeds) -> np.ndarray:
    """(len(seeds), per, dim) scrambled Sobol points in [0, 1), one replicate per seed.

    Replicate r is qmc.Sobol(dim, scramble=True, seed=r).random(per) bit for
    bit.  Its scramble is a linear matrix scramble plus a digital shift
    (Matousek 1998), drawn from np.random.default_rng(r) in scipy's order:
    the (dim, 30) shift bits, lowest first, then (dim, 30, 30)
    lower-triangular matrices with unit diagonal.  Bit p (top first) of a scrambled direction number is
    the parity of matrix row p ANDed with the number's bits.  Point i is the
    shift XORed with the scrambled numbers over the bits of the Gray code
    i ^ (i >> 1).  Like scipy, it warns (UserWarning) when per is not a power
    of two, which loses the points' balance properties.
    """
    if per & (per - 1):
        warnings.warn("The balance properties of Sobol' points require n to be a power of 2.",
                      UserWarning, stacklevel=2)
    v = _sobol_direction_numbers(dim, _SOBOL_TABLE)
    v_bits = (v[:, None, :] >> _SOBOL_TOP_FIRST[:, None]) & 1
    shift_bits, matrices = [], []
    for r in seeds:
        gen = np.random.default_rng(r)
        shift_bits.append(gen.integers(0, 2, size=(dim, _SOBOL_BITS), dtype=np.uint32))
        matrices.append(gen.integers(0, 2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    shift = np.stack(shift_bits).astype(np.int64) @ (1 << np.arange(_SOBOL_BITS))
    lower = np.tril(np.stack(matrices).astype(np.int64))
    lower[..., range(_SOBOL_BITS), range(_SOBOL_BITS)] = 1
    # (replicates, dim, 30 numbers, 30 bits top first) parities, packed per number
    scrambled = ((lower @ v_bits) & 1).swapaxes(-1, -2) @ (1 << _SOBOL_TOP_FIRST)
    # the Gray codes of 2^b..2^(b+1)-1 are those of 2^b-1..0, in reverse, with bit b set
    x = np.empty((len(shift), per, dim), dtype=np.int64)
    x[:, 0] = shift
    half = 1
    while half < per:
        count = min(half, per - half)
        x[:, half : half + count] = (
            x[:, half - 1 :: -1][:, :count] ^ scrambled[:, None, :, half.bit_length() - 1]
        )
        half *= 2
    # scaled into the codes' own buffer, one replicate's copy at a time, so the
    # points never take a second full-size array
    u = x.view(np.float64)
    for r in range(len(x)):
        u[r] = x[r] * 2.0**-_SOBOL_BITS
    return u


def _sobol_normal(dim: int, per: int, start: int, stop: int) -> np.ndarray:
    """Replicates start..stop-1 mapped through ndtri, one (stop - start, per, dim) array."""
    u = _sobol_points(dim, per, range(start, stop))
    np.clip(u, 1e-15, 1.0 - 1e-15, out=u)
    return special.ndtri(u, out=u)


@lru_cache(maxsize=4)
def _sobol_normal_replicates(dim: int, per: int) -> np.ndarray:
    """All replicates as one read-only (replicates, per, dim) array, built once per process."""
    pts = _sobol_normal(dim, per, 0, _QMC_REPLICATES)
    pts.flags.writeable = False
    return pts


def _replicate_group(dim: int, per: int, start: int, stop: int) -> np.ndarray:
    """Replicates start..stop-1 as one (stop - start, per, dim) array."""
    if _QMC_REPLICATES * per <= _QMC_CACHED_POINTS:
        return _sobol_normal_replicates(dim, per)[start:stop]
    return _sobol_normal(dim, per, start, stop)


def _qmc_membership_mean(C: ConvexSet, n_points: int):
    """Scrambled-Sobol estimate of P(Z in C) with a replicate-based st. error.

    The 16 Gaussian replicates depend only on (dimension, points per
    replicate), so a request of at most 2^16 points reads them from a
    process-wide cache shared read-only by every set: at most four entries
    of at most 2^16 * dim doubles, 0.5 MiB per dimension each (1 MiB at
    k = 2).  A larger request builds each group's replicates in one pass as
    it goes and keeps none.

    `contains` runs once per group of consecutive replicates, as many as fit
    in 2^14 rows and at least one: 4 calls at the default 2^16 points.  Its
    (rows, dim) temporaries then hold at most 2^14 * dim doubles, 128 KiB
    per dimension, or one replicate's rows when a replicate is longer.
    Membership is decided row by row and a replicate's mean is its exact
    count over `per`, so the grouping leaves every estimate as one call per
    replicate gives it.
    """
    per = max(n_points // _QMC_REPLICATES, 256)
    group = max(_QMC_GROUP_ROWS // per, 1)
    vals = []
    for start in range(0, _QMC_REPLICATES, group):
        stop = min(start + group, _QMC_REPLICATES)
        pts = _replicate_group(C.dim, per, start, stop)
        inside = np.asarray(C.contains(pts.reshape(-1, C.dim)))
        vals.append(np.mean(inside.reshape(stop - start, per), axis=1))
    vals = np.concatenate(vals)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(_QMC_REPLICATES))


def gaussian_measure_estimate(C: ConvexSet, n_points: int = 1 << 16) -> tuple[float, float]:
    """(Phi(C), standard error); the error is 0 for analytic variants.

    A set without a closed form is measured by scrambled-Sobol QMC on
    16 * max(n_points // 16, 256) points: 2^16 by default, and never fewer
    than 4096.  n_points must be an integer >= 1 (DomainError otherwise).
    When n_points // 16 is not a power of two, the point builder warns, as
    scipy's Sobol engine does, that the balance properties need one (a
    UserWarning); since the points are cached, that happens once per
    dimension and point count, not per call.
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
    sigma = check_real("sigma", sigma)
    shifts, _ = _as_points(shifts, C.dim)
    if C.is_empty:
        return np.zeros(len(shifts))
    return C.shifted_measure(shifts, sigma)


def shell_measure(C: ConvexSet, eps: float, scale: float = 1.0) -> float:
    """P(scale*Z in boundary shell of width 2*eps around the boundary of C).

    That is Phi((C^{2eps})/scale) - Phi((C^{-2eps})/scale).  When the two
    parallel bodies are the predicate-backed dilation and erosion of one base
    at one radius (an ellipsoid's are), the shell is measured in one QMC pass
    (`_BoundaryShell`): each point asks the base for one distance bracket, and
    only the points in the band around the radius pay for the exact distance
    and membership.  The erosion lies inside the dilation on every point and
    each replicate's mean is an exact count over its points, so the value is
    the difference of the two measures bit for bit.  Every other pair,
    including any with a closed form, is measured as that difference.
    """
    inv = 1.0 / check_real("scale factor", scale)
    eps = check_real("eps", eps, allow_low=True)
    if eps == 0.0:
        return 0.0
    outer, inner = C.dilate(2.0 * eps).scale(inv), C.erode(2.0 * eps).scale(inv)
    base = _shell_base(outer, inner)
    if base is not None:
        return _qmc_membership_mean(_BoundaryShell(base, outer.eps), _QMC_CACHED_POINTS)[0]
    return max(gaussian_measure(outer) - gaussian_measure(inner), 0.0)


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
        # an infinite row: see the module docstring; a far finite row's
        # centre distance overflows to inf, which is above every level
        with np.errstate(invalid="ignore", over="ignore"):
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
    k = check_count("k", k, 1)
    n_directions = check_count("n_directions", n_directions, 0)
    n_offsets = check_count("n_offsets", n_offsets, 0)
    seed = check_count("seed", seed, -math.inf)  # negative too, as --family-seed takes
    gen = RngStream(seed, stream_id=101).generator()
    sets: list[ConvexSet] = []
    offsets = np.linspace(-3.2, 3.2, n_offsets)
    for _ in range(n_directions):
        d = gen.standard_normal(k)
        d /= np.linalg.norm(d)
        for b in offsets:
            sets.append(HalfSpace(d, float(b)))
    # ball radii at even chi-mass spacing so every radius is informative
    probs = np.linspace(0.02, 0.98, check_count("n_radii", n_radii, 0))
    radii = np.sqrt(2.0 * special.gammaincinv(0.5 * k, probs))
    for r in radii:
        sets.append(Ball(np.zeros(k), float(r)))
    for a in np.linspace(0.3, 2.7, check_count("n_box_sizes", n_box_sizes, 0)):
        sets.append(Box(-a * np.ones(k), a * np.ones(k)))
    return SetFamily(
        sets=tuple(sets),
        description=f"default(k={k} dirs={n_directions} offs={n_offsets} seed={seed})",
    )


def default_translates(k: int) -> np.ndarray:
    """Translation grid for sup-over-translates: 0 and radii 0.5, 1.5 in 6 seeded directions."""
    k = check_count("k", k, 1)
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
        if "k" not in cfg:
            raise ConfigurationError("family builder spec needs the dimension k")
        try:  # the counts and seed as written: default_family checks them
            return default_family(**{key: v for key, v in cfg.items() if key != "builder"})
        except TypeError as exc:  # an unknown key
            raise ConfigurationError(f"bad family builder spec: {exc}") from None
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
