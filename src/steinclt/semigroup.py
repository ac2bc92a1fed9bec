"""Ornstein-Uhlenbeck semigroup: kernel, T_t action, generator, residuals.

T_t h(x) = E h(e^{-t} x + sqrt(1 - e^{-2t}) Z) interpolates between the
identity (t = 0) and the Gaussian mean (t -> infinity); its generator is
L = Laplacian - x . grad.  For indicator test functions of half-spaces, balls
and boxes the smoothing has a closed form (one-dimensional Gaussian CDFs, and
for the ball a noncentral chi-square CDF whose lambda-derivatives are
noncentral chi-square densities), which the Stein solver leans on heavily;
the generic fallbacks are tensor Gauss-Hermite (k <= 3) and seeded Monte
Carlo.

Derivatives come two ways.  `semigroup_derivative` gives one mixed partial
D_idx T_s h for an index tuple of order 1 to 3.  `semigroup_jet` gives the
whole first-order jet at once, the gradient and the Laplacian of T_s h,
which is what the generator L needs: each closed form computes its shared
pieces once (the ball's noncentral chi-square densities, the box's
per-coordinate factors, the half-space's Gaussian density), and the
quadrature fallback evaluates h once per point instead of once per index.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .convex import Ball, Box, ConvexSet, HalfSpace, gaussian_measure, shifted_measure_batch
from .errors import ConfigurationError, DomainError
from .gaussian import hermite_he, norm_cdf, norm_pdf
from .quadrature import DEFAULT_QUAD, GH_TENSOR_MAX_DIM, QuadratureSpec, gauss_hermite_tensor
from .rng import RngStream


def ou_decay(t: float) -> float:
    """Mean-reversion factor e^{-t}."""
    return math.exp(-t)


def ou_noise(t: float) -> float:
    """Noise scale sqrt(1 - e^{-2t}), computed stably for small t."""
    return math.sqrt(-math.expm1(-2.0 * t))


class TestFunction:
    """Callable on points (k,) or batches (M,k); `bound` is a sup-norm cap."""

    is_indicator = False
    bound: float | None = None

    def __call__(self, x):
        raise NotImplementedError


class IndicatorFunction(TestFunction):
    """h = 1_C for a convex set C."""

    is_indicator = True
    bound = 1.0

    def __init__(self, C: ConvexSet):
        self.set = C
        self.dim = C.dim

    def __call__(self, x):
        out = self.set.contains(x)
        if isinstance(out, bool):
            return 1.0 if out else 0.0
        return out.astype(float)

    def gaussian_mean(self) -> float:
        return gaussian_measure(self.set)


class SmoothFunction(TestFunction):
    """Smooth test function with optional exact gradient and Hessian."""

    def __init__(self, fn, grad=None, hess=None, bound=None, name=""):
        self.fn = fn
        self.grad = grad
        self.hess = hess
        self.bound = bound
        self.name = name

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def hermite_product_function(orders, name: str = "") -> SmoothFunction:
    """Product of 1D Hermite polynomials; eigenfunction of L with value -sum(orders)."""
    orders = tuple(int(m) for m in orders)

    def fn(x):
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        X = np.atleast_2d(arr)
        val = np.ones(len(X))
        for j, m in enumerate(orders):
            if m:
                val = val * hermite_he(m, X[:, j])
        return float(val[0]) if single else val

    def he_d(m, z):  # He_m' = m He_{m-1}
        return m * hermite_he(m - 1, z) if m else np.zeros_like(z)

    def he_dd(m, z):
        return m * (m - 1) * hermite_he(m - 2, z) if m >= 2 else np.zeros_like(z)

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        for i, mi in enumerate(orders):
            v = he_d(mi, x[i : i + 1])[0] if mi else 0.0
            for j, mj in enumerate(orders):
                if j != i and mj:
                    v *= float(hermite_he(mj, x[j]))
            g[i] = v
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        k = x.size
        H = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                v = 1.0
                for a, ma in enumerate(orders):
                    za = x[a : a + 1]
                    if a == i and a == j:
                        fac = he_dd(ma, za)[0]
                    elif a == i or a == j:
                        fac = he_d(ma, za)[0] if ma else 0.0
                    else:
                        fac = float(hermite_he(ma, za)[0]) if ma else 1.0
                    v *= float(fac)
                H[i, j] = v
        return H

    return SmoothFunction(fn, grad=grad, hess=hess, name=name or f"He{orders}")


# ---------------------------------------------------------------------------
# Transition kernel


def transition_density(t: float, x, y):
    """OU transition density p(t; x, y): Gaussian, mean e^{-t}x, var (1-e^{-2t})I."""
    if t <= 0.0:
        raise DomainError("transition_density needs t > 0")
    x = np.asarray(x, dtype=float)
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    if ys.shape[1] != x.size:
        raise DomainError("x and y must share a dimension")
    var = -math.expm1(-2.0 * t)
    diff = ys - math.exp(-t) * x
    k = x.size
    norm = (2.0 * math.pi * var) ** (-0.5 * k)
    out = norm * np.exp(-0.5 * np.sum(diff * diff, axis=1) / var)
    return out if np.asarray(y).ndim > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Smoothed values and their spatial derivatives (closed forms + fallbacks)


_ANALYTIC_VARIANTS = (HalfSpace, Ball, Box)


def has_analytic_smoothing(h: TestFunction) -> bool:
    """Whether E h(a x + w Z) has a closed form for this test function."""
    return isinstance(h, IndicatorFunction) and (
        h.set.is_empty or isinstance(h.set, _ANALYTIC_VARIANTS)
    )


def smoothed_value_batch(h: TestFunction, alpha: float, w: float, X) -> np.ndarray | None:
    """E h(alpha*x + w*Z) rows of X; closed form or None."""
    if isinstance(h, IndicatorFunction):
        shifts = alpha * np.atleast_2d(np.asarray(X, dtype=float))
        return shifted_measure_batch(h.set, shifts, w)
    return None


def _halfspace_projection(C: HalfSpace, alpha, w, X):
    return (C.offset - alpha * (X @ C.normal)) / w


def _halfspace_derivative(C: HalfSpace, alpha, w, X, idx):
    u = _halfspace_projection(C, alpha, w, X)
    m = len(idx)
    val = -((alpha / w) ** m) * hermite_he(m - 1, u) * norm_pdf(u)
    for i in idx:
        val = val * C.normal[i]
    return val


def _halfspace_jet(C: HalfSpace, alpha, w, X):
    u = _halfspace_projection(C, alpha, w, X)
    pdf = norm_pdf(u)
    grad = np.outer(-(alpha / w) * pdf, C.normal)
    lap = -((alpha / w) ** 2) * hermite_he(1, u) * pdf * float(C.normal @ C.normal)
    return grad, lap


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


def _ball_noncentrality(C: Ball, alpha, w, X):
    """q, lambda(x) and its derivatives for E 1_C(alpha x + w Z) = F_k(q; lambda(x)).

    Returns q = r^2/w^2, lambda = |alpha x - c|^2 / w^2 (M,), grad lambda
    (M, k), and the constant d2 with D_ij lambda = d2 * delta_ij.
    """
    mu = alpha * X - C.center
    w2 = w * w
    lam = np.sum(mu * mu, axis=1) / w2
    return C.radius**2 / w2, lam, 2.0 * alpha * mu / w2, 2.0 * alpha * alpha / w2


def _ball_derivative(C: Ball, alpha, w, X, idx):
    q, lam, dl, d2l = _ball_noncentrality(C, alpha, w, X)
    m = len(idx)
    # d^j F_k / d lambda^j = -2^{1-j} Delta^{j-1} f_{k+2}, Delta the forward
    # difference in the degrees of freedom
    f = _ncx2_densities(q, C.dim, lam, m)
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


def _ball_jet(C: Ball, alpha, w, X):
    # grad F(lambda) = F' grad lambda;  Laplacian = F'' |grad lambda|^2 + F' k d2
    q, lam, dl, d2l = _ball_noncentrality(C, alpha, w, X)
    f_k2, f_k4 = _ncx2_densities(q, C.dim, lam, 2)
    dF1, dF2 = -f_k2, 0.5 * (f_k2 - f_k4)
    grad = dF1[:, None] * dl
    lap = dF2 * np.sum(dl * dl, axis=1) + dF1 * (C.dim * d2l)
    return grad, lap


def _box_edges(C: Box, alpha, w, X):
    return (C.upper - alpha * X) / w, (C.lower - alpha * X) / w


def _box_factor(m, alpha, w, hi, lo):
    """Order-m (m >= 1) derivative of Phi(hi) - Phi(lo) along one coordinate."""
    fac = hermite_he(m - 1, hi) * norm_pdf(hi) - hermite_he(m - 1, lo) * norm_pdf(lo)
    return -((alpha / w) ** m) * fac


def _box_derivative(C: Box, alpha, w, X, idx):
    mult: dict[int, int] = {}
    for i in idx:
        mult[i] = mult.get(i, 0) + 1
    hi, lo = _box_edges(C, alpha, w, X)
    plain = norm_cdf(hi) - norm_cdf(lo)
    val = np.ones(len(X))
    for j in range(C.dim):
        m = mult.get(j, 0)
        if m == 0:
            val = val * plain[:, j]
        else:
            val = val * _box_factor(m, alpha, w, hi[:, j], lo[:, j])
    return val


def _box_jet(C: Box, alpha, w, X):
    # product rule: coordinate i takes its derivative factor, the others plain
    hi, lo = _box_edges(C, alpha, w, X)
    plain = norm_cdf(hi) - norm_cdf(lo)
    first = _box_factor(1, alpha, w, hi, lo)
    second = _box_factor(2, alpha, w, hi, lo)
    grad = np.empty_like(plain)
    lap = np.zeros(len(X))
    for i in range(C.dim):
        others = np.prod(np.delete(plain, i, axis=1), axis=1)
        grad[:, i] = first[:, i] * others
        lap += second[:, i] * others
    return grad, lap


def smoothed_derivative_batch(
    h: TestFunction, alpha: float, w: float, X, idx
) -> np.ndarray | None:
    """D_idx [x -> E h(alpha*x + w*Z)] for rows of X; closed form or None."""
    if not isinstance(h, IndicatorFunction):
        return None
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = h.set
    if C.is_empty:
        return np.zeros(len(X))
    if isinstance(C, HalfSpace):
        return _halfspace_derivative(C, alpha, w, X, idx)
    if isinstance(C, Ball):
        return _ball_derivative(C, alpha, w, X, idx)
    if isinstance(C, Box):
        return _box_derivative(C, alpha, w, X, idx)
    return None


def smoothed_jet_batch(h: TestFunction, alpha: float, w: float, X):
    """Gradient (M, k) and Laplacian (M,) of x -> E h(alpha*x + w*Z); closed form or None."""
    if not isinstance(h, IndicatorFunction):
        return None
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = h.set
    if C.is_empty:
        return np.zeros(X.shape), np.zeros(len(X))
    if isinstance(C, HalfSpace):
        return _halfspace_jet(C, alpha, w, X)
    if isinstance(C, Ball):
        return _ball_jet(C, alpha, w, X)
    if isinstance(C, Box):
        return _box_jet(C, alpha, w, X)
    return None


def _inner_points(k: int, quad: QuadratureSpec, method: str):
    if method == "gauss-hermite":
        if k > GH_TENSOR_MAX_DIM:
            raise ConfigurationError(
                f"gauss-hermite inner quadrature infeasible for k={k}"
            )
        return gauss_hermite_tensor(k, quad.gh_nodes)
    draws = RngStream(quad.mc_seed, stream_id=909).generator().standard_normal(
        (quad.mc_samples, k)
    )
    return draws, np.full(quad.mc_samples, 1.0 / quad.mc_samples)


def _resolve_inner(h: TestFunction, k: int, quad: QuadratureSpec) -> str:
    method = quad.inner_method
    if method in ("auto", "analytic"):
        if has_analytic_smoothing(h):
            return "analytic"
        if method == "analytic":
            raise ConfigurationError(
                "analytic smoothing unavailable for this test function"
            )
        return "gauss-hermite" if k <= GH_TENSOR_MAX_DIM else "monte-carlo"
    return method


def gaussian_mean(h: TestFunction, k: int, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integral of h against the standard Gaussian."""
    if isinstance(h, IndicatorFunction):
        return h.gaussian_mean()
    method = quad.inner_method
    if method in ("auto", "analytic"):
        method = "gauss-hermite" if k <= GH_TENSOR_MAX_DIM else "monte-carlo"
    nodes, wts = _inner_points(k, quad, method)
    return float(np.asarray(h(nodes), dtype=float) @ wts)


def semigroup_apply(h: TestFunction, t: float, x, quad: QuadratureSpec = DEFAULT_QUAD):
    """T_t h(x); accepts a point (k,) or a batch (M,k)."""
    if t < 0.0:
        raise DomainError("semigroup time t must be >= 0")
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    k = X.shape[1]
    quad.validate(t)
    if t == 0.0:
        vals = np.asarray(h(X), dtype=float)
        return float(vals[0]) if single else vals
    alpha, w = ou_decay(t), ou_noise(t)
    method = _resolve_inner(h, k, quad)
    if method == "analytic":
        vals = smoothed_value_batch(h, alpha, w, X)
    else:
        nodes, wts = _inner_points(k, quad, method)
        vals = np.empty(len(X))
        for m, row in enumerate(X):
            vals[m] = float(np.asarray(h(alpha * row + w * nodes), dtype=float) @ wts)
    return float(vals[0]) if single else vals


def semigroup_derivative(
    h: TestFunction, s: float, x, idx, quad: QuadratureSpec = DEFAULT_QUAD
):
    """Spatial derivative D_idx T_s h(x) of the smoothed test function.

    Uses the derivative-on-the-kernel representation: order-m derivatives pick
    up the weight (e^{-s}/w)^m against Hermite-polynomial factors inside the
    expectation, i.e. the integrand stays bounded by h itself.
    """
    if s <= 0.0:
        raise DomainError("semigroup derivatives need s > 0")
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    k = X.shape[1]
    idx = tuple(int(i) for i in idx)
    if not idx or len(idx) > 3:
        raise DomainError("derivative order must be 1, 2 or 3")
    if any(not 0 <= i < k for i in idx):
        raise DomainError("derivative index out of range")
    alpha, w = ou_decay(s), ou_noise(s)
    method = _resolve_inner(h, k, quad)
    if method == "analytic":
        vals = smoothed_derivative_batch(h, alpha, w, X, idx)
    else:
        nodes, wts = _inner_points(k, quad, method)
        mult: dict[int, int] = {}
        for i in idx:
            mult[i] = mult.get(i, 0) + 1
        kernel = wts.copy()
        for j in sorted(mult):
            kernel = kernel * hermite_he(mult[j], nodes[:, j])
        scale = (alpha / w) ** len(idx)
        vals = np.empty(len(X))
        for m_i, row in enumerate(X):
            vals[m_i] = scale * float(np.asarray(h(alpha * row + w * nodes), dtype=float) @ kernel)
    return float(vals[0]) if single else vals


def semigroup_jet(h: TestFunction, s: float, x, quad: QuadratureSpec = DEFAULT_QUAD):
    """Gradient and Laplacian of x -> T_s h(x) at one time s > 0.

    Returns (grad, lap) with shapes (M, k) and (M,) for a batch, or (k,) and
    a float for one point.  Catalog indicators use their closed forms (the
    ball needs the noncentral chi-square densities f_{k+2} and f_{k+4}, no
    CDF); otherwise h is evaluated once per row and weighted by the kernels
    He_1(z_i) and sum_i He_2(z_i) of the derivative-on-the-kernel form.
    """
    if s <= 0.0:
        raise DomainError("semigroup derivatives need s > 0")
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    k = X.shape[1]
    alpha, w = ou_decay(s), ou_noise(s)
    method = _resolve_inner(h, k, quad)
    if method == "analytic":
        grad, lap = smoothed_jet_batch(h, alpha, w, X)
    else:
        nodes, wts = _inner_points(k, quad, method)
        kernel = wts[:, None] * np.column_stack(
            [hermite_he(1, nodes), np.sum(hermite_he(2, nodes), axis=1)]
        )
        moments = np.empty((len(X), k + 1))
        for m_i, row in enumerate(X):
            moments[m_i] = np.asarray(h(alpha * row + w * nodes), dtype=float) @ kernel
        grad = (alpha / w) * moments[:, :k]
        lap = (alpha / w) ** 2 * moments[:, k]
    return (grad[0], float(lap[0])) if single else (grad, lap)


# ---------------------------------------------------------------------------
# Generator and backward-equation residual


def generator_apply(g, x, dx: float = 1e-3) -> float:
    """L g(x) = Laplacian g(x) - x . grad g(x).

    Exact when g carries grad/hess callables, otherwise central differences
    with step dx.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(g, SmoothFunction) and g.grad is not None and g.hess is not None:
        grad = np.asarray(g.grad(x), dtype=float)
        lap = float(np.trace(np.asarray(g.hess(x), dtype=float)))
        return lap - float(x @ grad)
    k = x.size
    f0 = float(np.asarray(g(x[None, :]), dtype=float)[0])
    lap = 0.0
    drift = 0.0
    for i in range(k):
        e = np.zeros(k)
        e[i] = dx
        fp = float(np.asarray(g((x + e)[None, :]), dtype=float)[0])
        fm = float(np.asarray(g((x - e)[None, :]), dtype=float)[0])
        lap += (fp - 2.0 * f0 + fm) / dx**2
        drift += x[i] * (fp - fm) / (2.0 * dx)
    return lap - drift


def backward_residual(
    h: TestFunction,
    t: float,
    x,
    quad: QuadratureSpec = DEFAULT_QUAD,
    dt: float = 1e-3,
    dx: float = 1e-3,
) -> float:
    """Residual of the backward equation d/dt T_t h = L T_t h at (t, x).

    Both sides are finite differences over semigroup_apply, so the residual
    is O(dt^2 + dx^2) in smooth regimes.
    """
    if t <= 0.0:
        raise DomainError("backward residual needs t > 0")
    x = np.asarray(x, dtype=float)
    k = x.size

    def T(tt, pt):
        return semigroup_apply(h, tt, pt, quad)

    dfdt = (T(t + dt, x) - T(t - dt, x)) / (2.0 * dt)
    f0 = T(t, x)
    lap = 0.0
    drift = 0.0
    for i in range(k):
        e = np.zeros(k)
        e[i] = dx
        fp = T(t, x + e)
        fm = T(t, x - e)
        lap += (fp - 2.0 * f0 + fm) / dx**2
        drift += x[i] * (fp - fm) / (2.0 * dx)
    return dfdt - (lap - drift)
