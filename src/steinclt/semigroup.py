"""Ornstein-Uhlenbeck semigroup: kernel, T_t action, generator, residuals.

T_t h(x) = E h(e^{-t} x + sqrt(1 - e^{-2t}) Z) interpolates between the
identity (t = 0) and the Gaussian mean (t -> infinity); its generator is
L = Laplacian - x . grad.  For indicator test functions of half-spaces, balls
and boxes the smoothing has a closed form (one-dimensional Gaussian CDFs, and
for the ball a noncentral chi-square CDF whose lambda-derivatives are
noncentral chi-square densities), which the Stein solver leans on heavily.
Those closed forms live on the set classes in `convex` (`has_closed_form`,
`shifted_measure`, `smoothed_derivative`, `smoothed_jet`); this module only
decides when to use them.  The generic fallbacks are tensor Gauss-Hermite
(k <= 3) and seeded Monte Carlo, and every one of them (value, derivative,
jet) is the same per-row loop `h(alpha x + w nodes) @ kernel` in
`_kernel_rows`; only the kernel differs (the weights, the weights times a
Hermite product from `gaussian.hermite_kernel`, or one column per jet entry).

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

from .convex import ConvexSet, gaussian_measure, shifted_measure_batch
from .errors import DomainError
from .gaussian import hermite_he, hermite_kernel, multiplicities
from .quadrature import (
    DEFAULT_QUAD, GH_NODES, GH_TENSOR_MAX_DIM, QuadratureSpec, gauss_hermite_tensor,
)
from .rng import RngStream


def ou_decay(t: float) -> float:
    """Mean-reversion factor e^{-t}."""
    return math.exp(-t)


def ou_noise(t: float) -> float:
    """Noise scale sqrt(1 - e^{-2t}), computed stably for small t."""
    return math.sqrt(-math.expm1(-2.0 * t))


class TestFunction:
    """Callable on points (k,) or batches (M,k)."""

    def __call__(self, x):
        raise NotImplementedError


class IndicatorFunction(TestFunction):
    """h = 1_C for a convex set C."""

    def __init__(self, C: ConvexSet):
        self.set = C

    def __call__(self, x):
        out = self.set.contains(x)
        if isinstance(out, bool):
            return 1.0 if out else 0.0
        return out.astype(float)

    def gaussian_mean(self) -> float:
        return gaussian_measure(self.set)


class SmoothFunction(TestFunction):
    """Smooth test function with optional exact gradient and Hessian."""

    def __init__(self, fn, grad=None, hess=None):
        self.fn = fn
        self.grad = grad
        self.hess = hess

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def hermite_product_function(orders) -> SmoothFunction:
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

    return SmoothFunction(fn, grad=grad, hess=hess)


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


def has_analytic_smoothing(h: TestFunction) -> bool:
    """Whether E h(a x + w Z) has a closed form for this test function."""
    return isinstance(h, IndicatorFunction) and (h.set.is_empty or h.set.has_closed_form)


def _inner_points(k: int, quad: QuadratureSpec, method: str):
    if method == "gauss-hermite":
        return gauss_hermite_tensor(k, GH_NODES)
    draws = RngStream(0, stream_id=909).generator().standard_normal((quad.mc_samples, k))
    return draws, np.full(quad.mc_samples, 1.0 / quad.mc_samples)


def _fallback(k: int, quad: QuadratureSpec) -> str:
    """The quadrature without a closed form: quad's method, or for "auto" by dimension."""
    if quad.inner_method != "auto":
        return quad.inner_method
    return "gauss-hermite" if k <= GH_TENSOR_MAX_DIM else "monte-carlo"


def _resolve_inner(h: TestFunction, k: int, quad: QuadratureSpec) -> str:
    if quad.inner_method == "auto" and has_analytic_smoothing(h):
        return "analytic"
    return _fallback(k, quad)


def gaussian_mean(h: TestFunction, k: int, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integral of h against the standard Gaussian."""
    if isinstance(h, IndicatorFunction):
        return h.gaussian_mean()
    nodes, wts = _inner_points(k, quad, _fallback(k, quad))
    return float(np.asarray(h(nodes), dtype=float) @ wts)


def _kernel_rows(h, alpha, w, X, nodes, kernel):
    """h(alpha*x + w*nodes) @ kernel for each row x of X: (M,) or (M, c) for an (N, c) kernel."""
    out = np.empty((len(X),) + kernel.shape[1:])
    for m, row in enumerate(X):
        out[m] = np.asarray(h(alpha * row + w * nodes), dtype=float) @ kernel
    return out


def semigroup_apply(h: TestFunction, t: float, x, quad: QuadratureSpec = DEFAULT_QUAD):
    """T_t h(x); accepts a point (k,) or a batch (M,k)."""
    if t < 0.0:
        raise DomainError("semigroup time t must be >= 0")
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    k = X.shape[1]
    if t == 0.0:
        vals = np.asarray(h(X), dtype=float)
        return float(vals[0]) if single else vals
    alpha, w = ou_decay(t), ou_noise(t)
    method = _resolve_inner(h, k, quad)
    if method == "analytic":
        vals = shifted_measure_batch(h.set, alpha * X, w)
    else:
        nodes, wts = _inner_points(k, quad, method)
        vals = _kernel_rows(h, alpha, w, X, nodes, wts)
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
    multiplicities(idx, k)
    alpha, w = ou_decay(s), ou_noise(s)
    method = _resolve_inner(h, k, quad)
    if method == "analytic":
        C = h.set
        vals = np.zeros(len(X)) if C.is_empty else C.smoothed_derivative(alpha, w, X, idx)
    else:
        nodes, wts = _inner_points(k, quad, method)
        kernel = hermite_kernel(wts, nodes, idx)
        vals = (alpha / w) ** len(idx) * _kernel_rows(h, alpha, w, X, nodes, kernel)
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
        C = h.set
        if C.is_empty:
            grad, lap = np.zeros(X.shape), np.zeros(len(X))
        else:
            grad, lap = C.smoothed_jet(alpha, w, X)
    else:
        nodes, wts = _inner_points(k, quad, method)
        kernel = wts[:, None] * np.column_stack(
            [hermite_he(1, nodes), np.sum(hermite_he(2, nodes), axis=1)]
        )
        moments = _kernel_rows(h, alpha, w, X, nodes, kernel)
        grad = (alpha / w) * moments[:, :k]
        lap = (alpha / w) ** 2 * moments[:, k]
    return (grad[0], float(lap[0])) if single else (grad, lap)


# ---------------------------------------------------------------------------
# Generator and backward-equation residual


def generator_apply(g, x) -> float:
    """L g(x) = Laplacian g(x) - x . grad g(x).

    Exact when g carries grad/hess callables, otherwise central differences
    with step 1e-3.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(g, SmoothFunction) and g.grad is not None and g.hess is not None:
        grad = np.asarray(g.grad(x), dtype=float)
        lap = float(np.trace(np.asarray(g.hess(x), dtype=float)))
        return lap - float(x @ grad)
    k = x.size
    dx = 1e-3
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
