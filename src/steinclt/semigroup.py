"""Ornstein-Uhlenbeck semigroup: T_t action, generator, residuals.

T_t h(x) = E h(e^{-t} x + sqrt(1 - e^{-2t}) Z) interpolates between the
identity (t = 0) and the Gaussian mean (t -> infinity); its generator is
L = Laplacian - x . grad.  For indicator test functions of half-spaces, balls
and boxes the smoothing has a closed form (one-dimensional Gaussian CDFs, and
for the ball a noncentral chi-square CDF whose lambda-derivatives are
noncentral chi-square densities), which the Stein solver leans on heavily;
for a dilated box the value has a closed form but its derivatives do not.
Those closed forms live on the set classes in `convex` (`shifted_measure`,
`smoothed_derivative`, `smoothed_jet`); this module calls the one hook each
function needs and falls back to quadrature where it returns None.  The
generic fallbacks are tensor Gauss-Hermite
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
Both take one time s or a 1-D array of times: a closed form then runs once
for the whole batch of times and returns a leading time axis, bit for bit
the values of one call per time, while the quadrature fallback (and a set
whose derivative hook returns None) still runs time by time.
"""

from __future__ import annotations

import math

import numpy as np

from .convex import ConvexSet, _per_node, gaussian_measure, shifted_measure_batch
from .errors import DomainError, check_real
from .gaussian import _as_points, _unbatch, hermite_he, hermite_kernel, multiplicities
from .quadrature import (
    DEFAULT_QUAD, GH_NODES, GH_TENSOR_MAX_DIM, MC_SAMPLES, QuadratureSpec, gauss_hermite_tensor,
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

    def points(x, ndims):
        x = np.asarray(x, dtype=float)
        if x.ndim not in ndims or x.shape[-1] != len(orders):
            raise DomainError(f"needs points of length {len(orders)}, got shape {x.shape}")
        return x

    def fn(x):
        X, single = _as_points(points(x, (1, 2)))
        val = np.ones(len(X))
        for j, m in enumerate(orders):
            if m:
                val = val * hermite_he(m, X[:, j])
        return _unbatch(val, single)

    def factor(m, r, z):  # d^r/dz^r He_m(z) = m!/(m-r)! He_{m-r}(z), 0 past m
        return math.perm(m, r) * float(hermite_he(m - r, z)) if r <= m else 0.0

    # every gradient and Hessian entry is a product of one factor per coordinate
    def grad(x):
        x = points(x, (1,))
        return np.array([
            math.prod([factor(mi, 1, x[i])]
                      + [factor(m, 0, x[j]) for j, m in enumerate(orders) if j != i])
            for i, mi in enumerate(orders)
        ])

    def hess(x):
        x = points(x, (1,))
        return np.array([
            [math.prod(factor(m, (a == i) + (a == j), x[a]) for a, m in enumerate(orders))
             for j in range(len(orders))]
            for i in range(len(orders))
        ])

    return SmoothFunction(fn, grad=grad, hess=hess)


# ---------------------------------------------------------------------------
# Smoothed values and their spatial derivatives (closed forms + fallbacks)


def has_analytic_smoothing(h: TestFunction) -> bool:
    """Whether E h(a x + w Z) has a closed form for this test function."""
    return isinstance(h, IndicatorFunction) and (h.set.is_empty or h.set.has_closed_form)


def _inner_points(k: int, method: str):
    if method == "gauss-hermite":
        return gauss_hermite_tensor(k, GH_NODES)
    draws = RngStream(0, stream_id=909).generator().standard_normal((MC_SAMPLES, k))
    return draws, np.full(MC_SAMPLES, 1.0 / MC_SAMPLES)


def _fallback(k: int, quad: QuadratureSpec) -> str:
    """The quadrature without a closed form: quad's method, or for "auto" by dimension."""
    if quad.inner_method != "auto":
        return quad.inner_method
    return "gauss-hermite" if k <= GH_TENSOR_MAX_DIM else "monte-carlo"


def _closed_form_set(h: TestFunction, quad: QuadratureSpec):
    """The set whose hooks to try first, or None to go straight to quadrature.

    Each caller asks one hook; a hook that returns None sends it to the
    quadrature fallback, so a set may have a closed-form value and
    quadrature derivatives.
    """
    return h.set if quad.inner_method == "auto" and isinstance(h, IndicatorFunction) else None


def gaussian_mean(h: TestFunction, k: int, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integral of h against the standard Gaussian."""
    if isinstance(h, IndicatorFunction):
        return gaussian_measure(h.set)
    nodes, wts = _inner_points(k, _fallback(k, quad))
    return float(np.asarray(h(nodes), dtype=float) @ wts)


def _derivative_times(s):
    """(times, one_time): s as a 1-D array of OU times, and whether it was one time.

    DomainError unless s is one time or a non-empty 1-D array, every time finite and > 0.
    """
    times = np.asarray(s, dtype=float)
    # written so that a NaN time fails too
    if times.ndim > 1 or times.size == 0 or not np.all((times > 0.0) & np.isfinite(times)):
        raise DomainError(f"semigroup derivatives need finite times s > 0, got {s}")
    return np.atleast_1d(times), times.ndim == 0


def _kernel_rows(h, alpha, w, X, nodes, kernel):
    """h(alpha*x + w*nodes) @ kernel for each row x of X: (M,) or (M, c) for an (N, c) kernel.

    A row with a NaN entry gives NaN, as in the closed forms, not a point outside h's set.
    """
    out = np.full((len(X),) + kernel.shape[1:], np.nan)
    for m, row in enumerate(X):
        if not np.isnan(row).any():
            out[m] = np.asarray(h(alpha * row + w * nodes), dtype=float) @ kernel
    return out


def _kernel_rows_per_time(h, alpha, w, X, nodes, kernel):
    """`_kernel_rows` at each time, stacked (S, M, ...): the quadrature runs time by time."""
    return np.stack([
        _kernel_rows(h, a, b, X, nodes, kernel) for a, b in zip(alpha.tolist(), w.tolist())
    ])


def _points(h, x):
    """`_as_points(x)`, checked against the set's dimension when h is an indicator."""
    return _as_points(x, h.set.dim if isinstance(h, IndicatorFunction) else None)


def _select(vals, one_time, single):
    """(S, M, ...) values without the time axis for one time and the row axis for one point."""
    out = vals[0 if one_time else slice(None), 0 if single else slice(None)]
    return float(out) if out.ndim == 0 else out


def semigroup_apply(h: TestFunction, t: float, x, quad: QuadratureSpec = DEFAULT_QUAD):
    """T_t h(x); accepts a point (k,) or a batch (M,k)."""
    check_real("semigroup time t", t, allow_low=True)
    X, single = _points(h, x)
    k = X.shape[1]
    if t == 0.0:
        return _unbatch(np.asarray(h(X), dtype=float), single)
    alpha, w = ou_decay(t), ou_noise(t)
    C = _closed_form_set(h, quad)
    vals = None if C is None else shifted_measure_batch(C, alpha * X, w)
    if vals is None:
        nodes, wts = _inner_points(k, _fallback(k, quad))
        vals = _kernel_rows(h, alpha, w, X, nodes, wts)
    return _unbatch(vals, single)


def semigroup_derivative(h: TestFunction, s, x, idx, quad: QuadratureSpec = DEFAULT_QUAD):
    """Spatial derivative D_idx T_s h(x) of the smoothed test function.

    Uses the derivative-on-the-kernel representation: order-m derivatives pick
    up the weight (e^{-s}/w)^m against Hermite-polynomial factors inside the
    expectation, i.e. the integrand stays bounded by h itself.

    s is one time or a 1-D array of S times, x a point (k,) or a batch (M, k).
    Returns a float or (M,) for one time, and (S,) or (S, M), the time axis
    first, for an array of times.
    """
    times, one_time = _derivative_times(s)
    X, single = _points(h, x)
    k = X.shape[1]
    idx = tuple(int(i) for i in idx)
    multiplicities(idx, k)
    alpha, w = _per_node(ou_decay, times), _per_node(ou_noise, times)
    C = _closed_form_set(h, quad)
    vals = None
    if C is not None:
        if C.is_empty:
            vals = np.zeros((len(times), len(X)))
        else:
            vals = C.smoothed_derivative(alpha, w, X, idx)
    if vals is None:
        nodes, wts = _inner_points(k, _fallback(k, quad))
        kernel = hermite_kernel(wts, nodes, idx)
        scale = _per_node(lambda a, b: (a / b) ** len(idx), alpha, w)
        vals = scale[:, None] * _kernel_rows_per_time(h, alpha, w, X, nodes, kernel)
    return _select(vals, one_time, single)


def semigroup_jet(h: TestFunction, s, x, quad: QuadratureSpec = DEFAULT_QUAD):
    """Gradient and Laplacian of x -> T_s h(x) at one time s > 0 or at each of S times.

    Returns (grad, lap) with shapes (M, k) and (M,) for a batch, or (k,) and
    a float for one point; an array of times puts a time axis first, (S, M, k)
    and (S, M), or (S, k) and (S,).  Catalog indicators use their closed forms
    (the ball needs the noncentral chi-square densities f_{k+2} and f_{k+4},
    no CDF); otherwise h is evaluated once per row and weighted by the kernels
    He_1(z_i) and sum_i He_2(z_i) of the derivative-on-the-kernel form.
    """
    times, one_time = _derivative_times(s)
    X, single = _points(h, x)
    k = X.shape[1]
    alpha, w = _per_node(ou_decay, times), _per_node(ou_noise, times)
    C = _closed_form_set(h, quad)
    jet = None
    if C is not None:
        if C.is_empty:
            jet = np.zeros((len(times),) + X.shape), np.zeros((len(times), len(X)))
        else:
            jet = C.smoothed_jet(alpha, w, X)
    if jet is None:
        nodes, wts = _inner_points(k, _fallback(k, quad))
        kernel = wts[:, None] * np.column_stack(
            [hermite_he(1, nodes), np.sum(hermite_he(2, nodes), axis=1)]
        )
        moments = _kernel_rows_per_time(h, alpha, w, X, nodes, kernel)
        squares = _per_node(lambda a, b: (a / b) ** 2, alpha, w)
        jet = (alpha / w)[:, None, None] * moments[..., :k], squares[:, None] * moments[..., k]
    grad, lap = jet
    return _select(grad, one_time, single), _select(lap, one_time, single)


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
    return _fd_generator(lambda pt: float(np.asarray(g(pt[None, :]), dtype=float)[0]), x, 1e-3)


def _fd_generator(f, x: np.ndarray, dx: float) -> float:
    """L f(x) by central differences of step dx; f maps one point to a float."""
    k = x.size
    f0 = f(x)
    lap = 0.0
    drift = 0.0
    for i in range(k):
        e = np.zeros(k)
        e[i] = dx
        fp = f(x + e)
        fm = f(x - e)
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
    check_real("t", t)
    check_real("dt", dt)
    check_real("dx", dx)
    x = np.asarray(x, dtype=float)

    def T(tt, pt):
        return semigroup_apply(h, tt, pt, quad)

    dfdt = (T(t + dt, x) - T(t - dt, x)) / (2.0 * dt)
    return dfdt - _fd_generator(lambda pt: T(t, pt), x, dx)
