"""Stein-equation solutions through the inverse-generator integral.

psi_t(x) = -integral_t^infinity T_s h~(x) ds solves L psi_t = T_t h~ for the
centered test function h~ = h - E_Phi h.  Spatial derivatives differentiate
under the time integral; the order-m integrand carries the singular weight
(e^{-s} / sqrt(1-e^{-2s}))^m, which the substitution u = e^{-s} absorbs into
a smooth integrand on (0, e^{-t}], handled by fixed Gauss-Legendre nodes.
`psi`, `psi_d2` and `psi_d3` integrate `semigroup_apply` and
`semigroup_derivative` over those nodes through one helper, `_time_integral`.

The generator side (Laplacian - x . grad) psi_t and the gradient of psi_t
are built from one derivative jet per (x, s): a single pass over the
s-nodes accumulates w_j * (grad, Laplacian) of T_{s_j} h from
`semigroup_jet`, so nothing is recomputed per coordinate index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError
from .gaussian import hermite_kernel, multiplicities
from .quadrature import (
    DEFAULT_QUAD,
    GH_NODES,
    GH_TENSOR_MAX_DIM,
    QuadratureSpec,
    gauss_hermite_tensor,
    gauss_legendre_panel,
)
from .convex import shifted_measure_batch
from .rng import RngStream
from .semigroup import (
    TestFunction,
    gaussian_mean,
    has_analytic_smoothing,
    ou_noise,
    semigroup_apply,
    semigroup_derivative,
    semigroup_jet,
)

T_MIN = 0.01


def smoothing_weight(s):
    """e^{-s} / sqrt(1 - e^{-2s}), the order-1 derivative weight."""
    s = np.asarray(s, dtype=float)
    out = np.exp(-s) / np.sqrt(-np.expm1(-2.0 * s))
    return out if out.ndim else float(out)


def weight_bound(s):
    """The elementary majorant 1 / sqrt(2 s)."""
    s = np.asarray(s, dtype=float)
    out = 1.0 / np.sqrt(2.0 * s)
    return out if out.ndim else float(out)


def weight3_integral(t: float) -> float:
    """Integral over (t, infinity) of the cubed smoothing weight.

    Computed by adaptive quadrature after u = e^{-s}: the integrand becomes
    u^2 (1-u^2)^{-3/2} on (0, e^{-t}).
    """
    if t <= 0.0:
        raise DomainError("weight3_integral needs t > 0")
    val, _ = integrate.quad(
        lambda u: u * u * (1.0 - u * u) ** -1.5, 0.0, math.exp(-t), epsabs=1e-12, epsrel=1e-12
    )
    return val


def weight1_integral_total() -> float:
    """Integral over (0, infinity) of the smoothing weight itself (finite)."""
    val, _ = integrate.quad(
        lambda u: (1.0 - u * u) ** -0.5, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12
    )
    return val


class SteinSolution:
    """Evaluation handle for psi_t and its derivatives, for h = 1_C.

    The time integral is discretized once at construction; each evaluation
    then takes a batch of points x through every s-node at once.
    """

    def __init__(self, t: float, h: TestFunction, quad: QuadratureSpec = DEFAULT_QUAD):
        if not (math.isfinite(t) and t >= T_MIN):
            raise DomainError(f"stein solutions are evaluated for finite t >= {T_MIN}, got {t}")
        self.t = float(t)
        self.h = h
        self.quad = quad
        # past s = t + 40 the integrand is below double precision
        u_lo, u_hi = math.exp(-(self.t + 40.0)), math.exp(-self.t)
        u, du = gauss_legendre_panel(u_lo, u_hi, quad.s_nodes)
        self.s_nodes = -np.log(u)
        self.s_weights = du / u  # ds = du / u

    def center(self, k: int) -> float:
        return gaussian_mean(self.h, k, self.quad)


def _batched(x):
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    return np.atleast_2d(X), single


def _unbatch(vals, single):
    return float(vals[0]) if single else vals


def _time_integral(sol: SteinSolution, X, integrand) -> np.ndarray:
    """-sum_j s_weights[j] * integrand(s_j), for an integrand giving (M,) values per s-node."""
    out = np.empty((len(X), len(sol.s_nodes)))
    for j, s in enumerate(sol.s_nodes):
        out[:, j] = integrand(float(s))
    return -(out @ sol.s_weights)


def _jet_integral(sol: SteinSolution, X):
    """Gradient (M, k) and Laplacian (M,) of psi_t, one jet per s-node."""
    grad = np.zeros(X.shape)
    lap = np.zeros(len(X))
    for s, weight in zip(sol.s_nodes, sol.s_weights):
        g, l = semigroup_jet(sol.h, float(s), X, sol.quad)
        grad -= weight * g
        lap -= weight * l
    return grad, lap


def psi(sol: SteinSolution, x):
    """psi_t(x) = -integral of the centered smoothing over s in (t, t + 40)."""
    X, single = _batched(x)
    center = sol.center(X.shape[1])
    vals = _time_integral(sol, X, lambda s: semigroup_apply(sol.h, s, X, sol.quad) - center)
    return _unbatch(vals, single)


def psi_d1(sol: SteinSolution, x, i: int):
    """First partial derivative of psi_t."""
    X, single = _batched(x)
    multiplicities((i,), X.shape[1])
    grad, _ = _jet_integral(sol, X)
    return _unbatch(grad[:, i], single)


def _psi_partial(sol: SteinSolution, x, idx, order: int):
    """D_idx psi_t for an index of the given order (psi_d2, psi_d3)."""
    X, single = _batched(x)
    multiplicities(idx, X.shape[1], orders=(order,))
    vals = _time_integral(sol, X, lambda s: semigroup_derivative(sol.h, s, X, idx, sol.quad))
    return _unbatch(vals, single)


def psi_d2(sol: SteinSolution, x, idx):
    """Second mixed partial of psi_t; idx = (i, j)."""
    return _psi_partial(sol, x, idx, 2)


def psi_d3(sol: SteinSolution, x, idx):
    """Third mixed partial of psi_t; idx = (i, j, l)."""
    return _psi_partial(sol, x, idx, 3)


def laplacian_drift(sol: SteinSolution, x):
    """(Laplacian - x . grad) psi_t at x: the generator applied to psi_t."""
    X, single = _batched(x)
    grad, lap = _jet_integral(sol, X)
    return _unbatch(lap - np.sum(X * grad, axis=1), single)


def smoothed_target(sol: SteinSolution, x):
    """T_t h~(x), the right-hand side the Stein solution must reproduce."""
    X, single = _batched(x)
    k = X.shape[1]
    vals = np.asarray(semigroup_apply(sol.h, sol.t, X, sol.quad), dtype=float)
    vals = vals - sol.center(k)
    return _unbatch(vals, single)


def stein_residual(sol: SteinSolution, x):
    """T_t h~(x) - (Laplacian - x.grad) psi_t(x); zero up to quadrature error."""
    X, single = _batched(x)
    vals = np.asarray(smoothed_target(sol, X)) - np.asarray(laplacian_drift(sol, X))
    vals = np.atleast_1d(vals)
    return _unbatch(vals, single)


# ---------------------------------------------------------------------------
# The uniform double-integral kernel estimate


@dataclass(frozen=True)
class KernelBoundReport:
    """sup-over-shifts magnitude of the leave-one-out kernel double integral."""

    max_abs: float
    argmax_shift: tuple
    envelope: float       # k * e^{2s} * (1 - e^{-2s})
    implied_constant: float
    per_shift: tuple
    std_error: float      # 0 for deterministic inner quadrature


def double_integral_kernel_report(
    h: TestFunction,
    n: int,
    s: float,
    idx,
    shift_grid,
    quad: QuadratureSpec = DEFAULT_QUAD,
    stream: RngStream | None = None,
) -> KernelBoundReport:
    """Evaluate the double smoothing integral with a third-derivative kernel.

    For each shift u the quantity is
        E_{X,Z}[ h~( a X + e^{-s} u + w Z ) * He_idx(Z) ],
    a = sqrt((n-1)/n) e^{-s}, w = sqrt(1-e^{-2s}), X, Z independent standard
    Normal.  The X-average is done in closed form for catalog indicator sets
    (it is a Gaussian-smoothed measure), leaving a smooth Z-integrand for the
    tensor grid; otherwise both averages are Monte Carlo.  The report carries
    the max over shifts and the constant implied by the k e^{2s}(1-e^{-2s})
    envelope.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if s <= 0.0:
        raise DomainError("s must be > 0")
    shifts = np.atleast_2d(np.asarray(shift_grid, dtype=float))
    k = shifts.shape[1]
    multiplicities(idx, k, orders=(3,))
    a = math.sqrt((n - 1) / n) * math.exp(-s)
    es, w = math.exp(-s), ou_noise(s)

    analytic = has_analytic_smoothing(h) and k <= GH_TENSOR_MAX_DIM
    center = gaussian_mean(h, k, quad)
    values = np.empty(len(shifts))
    std_error = 0.0
    if analytic:
        nodes, wts = gauss_hermite_tensor(k, GH_NODES)
        kernel = hermite_kernel(wts, nodes, idx)
        for r, u_vec in enumerate(shifts):
            pts = es * u_vec + w * nodes
            g = shifted_measure_batch(h.set, pts, a)
            values[r] = abs(float((g - center) @ kernel))
    else:
        if stream is None:
            stream = RngStream(0, stream_id=777)
        gen = stream.generator()
        m_draws = quad.mc_samples
        Xd = gen.standard_normal((m_draws, k))
        Zd = gen.standard_normal((m_draws, k))
        kern = hermite_kernel(np.ones(m_draws), Zd, idx)
        ses = []
        for r, u_vec in enumerate(shifts):
            pts = a * Xd + es * u_vec + w * Zd
            hv = np.asarray(h(pts), dtype=float) - center
            prod = hv * kern
            values[r] = abs(float(np.mean(prod)))
            ses.append(float(np.std(prod) / math.sqrt(m_draws)))
        std_error = max(ses)

    envelope = k * math.exp(2.0 * s) * (-math.expm1(-2.0 * s))
    arg = int(np.argmax(values))
    return KernelBoundReport(
        max_abs=float(values[arg]),
        argmax_shift=tuple(shifts[arg].tolist()),
        envelope=envelope,
        implied_constant=float(values[arg] / envelope),
        per_shift=tuple(values.tolist()),
        std_error=std_error,
    )
