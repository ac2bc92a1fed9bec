"""Stein-equation solutions through the inverse-generator integral.

psi_t(x) = -integral_t^infinity T_s h~(x) ds solves L psi_t = T_t h~ for the
centered test function h~ = h - E_Phi h.  Spatial derivatives differentiate
under the time integral; the order-m integrand carries the singular weight
(e^{-s} / sqrt(1-e^{-2s}))^m, which the substitution u = e^{-s} absorbs into
a smooth integrand on (0, e^{-t}], handled by a Gauss-Legendre rule of
`_time_node_count(t)` nodes.  The rule is built once per node count per
process and shared read-only (`quadrature.gauss_legendre_1d`); each
`SteinSolution` maps it onto its own interval.
`psi`, `psi_d2` and `psi_d3` integrate `semigroup_apply` and
`semigroup_derivative` over those nodes through one helper, `_time_integral`.

The generator side (Laplacian - x . grad) psi_t and the gradient of psi_t
are built from one derivative jet per (x, s): `semigroup_jet` gives the
(grad, Laplacian) of T_{s_j} h for a batch of s-nodes at once, and the
weighted sum accumulates them node by node, so nothing is recomputed per
coordinate index.  Derivatives take the nodes in batches of at most
`_BATCH_ROW_NODES` (row, node) pairs, one closed-form call per batch; the
value integrand of `psi` runs `semigroup_apply` node by node.  Every sum
runs in node order, so the batching moves no bit of the result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_count, check_real
from .gaussian import _unbatch, hermite_kernel, multiplicities
from .quadrature import DEFAULT_QUAD, MC_SAMPLES, QuadratureSpec, gauss_legendre_panel
from .rng import RngStream
from .semigroup import (
    IndicatorFunction,
    TestFunction,
    _points,
    gaussian_mean,
    ou_noise,
    semigroup_apply,
    semigroup_derivative,
    semigroup_jet,
)

T_MIN = 0.01
# one closed-form derivative call takes at most this many (row, s-node) pairs,
# so a batch holds 4096 // M nodes and at least one.  On the stein-solve
# benchmark (16 time nodes at t = 0.5 and 1.0; 2-vCPU Xeon, five 8 s runs
# each; one call per node: 0.072-0.086 s a pass, 60.5-61.5 MiB peak RSS),
# caps of 1024, 4096 and 16384 pairs and no cap gave 0.059-0.064,
# 0.044-0.057, 0.052-0.061 and 0.050-0.058 s a pass at 60.4-61.5, 60.9-61.0,
# 63.3-63.9 and 63.3-64.0 MiB.
_BATCH_ROW_NODES = 4096


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
    """Integral over (t, infinity) of the cubed smoothing weight: w - atan(w), w = weight at t.

    u = e^{-s} turns the integrand into u^2 (1-u^2)^{-3/2}, whose antiderivative is
    u / sqrt(1-u^2) - asin(u) = w - atan(w).  That difference cancels for small w: at
    w <= 1/4 (t above about 1.4) it is the series w^3 sum_{m<12} (-1)^m w^(2m) / (2m + 3),
    within 4e-16.  About 1e-14 relative wherever the value is a normal double.
    """
    w = smoothing_weight(check_real("t", t))
    if w > 0.25:
        return w - math.atan(w)
    w2, acc = w * w, 0.0
    for m in range(11, -1, -1):  # Horner in w^2
        acc = acc * w2 + (-1) ** m / (2 * m + 3)
    return w * w2 * acc


def weight1_integral_total() -> float:
    """Integral over (0, infinity) of the smoothing weight: pi / 2, atan(weight at t) as t -> 0."""
    return math.pi / 2.0


def _time_node_count(t: float) -> int:
    """N(t), the Gauss-Legendre nodes of the time rule at t: 64 up to t = 0.027, 16 from t = 0.4.

    In u = e^{-s} the integrand is analytic on the rule's interval (0, e^{-t}] and
    has its one singularity at u = 1, where the kernel width sqrt(1 - u^2)
    vanishes; that point lies at x = 2 / e^{-t} - 1 on the rule's [-1, 1], so an
    N-node rule converges like rho^{-2N} with rho = exp(acosh x) (the Bernstein
    ellipse through x).  N(t) is the least N with rho^{-2N} <= 2^-60, held
    within [16, 64]; x is taken from e^{-t}, so nothing overflows up to t = 708.39.
    """
    x = 2.0 / math.exp(-t) - 1.0
    return min(64, max(16, math.ceil(math.log(2.0**60) / (2.0 * math.acosh(x)))))


def _time_rule(t: float, n: int):
    """s-nodes and weights of the n-node Gauss-Legendre rule in u = e^{-s} over s in (t, t + 40)."""
    # past s = t + 40 the integrand is below double precision
    u, du = gauss_legendre_panel(math.exp(-(t + 40.0)), math.exp(-t), n)
    return -np.log(u), du / u  # ds = du / u


class SteinSolution:
    """Evaluation handle for psi_t and its derivatives, for h = 1_C.

    The time integral is discretized once at construction, on
    _time_node_count(t) nodes; each evaluation then takes a batch of points x
    through the s-nodes, a batch of nodes at a time.  t must leave e^{-t} a
    normal double (t <= 708.39): past that the nodes in u = e^{-s} underflow
    and the integral is NaN.
    """

    def __init__(self, t: float, h: TestFunction, quad: QuadratureSpec = DEFAULT_QUAD):
        self.t = check_real("t", t, T_MIN, allow_low=True)
        u_hi = math.exp(-self.t)
        if u_hi < sys.float_info.min:
            raise DomainError(
                f"stein solutions need e^-t to be a normal double (t <= 708.39), got t = {t}"
            )
        self.h = h
        self.quad = quad
        self.s_nodes, self.s_weights = _time_rule(self.t, _time_node_count(self.t))

    def center(self, k: int) -> float:
        return gaussian_mean(self.h, k, self.quad)


def _node_batches(sol: SteinSolution, X):
    """Slices of the s-nodes, each at most _BATCH_ROW_NODES // M nodes long and at least 1."""
    step = max(_BATCH_ROW_NODES // max(len(X), 1), 1)
    return [slice(j, j + step) for j in range(0, len(sol.s_nodes), step)]


def _time_integral(sol: SteinSolution, X, integrand) -> np.ndarray:
    """-sum_j s_weights[j] * integrand(s_j), for an integrand giving (S, M) values at S s-nodes."""
    out = np.empty((len(X), len(sol.s_nodes)))
    for nodes in _node_batches(sol, X):
        out[:, nodes] = integrand(sol.s_nodes[nodes]).T
    return -(out @ sol.s_weights)


def _jet_integral(sol: SteinSolution, X):
    """Gradient (M, k) and Laplacian (M,) of psi_t, one jet per s-node, summed in node order."""
    grad = np.zeros(X.shape)
    lap = np.zeros(len(X))
    for nodes in _node_batches(sol, X):
        g, l = semigroup_jet(sol.h, sol.s_nodes[nodes], X, sol.quad)
        for weight, g_node, l_node in zip(sol.s_weights[nodes], g, l):
            grad -= weight * g_node
            lap -= weight * l_node
    return grad, lap


def psi(sol: SteinSolution, x):
    """psi_t(x) = -integral of the centered smoothing over s in (t, t + 40)."""
    X, single = _points(sol.h, x)
    center = sol.center(X.shape[1])

    def values(times):
        return np.array([semigroup_apply(sol.h, s, X, sol.quad) - center for s in times.tolist()])

    return _unbatch(_time_integral(sol, X, values), single)


def psi_d1(sol: SteinSolution, x, i: int):
    """First partial derivative of psi_t."""
    X, single = _points(sol.h, x)
    multiplicities((i,), X.shape[1])
    grad, _ = _jet_integral(sol, X)
    return _unbatch(grad[:, i], single)


def _psi_partial(sol: SteinSolution, x, idx, order: int):
    """D_idx psi_t for an index of the given order (psi_d2, psi_d3)."""
    X, single = _points(sol.h, x)
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
    X, single = _points(sol.h, x)
    grad, lap = _jet_integral(sol, X)
    return _unbatch(lap - np.sum(X * grad, axis=1), single)


def smoothed_target(sol: SteinSolution, x):
    """T_t h~(x), the right-hand side the Stein solution must reproduce."""
    X, single = _points(sol.h, x)
    k = X.shape[1]
    vals = np.asarray(semigroup_apply(sol.h, sol.t, X, sol.quad), dtype=float)
    vals = vals - sol.center(k)
    return _unbatch(vals, single)


def stein_residual(sol: SteinSolution, x):
    """T_t h~(x) - (Laplacian - x.grad) psi_t(x); zero up to quadrature error."""
    X, single = _points(sol.h, x)
    vals = np.asarray(smoothed_target(sol, X)) - np.asarray(laplacian_drift(sol, X))
    return _unbatch(vals, single)


# ---------------------------------------------------------------------------
# The uniform double-integral kernel estimate


@dataclass(frozen=True)
class KernelBoundReport:
    """sup-over-shifts magnitude of the leave-one-out kernel double integral."""

    max_abs: float
    envelope: float       # k * e^{2s} * (1 - e^{-2s})
    implied_constant: float
    per_shift: tuple
    std_error: float      # 0 where the kernel is in closed form


def double_integral_kernel_report(
    h: TestFunction,
    n: int,
    s: float,
    idx,
    shift_grid,
    stream: RngStream | None = None,
) -> KernelBoundReport:
    """Evaluate the double smoothing integral with a third-derivative kernel.

    For each shift u the quantity is
        E_{X,Z}[ h~( a X + e^{-s} u + w Z ) * He_idx(Z) ],
    a = sqrt((n-1)/n) e^{-s}, w = sqrt(1-e^{-2s}), X, Z independent standard
    Normal.  With a X + w Z = sigma W, sigma^2 = 1 - e^{-2s}/n, Mehler's formula
    gives E[He_idx(Z) | W] = (w/sigma)^3 He_idx(W), and Gaussian integration by
    parts turns the quantity into w^3 D_idx P(y + sigma W in C) at y = e^{-s} u:
    the set's `smoothed_derivative`, exact at every k for a half-space, ball or
    box.  Any other h takes the mean of (h(y + sigma W) - E_Phi h) (w/sigma)^3
    He_idx(W) over one Monte Carlo draw of W from `stream`, with its standard error.

    The report carries the max over shifts and the constant implied by the
    envelope k e^{2s}(1-e^{-2s}).  It is one triple's value, which does not grow
    with k on the catalog sets ({x_1 <= 0} gives the 1-D value at every k).
    The envelope's k counts coordinates: for a summand with independent
    mean-zero coordinates only the k diagonal triples (i, i, i) enter the
    third-order term, each at most this sup.
    """
    n = check_count("n", n, 2)
    check_real("s", s)
    shifts, _ = _points(h, shift_grid)
    if not len(shifts):
        raise DomainError("shift_grid holds no shifts")
    k = shifts.shape[1]
    multiplicities(idx, k, orders=(3,))
    es, w = math.exp(-s), ou_noise(s)
    sigma = math.sqrt(1.0 - math.exp(-2.0 * s) / n)

    values, std_error = None, 0.0
    if isinstance(h, IndicatorFunction) and h.set.is_empty:
        values = np.zeros(len(shifts))
    elif isinstance(h, IndicatorFunction):
        d = h.set.smoothed_derivative(np.ones(1), np.array([sigma]), es * shifts, idx)
        values = None if d is None else np.abs(w**3 * d[0])
    if values is None:
        W = (stream or RngStream(0, stream_id=777)).generator().standard_normal((MC_SAMPLES, k))
        kern = hermite_kernel(np.full(MC_SAMPLES, (w / sigma) ** 3), W, idx)
        center = gaussian_mean(h, k)
        values, ses = np.empty(len(shifts)), np.empty(len(shifts))
        for r, u_vec in enumerate(shifts):
            prod = (np.asarray(h(es * u_vec + sigma * W), dtype=float) - center) * kern
            values[r], ses[r] = abs(np.mean(prod)), np.std(prod)
        std_error = float(np.max(ses)) / math.sqrt(MC_SAMPLES)

    envelope = k * math.exp(2.0 * s) * (-math.expm1(-2.0 * s))
    max_abs = float(np.max(values))
    return KernelBoundReport(
        max_abs=max_abs,
        envelope=envelope,
        implied_constant=max_abs / envelope,
        per_shift=tuple(values.tolist()),
        std_error=std_error,
    )
