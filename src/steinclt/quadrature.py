"""Quadrature building blocks and the configuration of the time integrals.

Tensor Gauss-Hermite grids (GH_NODES per axis) target expectations against
the standard Normal; they are kept for smooth integrands and as the generic
fallback.  The outer integral over the semigroup time s runs over (t, t + 40),
beyond which the integrand is below the double-precision floor, with
Gauss-Legendre nodes after the substitution u = e^{-s}, which removes the
s -> infinity tail and keeps the order-3 derivative weight integrable down to
small t.  `QuadratureSpec` holds the three settings of those integrals and
checks them when it is built, so no evaluation runs on a bad spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

GH_TENSOR_MAX_DIM = 3
GH_NODES = 32


@lru_cache(maxsize=64)
def gauss_hermite_1d(n: int):
    """Read-only nodes/weights (z_i, w_i) with sum w_i f(z_i) ~ E f(Z), Z ~ N(0,1)."""
    x, w = np.polynomial.hermite.hermgauss(n)
    z, w = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    z.flags.writeable = w.flags.writeable = False  # cached: shared by every caller and thread
    return z, w


@lru_cache(maxsize=32)
def gauss_hermite_tensor(k: int, n: int):
    """Tensor grid for E f(Z) over N(0, I_k); read-only nodes (n^k, k), weights (n^k,)."""
    if k > GH_TENSOR_MAX_DIM:
        raise ConfigurationError(
            f"tensor Gauss-Hermite is limited to k <= {GH_TENSOR_MAX_DIM}, got k={k}"
        )
    z1, w1 = gauss_hermite_1d(n)
    grids = np.meshgrid(*([z1] * k), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = w1
    for _ in range(k - 1):
        weights = np.multiply.outer(weights, w1).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panel(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


_INNER_METHODS = ("auto", "gauss-hermite", "monte-carlo")


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate the nested integrals behind T_s and its inverse.

    s_nodes is the number of Gauss-Legendre nodes of the time integral.
    inner_method:
        "auto"         closed form when the test function supports it,
                       otherwise tensor Gauss-Hermite for k <= 3, else MC;
        "gauss-hermite" tensor grid with GH_NODES per axis (k <= 3);
        "monte-carlo"  `mc_samples` draws from a stream with master seed 0.
    A spec is checked when it is built: an unknown method, s_nodes < 16 or
    mc_samples < 2 raises ConfigurationError.
    """

    s_nodes: int = 64
    inner_method: str = "auto"
    mc_samples: int = 1 << 16

    def __post_init__(self):
        if self.inner_method not in _INNER_METHODS:
            raise ConfigurationError(f"unknown inner_method {self.inner_method!r}")
        if self.s_nodes < 16:
            raise ConfigurationError("s_nodes must be at least 16")
        if self.mc_samples < 2:
            raise ConfigurationError("degenerate inner quadrature size")


DEFAULT_QUAD = QuadratureSpec()
