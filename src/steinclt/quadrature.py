"""Quadrature building blocks and the configuration of the time integrals.

Tensor Gauss-Hermite grids (GH_NODES per axis) target expectations against
the standard Normal; they are kept for smooth integrands and as the generic
fallback.  The outer integral over the semigroup time s runs over (t, t + 40),
beyond which the integrand is below the double-precision floor, with
Gauss-Legendre nodes after the substitution u = e^{-s}, which removes the
s -> infinity tail and keeps the order-3 derivative weight integrable down to
small t.
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
    """Nodes/weights (z_i, w_i) with sum w_i f(z_i) ~ E f(Z), Z ~ N(0,1)."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


@lru_cache(maxsize=32)
def gauss_hermite_tensor(k: int, n: int):
    """Tensor grid for E f(Z) over N(0, I_k); nodes (n^k, k), weights (n^k,)."""
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
    return nodes, weights


def gauss_legendre_panel(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@dataclass(frozen=True)
class QuadratureSpec:
    """How to evaluate the nested integrals behind T_s and its inverse.

    s_nodes is the number of Gauss-Legendre nodes of the time integral.
    inner_method:
        "auto"         closed form when the test function supports it,
                       otherwise tensor Gauss-Hermite for k <= 3, else MC;
        "analytic"     require the closed form (error if unavailable);
        "gauss-hermite" tensor grid with GH_NODES per axis (k <= 3);
        "monte-carlo"  `mc_samples` draws from a stream with master seed 0.
    """

    s_nodes: int = 64
    inner_method: str = "auto"
    mc_samples: int = 1 << 16

    _METHODS = ("auto", "analytic", "gauss-hermite", "monte-carlo")

    def validate(self) -> None:
        if self.inner_method not in self._METHODS:
            raise ConfigurationError(f"unknown inner_method {self.inner_method!r}")
        if self.s_nodes < 16:
            raise ConfigurationError("s_nodes must be at least 16")
        if self.mc_samples < 2:
            raise ConfigurationError("degenerate inner quadrature size")


DEFAULT_QUAD = QuadratureSpec()
