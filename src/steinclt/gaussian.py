"""Standard k-dimensional Gaussian core.

Density, Hermite-form third partial derivatives, exact absolute-derivative
integrals, quantiles of the Gaussian norm, and seeded sampling.  Everything is
for the standard Normal N(0, I_k); non-identity covariances are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionMismatchError, DomainError, check_count
from .rng import RngStream

SQRT_2PI = math.sqrt(2.0 * math.pi)

QUANTILE_MASS = 7.0 / 8.0


def norm_cdf(x):
    """1D standard Normal CDF."""
    return special.ndtr(x)


def norm_pdf(x):
    """1D standard Normal density."""
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def hermite_he(m: int, z):
    """Probabilists' Hermite polynomial He_m, m <= 3."""
    z = np.asarray(z, dtype=float)
    if m == 0:
        return np.ones_like(z)
    if m == 1:
        return z
    if m == 2:
        return z * z - 1.0
    if m == 3:
        return z * (z * z - 3.0)
    raise DomainError(f"hermite_he supports m <= 3, got {m}")


def _as_points(x, dim=None):
    """A point (k,) or a batch (M, k) as (points (M, k), was_single flag).

    The library's one point-batch entry: DomainError unless x is 1-D or 2-D,
    and DimensionMismatchError when a set's dimension dim is given and k differs.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2):
        raise DomainError("expected a point (k,) or a batch of points (M, k)")
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatchError(
            f"points of dimension {pts.shape[1]} vs set of dimension {dim}"
        )
    return pts, single


def _unbatch(vals, single):
    """The value at the one point as a Python scalar when x was one point, else vals."""
    return vals[0].item() if single else vals


def phi(x):
    """Standard Normal density at x in R^k; accepts a point or a batch."""
    pts, single = _as_points(x)
    if not np.all(np.isfinite(pts)):
        raise DomainError("phi requires finite coordinates")
    k = pts.shape[1]
    val = np.exp(-0.5 * np.sum(pts * pts, axis=1)) / SQRT_2PI**k
    return _unbatch(val, single)


def multiplicities(idx, k: int, orders=(1, 2, 3)) -> dict[int, int]:
    """Coordinate -> multiplicity of a 0-based derivative index, in ascending coordinate order.

    DomainError unless len(idx) is one of `orders` and every entry is in [0, k).
    """
    idx = tuple(int(i) for i in idx)
    if len(idx) not in orders:
        raise DomainError(f"derivative order must be one of {tuple(orders)}, got {len(idx)}")
    if any(not 0 <= i < k for i in idx):
        raise DomainError(f"derivative index {idx} out of range for dimension {k}")
    return {j: idx.count(j) for j in sorted(set(idx))}


def hermite_kernel(base, z, idx):
    """base * prod_j He_{m_j}(z[:, j]), m_j the multiplicity of coordinate j in idx.

    The derivative-on-the-kernel weight of D_idx T_s h (and, for base -phi, of
    D_idx phi); ascending factor order makes a permuted idx give identical floats.
    """
    z = np.asarray(z, dtype=float)
    out = base
    for j, m in multiplicities(idx, z.shape[1]).items():
        out = out * hermite_he(m, z[:, j])
    return out


def d3_phi(x, idx):
    """Third mixed partial D_{idx} phi via the Hermite product form.

    Each coordinate j contributes (-1)^{m_j} He_{m_j}(x_j) where m_j is the
    multiplicity of j in idx, so the result is symmetric in idx by
    construction.  Indices are 0-based.
    """
    pts, single = _as_points(x)
    if not np.all(np.isfinite(pts)):
        raise DomainError("d3_phi requires finite coordinates")
    multiplicities(idx, pts.shape[1], orders=(3,))
    val = hermite_kernel(-phi(pts), pts, idx)  # (-1)^3 from the three differentiations
    return _unbatch(val, single)


def abs_hermite_moment(m: int) -> float:
    """E |He_m(Z)| for Z ~ N(0,1), via the exact piecewise antiderivative.

    d/dz [-He_{m-1}(z) phi(z)] = He_m(z) phi(z), so the integral over each
    sign segment of He_m is a difference of boundary terms.
    """
    if m == 0:
        return 1.0
    roots = {1: [0.0], 2: [-1.0, 1.0], 3: [-math.sqrt(3.0), 0.0, math.sqrt(3.0)]}[m]

    def antideriv(z: float) -> float:
        if math.isinf(z):
            return 0.0
        return -float(hermite_he(m - 1, z)) * float(norm_pdf(z))

    cuts = [-math.inf] + roots + [math.inf]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += abs(antideriv(b) - antideriv(a))
    return total


_PATTERNS = {
    "distinct": (1, 1, 1),
    "pair": (2, 1),
    "triple": (3,),
}


def abs_d3_integral(pattern: str, k: int) -> float:
    """Integral of |D_{i i' i''} phi| over R^k, by index pattern.

    The integral factorizes over coordinates; each coordinate of multiplicity
    m contributes E|He_m(Z)| and the remaining ones integrate to 1, so the
    value does not depend on k once the pattern fits.
    """
    if pattern not in _PATTERNS:
        raise DomainError(f"pattern must be one of {sorted(_PATTERNS)}, got {pattern!r}")
    orders = _PATTERNS[pattern]
    if check_count("k", k, 1) < len(orders):
        raise DomainError(f"pattern {pattern!r} needs at least {len(orders)} dimensions")
    val = 1.0
    for m in orders:
        val *= abs_hermite_moment(m)
    return val


def chi_cdf(r, k: int):
    """P(|Z| <= r) for Z ~ N(0, I_k); the chi CDF with k degrees of freedom, NaN at NaN r."""
    r = np.asarray(r, dtype=float)
    out = special.gammainc(0.5 * k, 0.5 * np.square(np.maximum(r, 0.0)))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class QuantileResult:
    """7/8-quantile a_k of the Gaussian norm with its achieved mass."""

    k: int
    a_k: float
    achieved_mass: float


def quantile_a(k: int) -> QuantileResult:
    """Radius a_k with P(|Z| < a_k) = 7/8: sqrt(2 P^{-1}(k/2, 7/8)), as |Z|^2 / 2 is Gamma(k/2).

    P^{-1} is the inverse regularized incomplete gamma function (DLMF 8.2,
    `special.gammaincinv`); the achieved mass is within 1e-15 of 7/8 for
    k = 1..128 and within 5e-14 at k = 10^6.
    """
    k = check_count("dimension k", k, 1)
    a = math.sqrt(2.0 * special.gammaincinv(0.5 * k, QUANTILE_MASS))
    return QuantileResult(k=k, a_k=a, achieved_mass=float(chi_cdf(a, k)))


def sample_std_normal(n_samples: int, k: int, stream: RngStream) -> np.ndarray:
    """(n_samples, k) iid N(0, I_k) draws, bit-reproducible from the stream."""
    shape = check_count("n_samples", n_samples, 0), check_count("k", k, 1)
    return stream.generator().standard_normal(shape)
