"""Source laws for the normalized sums and the empirical discrepancy.

The iid catalog (gaussian, rademacher, uniform, exponential) is built from
product laws with mean zero and identity covariance by construction, so every
third-moment functional is either closed form or a deterministic tensor
quadrature.  Non-iid sources are scaled copies of catalog laws whose
covariances sum to the identity.

Every Monte Carlo estimate over S_n runs through one loop, `sum_over_blocks`:
block b of BLOCK_SIZE draws comes from the counter-based stream
`stream.block(b)`, and the per-block statistics are summed in block order,
so a seed fixes every number.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convex import ConvexSet, SetFamily
from .errors import DegeneracyError, DomainError
from .rng import RngStream
from .semigroup import IndicatorFunction
from .stein import SteinSolution, laplacian_drift, smoothed_target

BLOCK_SIZE = 1 << 14


@dataclass(frozen=True)
class MomentSummary:
    """Third-moment functionals with how they were obtained."""

    method: str  # "exact" or "monte-carlo"
    estimation_error: float
    rho3: float | None = None
    beta3: float | None = None
    gamma3: float | None = None


@dataclass(frozen=True)
class Estimate:
    """A seeded Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int
    seed: int


class SourceDistribution:
    """Product law of one summand Y with E Y = 0 and Cov Y = I_k.

    `sum_sampler(gen, m, k, n)`, when given, draws m copies of the normalized
    sum (Y_1 + ... + Y_n)/sqrt(n) from its exact law in one call.
    """

    def __init__(
        self, name, k, sampler, coord_abs_m1, coord_abs_m3, rho3_exact=None, sum_sampler=None
    ):
        if k < 1:
            raise DomainError("dimension k must be >= 1")
        self.name = name
        self.k = k
        self._sampler = sampler
        self.sum_sampler = sum_sampler
        self.coord_abs_m1 = float(coord_abs_m1)  # E |Y^(i)|
        self.coord_abs_m3 = float(coord_abs_m3)  # E |Y^(i)|^3
        self._rho3_exact = rho3_exact

    def sample(self, gen: np.random.Generator, m: int) -> np.ndarray:
        return self._sampler(gen, m, self.k)

    def rho3_summary(self) -> MomentSummary:
        """E ||Y||^3, exact when known, else deterministic quadrature or MC."""
        if self._rho3_exact is not None:
            return MomentSummary(method="exact", estimation_error=0.0, rho3=self._rho3_exact)
        if self.k == 1:
            return MomentSummary(method="exact", estimation_error=0.0, rho3=self.coord_abs_m3)
        return _numeric_rho3(self.name, self.k)

    @property
    def rho3(self) -> float:
        return self.rho3_summary().rho3

    def gamma3_base(self) -> float:
        """E (sum_i |Y^(i)|)^3, from the per-coordinate absolute moments."""
        k, m1, m3 = self.k, self.coord_abs_m1, self.coord_abs_m3
        return k * m3 + 3.0 * k * (k - 1) * m1 + k * (k - 1) * (k - 2) * m1**3

    def __repr__(self):
        return f"SourceDistribution({self.name!r}, k={self.k})"


def _gaussian_sampler(gen, m, k):
    return gen.standard_normal((m, k))


def _gaussian_sum(gen, m, k, n):
    return gen.standard_normal((m, k))


def _rademacher_sampler(gen, m, k):
    return gen.integers(0, 2, size=(m, k)).astype(float) * 2.0 - 1.0


def _rademacher_sum(gen, m, k, n):
    # the sum of n signs is 2 Binomial(n, 1/2) - n, exact in floating point
    return (2.0 * gen.binomial(n, 0.5, size=(m, k)) - n) / math.sqrt(n)


_SQRT3 = math.sqrt(3.0)


def _uniform_sampler(gen, m, k):
    return gen.uniform(-_SQRT3, _SQRT3, size=(m, k))


def _exponential_sampler(gen, m, k):
    return gen.standard_exponential((m, k)) - 1.0


def _exponential_sum(gen, m, k, n):
    # a sum of n standard exponentials is Gamma(n, 1)
    return (gen.standard_gamma(n, size=(m, k)) - n) / math.sqrt(n)


def gaussian_source(k: int) -> SourceDistribution:
    rho3 = 2.0**1.5 * math.gamma((k + 3) / 2.0) / math.gamma(k / 2.0)
    m1 = math.sqrt(2.0 / math.pi)
    return SourceDistribution(
        "gaussian", k, _gaussian_sampler, m1, 2.0 * m1, rho3, sum_sampler=_gaussian_sum
    )


def rademacher_source(k: int) -> SourceDistribution:
    # ||Y|| = sqrt(k) almost surely
    return SourceDistribution(
        "rademacher", k, _rademacher_sampler, 1.0, 1.0, float(k) ** 1.5,
        sum_sampler=_rademacher_sum,
    )


def uniform_source(k: int) -> SourceDistribution:
    m1 = _SQRT3 / 2.0
    m3 = 3.0 * _SQRT3 / 4.0
    return SourceDistribution("uniform", k, _uniform_sampler, m1, m3, m3 if k == 1 else None)


def exponential_source(k: int) -> SourceDistribution:
    m1 = 2.0 / math.e
    m3 = 12.0 / math.e - 2.0
    return SourceDistribution(
        "exponential", k, _exponential_sampler, m1, m3, m3 if k == 1 else None,
        sum_sampler=_exponential_sum,
    )


SOURCES = {
    "gaussian": gaussian_source,
    "rademacher": rademacher_source,
    "uniform": uniform_source,
    "exponential": exponential_source,
}


def make_source(name: str, k: int) -> SourceDistribution:
    if name not in SOURCES:
        raise DomainError(f"unknown source {name!r}; have {sorted(SOURCES)}")
    return SOURCES[name](k)


def _tensor_norm3(nodes_1d, weights_1d, k):
    """E (sum_i X_i^2)^{3/2} for a product law given 1D nodes/weights."""
    grids = np.meshgrid(*([nodes_1d] * k), indexing="ij")
    sq = np.zeros(grids[0].size)
    for g in grids:
        sq += np.square(g.ravel())
    wts = weights_1d
    for _ in range(k - 1):
        wts = np.multiply.outer(wts, weights_1d).ravel()
    return float(wts @ np.power(sq, 1.5))


@lru_cache(maxsize=32)
def _numeric_rho3(name: str, k: int) -> MomentSummary:
    """rho3 by tensor quadrature with a step-doubling error estimate."""
    if k > 4:
        # stable across processes (str hash is randomized)
        tag = sum(ord(c) for c in name) + 131 * k
        stream = RngStream(tag, stream_id=313)
        draws = make_source(name, k).sample(stream.generator(), 1 << 20)
        vals = np.power(np.sum(draws * draws, axis=1), 1.5)
        return MomentSummary(
            method="monte-carlo",
            estimation_error=float(np.std(vals) / math.sqrt(len(vals))),
            rho3=float(np.mean(vals)),
        )

    def value(n_nodes):
        if name == "uniform":
            x, w = np.polynomial.legendre.leggauss(n_nodes)
            return _tensor_norm3(_SQRT3 * x, 0.5 * w, k)
        if name == "exponential":
            x, w = np.polynomial.laguerre.laggauss(n_nodes)
            return _tensor_norm3(x - 1.0, w, k)
        raise DomainError(f"no quadrature rule for source {name!r}")

    coarse, fine = value(32), value(64)
    return MomentSummary(
        method="exact", estimation_error=abs(fine - coarse), rho3=fine
    )


class NonIIDSource:
    """Independent scaled summands X_j = scale_j * Y_j with sum Cov X_j = I_k.

    Scales may be scalars or per-coordinate vectors (diagonal covariances).
    """

    def __init__(self, components):
        if not components:
            raise DomainError("need at least one component")
        self.components = [(src, np.asarray(sc, dtype=float)) for src, sc in components]
        ks = {src.k for src, _ in self.components}
        if len(ks) != 1:
            raise DomainError("all components must share a dimension")
        self.k = ks.pop()
        self.n = len(self.components)
        total = np.zeros(self.k)
        for _, sc in self.components:
            total += np.broadcast_to(np.square(sc), (self.k,))
        if np.max(np.abs(total - 1.0)) > 1e-12:
            raise DomainError("component covariances must sum to the identity")

    def covariance(self, j: int) -> np.ndarray:
        _, sc = self.components[j]
        return np.diag(np.broadcast_to(np.square(sc), (self.k,)).copy())

    @property
    def scalar_scaled(self) -> bool:
        return all(sc.ndim == 0 for _, sc in self.components)

    def moment_summary(self) -> MomentSummary:
        """beta3 and gamma3; exact for scalar scales of exact-moment bases."""
        if self.scalar_scaled:
            beta3 = 0.0
            gamma3 = 0.0
            err = 0.0
            method = "exact"
            for src, sc in self.components:
                summary = src.rho3_summary()
                s3 = float(sc) ** 3
                beta3 += s3 * summary.rho3
                gamma3 += s3 * src.gamma3_base()
                err += s3 * summary.estimation_error
                if summary.method != "exact":
                    method = "monte-carlo"
            return MomentSummary(
                method=method, estimation_error=err, beta3=beta3, gamma3=gamma3
            )
        # vector scales: Monte Carlo with error bars
        stream = RngStream(self.n * 1009 + self.k, stream_id=414)
        gen = stream.generator()
        m = 1 << 18
        beta3 = 0.0
        gamma3 = 0.0
        err = 0.0
        for src, sc in self.components:
            draws = sc * src.sample(gen, m)
            b = np.power(np.sum(draws * draws, axis=1), 1.5)
            g = np.power(np.sum(np.abs(draws), axis=1), 3)
            beta3 += float(np.mean(b))
            gamma3 += float(np.mean(g))
            err += float(np.std(b) / math.sqrt(m))
        return MomentSummary(
            method="monte-carlo", estimation_error=err, beta3=beta3, gamma3=gamma3
        )

    def __repr__(self):
        names = {src.name for src, _ in self.components}
        return f"NonIIDSource(n={self.n}, k={self.k}, bases={sorted(names)})"


def noniid_catalog(base_name: str, k: int, n: int, profile: str = "linear") -> NonIIDSource:
    """Non-iid source with sigma_j^2 proportional to a weight profile."""
    base = make_source(base_name, k)
    j = np.arange(1, n + 1, dtype=float)
    if profile == "linear":
        weights = j
    elif profile == "flat":
        weights = np.ones(n)
    else:
        raise DomainError(f"unknown profile {profile!r}")
    scales = np.sqrt(weights / weights.sum())
    return NonIIDSource([(base, float(s)) for s in scales])


def normalizer_matrix(src: NonIIDSource, j: int) -> np.ndarray:
    """N_j = (I - Cov X_j)^{-1/2} by symmetric eigendecomposition."""
    cov = src.covariance(j)
    A = np.eye(src.k) - cov
    evals, evecs = np.linalg.eigh(0.5 * (A + A.T))
    if np.min(evals) <= 0.0:
        raise DegeneracyError(
            "I - Cov X_j is not positive definite; the source is too concentrated"
        )
    N = evecs @ np.diag(evals**-0.5) @ evecs.T
    summary = src.moment_summary()
    if summary.method == "exact" and summary.beta3 is not None and summary.beta3 < 1.0:
        cap = 1.0 / (1.0 - summary.beta3 ** (2.0 / 3.0))
        if float(np.max(1.0 / evals)) > cap * (1.0 + 1e-9):
            raise DegeneracyError(
                "the normalizer exceeds the beta3 cap 1 / (1 - beta3^(2/3)); "
                "the exact third-moment summary is inconsistent with Cov X_j"
            )
    return N


def _count(name: str, value, minimum: int) -> int:
    """value as an int >= minimum; DomainError for bools, non-integral or non-finite values."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {count}")
    return count


def sample_sum(src, n: int, stream: RngStream, size: int = 1) -> np.ndarray:
    """Draw `size` copies of the normalized sum S_n; shape (size, k).

    iid sources: S_n = (Y_1 + ... + Y_n)/sqrt(n), drawn from its exact law
    when the source has one (gaussian, rademacher, exponential) and summed
    otherwise; non-iid: S_n = sum X_j with n equal to the component count.
    """
    n = _count("n", n, 1)
    gen = stream.generator()
    if isinstance(src, NonIIDSource):
        if n != src.n:
            raise DomainError(f"this non-iid source has n={src.n}, got {n}")
        total = np.zeros((size, src.k))
        for base, sc in src.components:
            total += sc * base.sample(gen, size)
        return total
    if src.sum_sampler is not None:
        return src.sum_sampler(gen, size, src.k, n)
    total = np.zeros((size, src.k))
    for _ in range(n):
        total += src.sample(gen, size)
    return total / math.sqrt(n)


def sum_over_blocks(src, n: int, M: int, stream: RngStream, statistic):
    """Sum statistic(X) over the blocks X of M draws of S_n, in block order.

    Block b holds up to BLOCK_SIZE rows drawn from `stream.block(b)`.
    """
    M = _count("M", M, 1)
    total = 0
    for b, start in enumerate(range(0, M, BLOCK_SIZE)):
        size = min(BLOCK_SIZE, M - start)
        total = total + statistic(sample_sum(src, n, stream.block(b), size))
    return total


def delta_hat(src, n: int, family: SetFamily, M: int, stream: RngStream) -> Estimate:
    """Empirical convex-set discrepancy over a finite family.

    One sample of size M is shared by every set (common random numbers);
    the reported value is the max of |empirical - Gaussian| over the family,
    a lower bound for the full convex-set supremum.  The standard error is
    the binomial one at the argmax set; the sup-induced upward bias is not
    corrected.
    """
    n = _count("n", n, 1)
    M = _count("M", M, 1000)
    counts = sum_over_blocks(src, n, M, stream, family.counts)
    freqs = counts / float(M)
    diffs = np.abs(freqs - family.measures)
    arg = int(np.argmax(diffs))
    p = freqs[arg]
    return Estimate(
        value=float(diffs[arg]),
        std_error=float(math.sqrt(max(p * (1.0 - p), 0.0) / M)),
        n_samples=M,
        seed=stream.master_seed,
    )


@dataclass(frozen=True)
class SteinDiscrepancyResult:
    """Both sides of the smoothed-discrepancy identity, estimated on one sample."""

    direct: Estimate
    generator_form: Estimate

    @property
    def gap(self) -> float:
        return abs(self.direct.value - self.generator_form.value)

    @property
    def combined_std_error(self) -> float:
        return math.hypot(self.direct.std_error, self.generator_form.std_error)


def stein_discrepancy_hat(
    src,
    n: int,
    t: float,
    C: ConvexSet,
    M: int,
    stream: RngStream = RngStream(0),
) -> SteinDiscrepancyResult:
    """E T_t h~(S_n) two ways: direct smoothing vs generator of the solution.

    The two estimates share the sample of S_n, so their gap isolates the
    quadrature error of the Stein solution rather than Monte Carlo noise.
    """
    sol = SteinSolution(t, IndicatorFunction(C))

    def block_sums(X):
        d = np.asarray(smoothed_target(sol, X), dtype=float)
        g = np.asarray(laplacian_drift(sol, X), dtype=float)
        return np.array([d.sum(), (d * d).sum(), g.sum(), (g * g).sum()])

    acc = sum_over_blocks(src, n, M, stream, block_sums)
    total = float(M)
    d_mean = float(acc[0] / total)
    g_mean = float(acc[2] / total)
    d_var = max(float(acc[1] / total) - d_mean**2, 0.0)
    g_var = max(float(acc[3] / total) - g_mean**2, 0.0)
    return SteinDiscrepancyResult(
        direct=Estimate(d_mean, math.sqrt(d_var / total), int(M), stream.master_seed),
        generator_form=Estimate(g_mean, math.sqrt(g_var / total), int(M), stream.master_seed),
    )


def moment_summary(src) -> MomentSummary:
    """rho3 for iid sources; beta3/gamma3 for non-iid sources."""
    if isinstance(src, NonIIDSource):
        return src.moment_summary()
    return src.rho3_summary()
