"""Source laws for the normalized sums and the empirical discrepancy.

The iid catalog (gaussian, rademacher, uniform, exponential) is built from
product laws with mean zero and identity covariance by construction, so every
third-moment functional is either closed form or a deterministic tensor
quadrature.  Each law draws S_n in one call: from the exact law of the sum,
or, for the uniform, from exact integer sums of 32-bit Philox words.  Non-iid
sources are scaled copies of catalog laws whose covariances sum to the identity.

Every Monte Carlo estimate over S_n runs through one loop, `sum_over_blocks`:
block b of BLOCK_SIZE draws comes from the counter-based stream
`stream.block(b)`, so a block's draws do not depend on the blocks before it.
The blocks of one estimate may run concurrently, on a thread pool sized by
the CPUs the process may use, but their statistics are summed in block
order, so a seed fixes every number whatever the CPU count.  On top of it,
`mean_over_blocks` turns per-target statistics into means with standard
errors, and `sup_deviation` reports the largest deviation from a Gaussian
reference as an `Estimate`.
The statistics given to `mean_over_blocks` are row-wise (each column comes
from its own row of S_n), so it evaluates each distinct row of a block once:
a Rademacher S_n lives on the (n+1)^k lattice and repeats rows often, while
the continuous laws hand their blocks over untouched.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convex import ConvexSet, SetFamily
from .errors import DegeneracyError, DomainError, check_count
from .rng import RngStream
from .semigroup import IndicatorFunction
from .stein import SteinSolution, laplacian_drift, smoothed_target

BLOCK_SIZE = 1 << 14
_CHUNK_BYTES = 1 << 20


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


class SourceDistribution:
    """Product law of one summand Y with E Y = 0 and Cov Y = I_k.

    `sum_sampler(gen, m, k, n)` draws m copies of the normalized sum
    (Y_1 + ... + Y_n)/sqrt(n) in one call.
    """

    def __init__(
        self, name, k, sampler, coord_abs_m1, coord_abs_m3, rho3_exact=None, *, sum_sampler
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


def _raw_row_chunks(gen, m, row_bytes):
    """Yield (start, rows, data) over chunks of about _CHUNK_BYTES raw Philox bytes.

    Row i is bytes [i row_bytes, (i + 1) row_bytes) of the little-endian word
    stream, whatever the chunking: each chunk but the last ends on a word.
    """
    align = 8 // math.gcd(row_bytes, 8)
    rows = max(align, _CHUNK_BYTES // row_bytes // align * align)
    for start in range(0, m, rows):
        count = min(rows, m - start)
        words = gen.bit_generator.random_raw(-(-count * row_bytes // 8))
        yield start, count, words.astype("<u8", copy=False).view(np.uint8)[: count * row_bytes]


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


def _uniform_sum(gen, m, k, n):
    # a 32-bit word u is the summand sqrt3 (2 (u + 1/2) / 2^32 - 1), uniform on
    # the 2^32 cell midpoints of [-sqrt3, sqrt3]; the integer sum is exact
    out = np.empty((m, k))
    for start, rows, data in _raw_row_chunks(gen, m, 4 * k * n):
        total = data.view("<u4").reshape(rows, k, n).sum(axis=2, dtype=np.uint64)
        out[start:start + rows] = (2.0 * total + n) / 2.0**32 - n
    return out * (_SQRT3 / math.sqrt(n))


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
    return SourceDistribution(
        "uniform", k, _uniform_sampler, m1, m3, m3 if k == 1 else None, sum_sampler=_uniform_sum
    )


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
    Reports label it `noniid-<base>` after the first component's law.
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
        self.name = f"noniid-{self.components[0][0].name}"
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


def _signed_scale_sum(gen, m, k, scales):
    """m draws of sum_j scales_j e_j per coordinate, one Philox bit per sign e_j.

    Bit l of byte g is the sign of component 8g + l.  The bytes' table values
    (partial sums) are added in byte order, so a row depends on its bits alone.
    """
    padded = np.pad(np.asarray(scales), (0, -len(scales) % 8)).reshape(-1, 8)
    table = np.zeros((len(padded), 1))
    for s in padded.T:  # index bit l set: + the scale of bit l
        table = np.concatenate([table - s[:, None], table + s[:, None]], axis=1)
    out = np.empty((m, k))
    for start, rows, data in _raw_row_chunks(gen, m, k * len(padded)):
        data = data.reshape(rows * k, len(padded))
        total = sum(table[g][data[:, g]] for g in range(len(padded)))
        out[start:start + rows] = total.reshape(rows, k)
    return out


def sample_sum(src, n: int, stream: RngStream, size: int = 1) -> np.ndarray:
    """Draw `size` copies of the normalized sum S_n; shape (size, k).

    iid sources: S_n = (Y_1 + ... + Y_n)/sqrt(n), drawn by the source's
    `sum_sampler`; non-iid: S_n = sum X_j with n equal to the component count,
    one Philox bit per sign when every component is a scalar-scaled
    Rademacher law and summed component by component otherwise.
    """
    n = check_count("n", n, 1)
    gen = stream.generator()
    if isinstance(src, NonIIDSource):
        if n != src.n:
            raise DomainError(f"this non-iid source has n={src.n}, got {n}")
        if src.scalar_scaled and all(base.name == "rademacher" for base, _ in src.components):
            return _signed_scale_sum(gen, size, src.k, [float(sc) for _, sc in src.components])
        total = np.zeros((size, src.k))
        for base, sc in src.components:
            total += sc * base.sample(gen, size)
        return total
    return src.sum_sampler(gen, size, src.k, n)


@lru_cache(maxsize=1)
def _block_pool():
    """The process's pool for the blocks of one estimate, or None on one CPU; built on first use."""
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers, thread_name_prefix="steinclt-block") if workers > 1 else None


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but not its threads: it builds its own
    os.register_at_fork(after_in_child=_block_pool.cache_clear)


def sum_over_blocks(src, n: int, M: int, stream: RngStream, statistic):
    """Sum statistic(X) over the blocks X of M draws of S_n, in block order.

    Block b holds up to BLOCK_SIZE rows drawn from `stream.block(b)`.  The
    blocks of a multi-block estimate may run concurrently, so `statistic`
    must be thread-safe and must not call `sum_over_blocks` itself (a block
    waiting on the pool it runs on can wait forever); a single-block
    estimate runs in the calling thread.  The sum is the left
    fold of the block statistics in block order, so its bytes do not depend
    on the CPU count or on which block finishes first.
    """
    M = check_count("M", M, 1)
    starts = range(0, M, BLOCK_SIZE)

    def block(b):
        return statistic(sample_sum(src, n, stream.block(b), min(BLOCK_SIZE, M - starts[b])))

    blocks = range(len(starts))
    pool = _block_pool() if len(blocks) > 1 else None
    return sum(map(block, blocks) if pool is None else pool.map(block, blocks), 0)


def _distinct_rows(X):
    """(first, inverse) with X[first][inverse] == X, or (None, None) if no two rows are equal.

    The row key is built one column at a time from 1-D `np.unique` codes and
    kept dense, so it never exceeds len(X)^2; a column whose entries are all
    distinct settles that no two rows are equal.
    """
    key = np.zeros(len(X), dtype=np.int64)
    for col in X.T:
        levels, codes = np.unique(col, return_inverse=True)
        if len(levels) == len(X):
            return None, None
        _, first, key = np.unique(key * len(levels) + codes, return_index=True, return_inverse=True)
    if len(first) == len(X):
        return None, None
    return first, key


def mean_over_blocks(src, n: int, M: int, stream: RngStream, values):
    """Per-target means and standard errors of `values` over M draws of S_n.

    `values(X)` returns a (T, rows) array, one row per target, and must
    compute each column from its own row of X alone.  It is called once per
    block on the distinct rows of that block (on the block itself when no
    two rows are equal), maybe for several blocks at once (see
    `sum_over_blocks`), and its columns are scattered back to every row
    before the row sums are taken.  The variance is the plug-in
    max(sum f^2 / M - mean^2, 0).
    """

    def block_sums(X):
        first, inverse = _distinct_rows(X)
        if first is None:
            f = np.asarray(values(X), dtype=float)
        else:
            # take keeps f C-ordered, so each row sums in the same order as a whole block
            f = np.take(np.asarray(values(X[first]), dtype=float), inverse, axis=1)
        return np.stack([f.sum(axis=1), (f * f).sum(axis=1)])

    acc = sum_over_blocks(src, n, M, stream, block_sums)
    total = float(M)
    means = acc[0] / total
    variances = np.maximum(acc[1] / total - means**2, 0.0)
    return means, np.sqrt(variances / total)


def sup_deviation(means, std_errors, reference) -> Estimate:
    """max |means - reference| over the targets, with the standard error at the argmax."""
    diffs = np.abs(means - reference)
    arg = int(np.argmax(diffs))
    return Estimate(value=float(diffs[arg]), std_error=float(std_errors[arg]))


def delta_hat(src, n: int, family: SetFamily, M: int, stream: RngStream) -> Estimate:
    """Empirical convex-set discrepancy over a finite family.

    One sample of size M is shared by every set (common random numbers);
    the reported value is the max of |empirical - Gaussian| over the family,
    a lower bound for the full convex-set supremum.  The standard error is
    the binomial one at the argmax set; the sup-induced upward bias is not
    corrected.
    """
    n = check_count("n", n, 1)
    M = check_count("M", M, 1000)
    p = sum_over_blocks(src, n, M, stream, family.counts) / float(M)
    return sup_deviation(p, np.sqrt(p * (1.0 - p) / M), family.measures)


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
    src, n: int, t: float, C: ConvexSet, M: int, stream: RngStream
) -> SteinDiscrepancyResult:
    """E T_t h~(S_n) two ways: direct smoothing vs generator of the solution.

    The two estimates share the sample of S_n, so their gap isolates the
    quadrature error of the Stein solution rather than Monte Carlo noise.
    """
    sol = SteinSolution(t, IndicatorFunction(C))
    means, std_errors = mean_over_blocks(
        src, n, M, stream, lambda X: (smoothed_target(sol, X), laplacian_drift(sol, X))
    )
    direct, generator_form = (Estimate(float(m), float(se)) for m, se in zip(means, std_errors))
    return SteinDiscrepancyResult(direct=direct, generator_form=generator_form)


def moment_summary(src) -> MomentSummary:
    """rho3 for iid sources; beta3/gamma3 for non-iid sources."""
    if isinstance(src, NonIIDSource):
        return src.moment_summary()
    return src.rho3_summary()
