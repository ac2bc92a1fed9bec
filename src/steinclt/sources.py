"""Source laws for the normalized sums and the empirical discrepancy.

The iid catalog (gaussian, rademacher, uniform, exponential) is built from
product laws with mean zero and identity covariance by construction, so every
third-moment functional is either closed form or one fixed-rule 1-D integral
over the coordinates' closed-form Laplace transform (`_rho3_integral`).  Each
law draws S_n in one call: the gaussian and exponential from the exact law of
the sum, the Rademacher from one raw Philox bit per sign (a row costs a
popcount), and the uniform from exact integer sums of 16-bit Philox words.
Non-iid sources are scaled copies of catalog laws whose covariances sum to the
identity.

Every Monte Carlo estimate over S_n draws block b of BLOCK_SIZE rows from
the counter-based stream `stream.block(b)`, so a block's draws do not depend
on the blocks before it.  `mean_over_blocks` splits whole blocks between the
CPUs by `map_targets` (`_fold_blocks`) and turns per-target statistics into
means with standard errors; `delta_hat` gives each CPU an equal share of rows,
drawn bit for bit from mid-block (`_block_rows`: the raw-bit laws seek, and
only the gaussian and exponential draw a prefix).  The README's "What runs
where" says who runs each part, and `sup_deviation` reports the largest
deviation from a Gaussian reference as an `Estimate`.
The statistics given to `mean_over_blocks` are row-wise (each column comes
from its own row of S_n).  An iid Rademacher S_n lives on the (n+1)^k lattice
and repeats rows often, so its rows are drawn as lattice indices
(`_sample_index`: the coordinates' counts of + signs as digits in radix
n + 1) and `mean_over_blocks` evaluates each distinct one once, found by one
integer sort; only these lattice blocks are deduplicated, and every other
block is evaluated as drawn.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

from .convex import ConvexSet, SetFamily
from .errors import DegeneracyError, DomainError, check_count
from .quadrature import gauss_legendre_1d
from .rng import RngStream
from .semigroup import IndicatorFunction
from .stein import SteinSolution, laplacian_drift, smoothed_target

BLOCK_SIZE = 1 << 14
# Raw Philox bytes per chunk of `_raw_row_chunks`.  Each thread that draws
# rows (the caller and, on two CPUs, the pool's one worker) keeps freed
# chunks in its malloc arena.  With delta_hat's rows split in equal shares,
# delta-sweep peaked at 63.2-63.6 MiB with 256 KiB chunks against
# 66.0-67.1 MiB with 1 MiB, at a cost in time: its cell_p90_s was 0.0310 s
# against 0.0300 s (1 MiB faster in 7 of 8 pairs) and its wall_s 0.988 s
# against 0.981 s (2-vCPU Xeon).  Alone, a 16384-row uniform block is faster
# at 256 KiB (k = 3, n = 64: 20.5 -> 19.1 ms; n = 256: 70.0 -> 68.0 ms, and
# 71.7 ms at 128 KiB).
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class MomentSummary:
    """Third-moment functionals, each exact up to a bound on its quadrature error."""

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
    (Y_1 + ... + Y_n)/sqrt(n) in one call, and `rho3_exact(k)`, where given,
    is E ||Y||^3 in closed form.
    """

    def __init__(self, name, k, coord_abs_m1, coord_abs_m3, rho3_exact=None, *, sum_sampler):
        self.name = name
        self.k = check_count("k", k, 1)
        self.sum_sampler = sum_sampler
        self.coord_abs_m1 = float(coord_abs_m1)  # E |Y^(i)|
        self.coord_abs_m3 = float(coord_abs_m3)  # E |Y^(i)|^3
        self._rho3_exact = rho3_exact

    def rho3_summary(self) -> MomentSummary:
        """E ||Y||^3: closed form for the gaussian and Rademacher laws and at k = 1, else
        `_rho3_integral` with its error bound."""
        if self._rho3_exact is not None:
            return MomentSummary(estimation_error=0.0, rho3=self._rho3_exact(self.k))
        if self.k == 1:
            return MomentSummary(estimation_error=0.0, rho3=self.coord_abs_m3)
        rho3, error = _rho3_integral(self.name, (1.0,) * self.k)
        return MomentSummary(estimation_error=error, rho3=rho3)

    @property
    def rho3(self) -> float:
        return self.rho3_summary().rho3

    def gamma3_base(self, scales=None) -> float:
        """E (sum_i d_i |Y^(i)|)^3 for scales d >= 0 (a k-vector, all 1 by default), by the
        power sums p_r = sum_i d_i^r and the per-coordinate absolute moments."""
        p1 = p2 = p3 = float(self.k)
        if scales is not None:
            p1, p2, p3 = (float(np.sum(np.broadcast_to(scales, (self.k,)) ** r)) for r in (1, 2, 3))
        m1, m3 = self.coord_abs_m1, self.coord_abs_m3
        return p3 * m3 + 3.0 * (p1 * p2 - p3) * m1 + (p1**3 - 3.0 * p1 * p2 + 2.0 * p3) * m1**3

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


def _raw_row_bytes(src, n):
    """Bytes per row of S_n if `sample_sum` reads them from `_raw_row_chunks`, else None.

    Those are the laws that take one raw bit per sign (iid Rademacher and
    scalar-scaled non-iid Rademacher, ceil(n/8) bytes a coordinate) and the
    uniform (one 16-bit word a summand).
    """
    if isinstance(src, NonIIDSource):
        signs = all(sc.ndim == 0 and base.name == "rademacher" for base, sc in src.components)
        return src.k * -(-src.n // 8) if signs else None
    if src.sum_sampler is _rademacher_sum:
        return src.k * -(-n // 8)
    return 2 * src.k * n if src.sum_sampler is _uniform_sum else None


def _block_rows(src, n, stream, M, start, stop):
    """Yield rows [start, stop) of M draws of S_n a block at a time, the bits of the whole blocks.

    A raw-word law (`_raw_row_bytes`: the Rademacher and uniform laws) seeks to
    row r at Philox step r * row_bytes / 32, so `start` is a multiple of
    32 / gcd(row_bytes, 32).  The gaussian and exponential laws fill C order,
    so they draw a prefix of the block; a component-loop source draws it whole.
    """
    row_bytes = _raw_row_bytes(src, n)
    for b in range(start // BLOCK_SIZE, -(-stop // BLOCK_SIZE)):
        first = b * BLOCK_SIZE
        r, end = max(start - first, 0), min(stop - first, BLOCK_SIZE)
        if row_bytes is not None:
            yield sample_sum(src, n, stream.block(b, r * row_bytes // 32), end - r)
        elif isinstance(src, NonIIDSource):
            yield sample_sum(src, n, stream.block(b), min(BLOCK_SIZE, M - first))[r:end]
        else:
            yield sample_sum(src, n, stream.block(b), end)[r:]


def _gaussian_sum(gen, m, k, n):
    return gen.standard_normal((m, k))


def _rademacher_ones(gen, m, k, n):
    """Yield (start, ones) per raw chunk of m draws of iid Rademacher S_n in R^k.

    ones[r, i, c] is the number of + signs in word c of coordinate i of row
    start + r.  One Philox bit per sign, laid out as in `_signed_scale_sum`,
    a set bit +1; the bits are counted in the widest words (1, 2, 4 or 8
    bytes) that tile a coordinate's n_bytes, with the pad bits of the last
    byte masked.
    """
    n_bytes = -(-n // 8)
    width = min(n_bytes & -n_bytes, 8)
    word = np.dtype(f"<u{width}")
    summand_bits = word.type((1 << (n - 8 * (n_bytes - width))) - 1)  # of the last word
    for start, rows, data in _raw_row_chunks(gen, m, k * n_bytes):
        words = data.view(word).reshape(rows, k, n_bytes // width)
        if n % 8:
            words[:, :, -1] &= summand_bits
        yield start, np.bitwise_count(words)


def _lattice_scale(ones, n):
    """(2 ones - n)/sqrt(n) in place: the sum of n signs, 2 ones - n, is exact in floating point."""
    ones *= 2.0
    ones -= n
    ones /= math.sqrt(n)
    return ones


def _rademacher_sum(gen, m, k, n):
    out = np.empty((m, k))
    for start, ones in _rademacher_ones(gen, m, k, n):
        total = out[start:start + len(ones)]
        total[...] = ones[:, :, 0]
        for c in range(1, ones.shape[2]):
            total += ones[:, :, c]
    return _lattice_scale(out, n)


def _lattice_indexed(src, n):
    """Whether S_n is iid Rademacher with (n + 1)^k lattice indices that fit in int64."""
    iid = not isinstance(src, NonIIDSource) and src.sum_sampler is _rademacher_sum
    return iid and (n + 1) ** src.k <= 2**63


def _sample_index(src, n, stream, size):
    """The rows `sample_sum(src, n, stream, size)` of an iid Rademacher law, as lattice indices.

    A row's index has its coordinates' counts of + signs as digits in radix
    n + 1, coordinate 0 the most significant, so the indices sort as the rows
    do lexicographically.  It is added up in place one word column at a time,
    so no (size, k) integer array is built.
    """
    index = np.zeros(size, dtype=np.int64)
    for start, ones in _rademacher_ones(stream.generator(), size, src.k, n):
        digits = index[start:start + len(ones)]
        for i in range(src.k):
            digits *= n + 1
            for c in range(ones.shape[2]):
                digits += ones[:, i, c]
    return index


def _lattice_points(index, k, n):
    """The rows of S_n at lattice indices, with the float operations of `_rademacher_sum`."""
    out = np.empty((len(index), k))
    for i in range(k - 1, -1, -1):
        index, out[:, i] = np.divmod(index, n + 1)
    return _lattice_scale(out, n)


_SQRT3 = math.sqrt(3.0)


def _uniform_sum(gen, m, k, n):
    # a 16-bit word u is the summand sqrt3 (2 (u + 1/2) / 2^16 - 1), uniform on the 2^16 cell
    # midpoints of [-sqrt3, sqrt3]; the integer sum is exact, in uint32 (the faster) below 2^32
    out = np.empty((m, k))
    total_type = np.uint32 if n * 0xFFFF < 1 << 32 else np.uint64
    for start, rows, data in _raw_row_chunks(gen, m, 2 * k * n):
        total = data.view("<u2").reshape(rows, k, n).sum(axis=2, dtype=total_type)
        out[start:start + rows] = (2.0 * total + n) / 2.0**16 - n
    out *= _SQRT3 / math.sqrt(n)
    return out


def _exponential_sum(gen, m, k, n):
    # a sum of n standard exponentials is Gamma(n, 1)
    return (gen.standard_gamma(n, size=(m, k)) - n) / math.sqrt(n)


def gaussian_source(k: int) -> SourceDistribution:
    m1 = math.sqrt(2.0 / math.pi)
    return SourceDistribution(
        "gaussian", k, m1, 2.0 * m1,
        lambda k: 2.0**1.5 * math.gamma((k + 3) / 2.0) / math.gamma(k / 2.0),
        sum_sampler=_gaussian_sum,
    )


def rademacher_source(k: int) -> SourceDistribution:
    return SourceDistribution(
        "rademacher", k, 1.0, 1.0,
        lambda k: float(k) ** 1.5,  # ||Y|| = sqrt(k) almost surely
        sum_sampler=_rademacher_sum,
    )


def uniform_source(k: int) -> SourceDistribution:
    return SourceDistribution(
        "uniform", k, _SQRT3 / 2.0, 3.0 * _SQRT3 / 4.0,
        sum_sampler=_uniform_sum,
    )


def exponential_source(k: int) -> SourceDistribution:
    return SourceDistribution(
        "exponential", k, 2.0 / math.e, 12.0 / math.e - 2.0,
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


def cell_stream(stream: RngStream, name: str, k: int, n: int) -> RngStream:
    """The stream of a command's (source, k, n) cell: `child` of the law's catalog index,
    then of k, then of n.

    A cell's draws depend on its own law, k and n alone.  `child` is one-to-one
    in its index, so two cells share a stream only if two 64-bit keys collide.
    """
    return stream.child(list(SOURCES).index(name)).child(k).child(n)


def _uniform_log_laplace(s):
    x = np.sqrt(3.0 * s)
    return np.log(0.5 * math.sqrt(math.pi) * special.erf(x) / x)


def _exponential_log_laplace(s):
    # E e^{-s (E - 1)^2} = sqrt(pi / 4s) e^{-s} erfcx(z), z = 1/(2 sqrt s) - sqrt s; where
    # z < 0, erfcx overflows, and e^{-s} erfcx(z) is taken as e^{1/(4s) - 1} erfc(z)
    z = 0.5 / np.sqrt(s) - np.sqrt(s)
    tail = np.where(z >= 0.0, np.log(special.erfcx(np.maximum(z, 0.0))) - s,
                    np.log(special.erfc(np.minimum(z, 0.0))) + 0.25 / s - 1.0)
    return 0.5 * np.log(0.25 * math.pi / s) + tail


# per catalogue law: log L(s) = log E e^{-s Y^2} of one coordinate, E Y^4 and E Y^6
_LAPLACE = {
    "gaussian": (lambda s: -0.5 * np.log1p(2.0 * s), 3.0, 15.0),
    "rademacher": (np.negative, 1.0, 1.0),
    "uniform": (_uniform_log_laplace, 9.0 / 5.0, 27.0 / 7.0),
    "exponential": (_exponential_log_laplace, 9.0, 265.0),
}
_S0, _PANELS = 1e-5, 52  # unit panels of u = ln s from s0 to S = s0 e^52 = e^40.49


@lru_cache(maxsize=64)  # once per law and scales
def _rho3_integral(law: str, scales: tuple) -> tuple[float, float]:
    """(E ||d Y||^3, an error bound) for scales d and Y of iid coordinates of a catalogue law.

    x^{3/2} = 3/(4 sqrt pi) int_0^inf (e^{-sx} - 1 + sx) s^{-5/2} ds at x = X = ||d Y||^2, and
    E e^{-sX} = prod_i L(d_i^2 s).  With d divided by its largest entry, it is 16-node
    Gauss-Legendre on unit panels of u = ln s from s0 to S, the series E X^2 sqrt(s0) -
    E X^3 s0^{3/2} / 9 below s0 and 2 E X / sqrt(S) above S (where prod_i L < 1e-8).  The
    bound adds the shift when the series also takes the first panel (its error grows
    12-fold) and 4 ulp per coordinate in each log L (2 measured) over int_{s0}^inf s^{-5/2} ds.
    """
    if law not in _LAPLACE:
        raise DomainError(f"no Laplace transform for source {law!r}")
    log_laplace, m4, m6 = _LAPLACE[law]
    d = np.abs(np.asarray(scales, dtype=float))
    top = float(np.max(d, initial=0.0))
    c, count = np.unique(np.square(d[d > 0.0] / top), return_counts=True)
    # E X^2 and E X^3 from the cumulants of X = sum_i c_i Y_i^2
    k1, k2, k3 = count @ c, count @ c**2 * (m4 - 1.0), count @ c**3 * (m6 - 3.0 * m4 + 2.0)
    ex2, ex3 = k2 + k1**2, k3 + 3.0 * k2 * k1 + k1**3
    x, w = gauss_legendre_1d(16)
    s = _S0 * np.exp(np.arange(_PANELS)[:, None] + 0.5 * (x + 1.0))
    log_l = sum(n * log_laplace(ci * s) for ci, n in zip(c, count))
    panels = ((np.expm1(log_l) + k1 * s) * s**-1.5) @ (0.5 * w)  # ds = s du
    h0, h1 = (ex2 * math.sqrt(a) - ex3 * a**1.5 / 9.0 for a in (_S0, math.e * _S0))
    value = h0 + panels.sum() + 2.0 * k1 / math.sqrt(_S0 * math.exp(_PANELS))
    error = abs(h1 - h0 - panels[0]) + 8.0 / 3.0 * np.finfo(float).eps * count.sum() * _S0**-1.5
    scale = 0.75 / math.sqrt(math.pi) * top**3
    return float(scale * value), float(scale * error)


class NonIIDSource:
    """Independent scaled summands X_j = scale_j * Y_j with sum Cov X_j = I_k.

    Scales are finite scalars or length-k vectors (diagonal covariances).
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
        scales = [sc for _, sc in self.components]
        # a length-1 vector would broadcast, but `_rho3_integral` reads its length as k
        if any(sc.shape not in ((), (self.k,)) or not np.isfinite(sc).all() for sc in scales):
            raise DomainError(f"each scale must be a finite scalar or length-{self.k} vector")
        self.n = len(self.components)
        self.name = f"noniid-{self.components[0][0].name}"
        total = sum(np.square(sc) for sc in scales)
        if np.max(np.abs(total - 1.0)) > 1e-12:
            raise DomainError("component covariances must sum to the identity")

    def covariance(self, j: int) -> np.ndarray:
        _, sc = self.components[j]
        return np.diag(np.broadcast_to(np.square(sc), (self.k,)).copy())

    def moment_summary(self) -> MomentSummary:
        """beta3 = sum_j E ||X_j||^3 and gamma3 = sum_j E (sum_i |X_j^(i)|)^3; a scalar scale s
        takes s^3 times its base's moments, a vector scale `_rho3_integral` and `gamma3_base`.
        The components are fixed at construction, so it is computed once per source."""
        return self._moment_summary

    @cached_property
    def _moment_summary(self) -> MomentSummary:
        beta3 = gamma3 = err = 0.0
        for src, sc in self.components:
            if sc.ndim:
                rho3, error = _rho3_integral(src.name, tuple(sc.tolist()))
                gamma3 += src.gamma3_base(np.abs(sc))
            else:
                summary, s3 = src.rho3_summary(), abs(float(sc)) ** 3
                rho3, error = s3 * summary.rho3, s3 * summary.estimation_error
                gamma3 += s3 * src.gamma3_base()
            beta3 += rho3
            err += error
        return MomentSummary(estimation_error=err, beta3=beta3, gamma3=gamma3)

    def __repr__(self):
        names = {src.name for src, _ in self.components}
        return f"NonIIDSource(n={self.n}, k={self.k}, bases={sorted(names)})"


def noniid_catalog(base_name: str, k: int, n: int, profile: str = "linear") -> NonIIDSource:
    """Non-iid source with sigma_j^2 proportional to a weight profile."""
    base = make_source(base_name, k)
    n = check_count("n", n, 1)
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
    if summary.beta3 is not None and summary.beta3 < 1.0:
        cap = 1.0 / (1.0 - summary.beta3 ** (2.0 / 3.0))
        if float(np.max(1.0 / evals)) > cap * (1.0 + 1e-9):
            raise DegeneracyError(
                "the normalizer exceeds the beta3 cap 1 / (1 - beta3^(2/3)); "
                "the third-moment summary is inconsistent with Cov X_j"
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
    Rademacher law and summed component by component otherwise, each component
    one summand of its law's `sum_sampler`.
    """
    n = check_count("n", n, 1)
    size = check_count("size", size, 0)
    gen = stream.generator()
    if isinstance(src, NonIIDSource):
        if n != src.n:
            raise DomainError(f"this non-iid source has n={src.n}, got {n}")
        if _raw_row_bytes(src, n) is not None:
            return _signed_scale_sum(gen, size, src.k, [float(sc) for _, sc in src.components])
        total = np.zeros((size, src.k))
        for base, sc in src.components:
            total += sc * base.sum_sampler(gen, size, src.k, 1)
        return total
    return src.sum_sampler(gen, size, src.k, n)


_POOL_THREAD = "steinclt-block"


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _block_pool():
    """The process's pool of CPUs - 1 threads, or None on one CPU; built on first use."""
    workers = _usable_cpus() - 1
    return ThreadPoolExecutor(workers, thread_name_prefix=_POOL_THREAD) if workers else None


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but not its threads: it builds its own
    os.register_at_fork(after_in_child=_block_pool.cache_clear)


class _PartFlag(threading.local):
    # set while a thread runs a part of a split, so a split started inside it runs serially
    active = False


_in_part = _PartFlag()


def map_targets(evaluate, targets) -> list:
    """[evaluate(x) for x in targets], in one contiguous part per CPU (README, "What runs where").

    An error of any part is raised once every part has finished.
    """
    pool = _block_pool()
    if pool is None or len(targets) < 2 or _in_part.active:
        return [evaluate(x) for x in targets]
    parts = min(_usable_cpus(), len(targets))
    cuts = [len(targets) * i // parts for i in range(parts + 1)]

    def part(i):
        _in_part.active = True
        try:
            return [evaluate(x) for x in targets[cuts[i]:cuts[i + 1]]]
        finally:
            _in_part.active = False

    rest = [pool.submit(part, i) for i in range(1, parts)]
    try:
        first = part(0)
    finally:
        wait(rest)
    return first + [y for f in rest for y in f.result()]


def _fold_blocks(M, block_sum):
    """The left fold, in block order, of block_sum(b, rows) over the blocks of M rows.

    The blocks are split by `map_targets`, so `block_sum` must be thread-safe.
    Folding in block order keeps the sum's bytes independent of the CPU count
    and of which block finishes first.
    """
    M = check_count("M", M, 1)
    sizes = [min(BLOCK_SIZE, M - start) for start in range(0, M, BLOCK_SIZE)]
    return sum(map_targets(lambda b: block_sum(b, sizes[b]), range(len(sizes))), 0)


def mean_over_blocks(src, n: int, M: int, stream: RngStream, values):
    """Per-target means and standard errors of `values` over M draws of S_n.

    `values(X)` returns a (T, rows) array, one row per target, and must
    compute each column from its own row of X alone.  It is called once per
    block, maybe for several blocks at once (`_fold_blocks`).  An iid
    Rademacher block is evaluated on its distinct lattice points, found by
    one integer sort of its lattice indices (`_sample_index`), and its
    columns are scattered back to every row before the row sums are taken;
    any other block is evaluated as `sample_sum` draws it.  The variance is
    the plug-in max(sum f^2 / M - mean^2, 0).
    """
    n = check_count("n", n, 1)
    lattice = _lattice_indexed(src, n)

    def block_sums(b, size):
        if lattice:
            index = _sample_index(src, n, stream.block(b), size)
            distinct, inverse = np.unique(index, return_inverse=True)
            f = np.asarray(values(_lattice_points(distinct, src.k, n)), dtype=float)
            # take keeps f C-ordered, so each row sums in the same order as a whole block
            f = np.take(f, inverse, axis=1)
        else:
            f = np.asarray(values(sample_sum(src, n, stream.block(b), size)), dtype=float)
        return np.stack([f.sum(axis=1), (f * f).sum(axis=1)])

    acc = _fold_blocks(M, block_sums)
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

    `map_targets` counts one equal share of the rows per usable CPU; the rows keep
    their whole block's bits (`_block_rows`) and counts are integers, so no cut moves a byte.
    """
    n = check_count("n", n, 1)
    M = check_count("M", M, 1000)
    row_bytes = _raw_row_bytes(src, n)
    align = 1 if row_bytes is None else 32 // math.gcd(row_bytes, 32)
    parts = _usable_cpus()
    # one share of rows per CPU, cut at the multiple of align nearest to M i / parts
    cuts = [min((2 * M * i + parts * align) // (2 * parts * align) * align, M)
            for i in range(parts)]
    shares = [(a, b) for a, b in zip(cuts, cuts[1:] + [M]) if a < b]
    counts = map_targets(
        lambda rows: sum(map(family.counts, _block_rows(src, n, stream, M, *rows)), 0), shares
    )
    p = sum(counts, 0) / float(M)
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
    """rho3 for iid sources, beta3 and gamma3 for non-iid ones, each up to its error bound."""
    if isinstance(src, NonIIDSource):
        return src.moment_summary()
    return src.rho3_summary()
