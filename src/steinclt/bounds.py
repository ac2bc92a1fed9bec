"""Theoretical right-hand sides, the smoothing decomposition, recursion.

The absolute constants that a reported formula reads (c1, c2, c6 to c10 and
the induction constant c; see `ConstantsConfig`) default to 1.0 and are
configuration values: the analysis names them but never fixes numbers, so the
pipeline reports the constants implied by experiments instead of asserting
book values.  The smoothing time t of the closed forms must be finite and
positive.  The recursion certificate replaces threshold bookkeeping with a
direct numerical fixed-point verification over an explicit n range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .convex import ConvexSet, SetFamily, default_translates, gaussian_measure, shell_measure
from .errors import DomainError, HypothesisViolationError
from .gaussian import quantile_a
from .rng import RngStream
from .semigroup import IndicatorFunction, ou_decay, ou_noise, semigroup_apply
from .sources import Estimate, NonIIDSource, delta_hat, moment_summary, sum_over_blocks

T_FLOOR = 1e-4
SEQUENCE_CAP = 4096
DEFAULT_ALPHA = 7.0 / 8.0


@dataclass(frozen=True)
class ConstantsConfig:
    """The absolute constants that a reported formula reads, all user-overridable.

    c1, c2: `smoothed_discrepancy_bound`; c6, c7, c8: `recursion_bound`; c9, c7:
    `recursion_step_bound` and `recursion_certify` (with c10); c: the main bounds.
    """

    c1: float = 1.0
    c2: float = 1.0
    c6: float = 1.0
    c7: float = 1.0
    c8: float = 1.0
    c9: float = 1.0
    c10: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"constant {name} must be positive and finite, got {value}")
        if self.c < 1.0:
            raise DomainError("the induction constant c must be >= 1")

    def override(self, **kw) -> "ConstantsConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing time t with the matched kernel-mass radius eps.

    eps = a_k * sqrt(1 - e^{-2t}) puts kernel mass alpha = 7/8 inside the
    eps-ball, which is what the smoothing inequality consumes.
    """

    t: float
    alpha: float = DEFAULT_ALPHA
    eps: float = 0.0
    k: int = 1

    def __post_init__(self):
        if self.alpha <= 0.5:
            raise HypothesisViolationError("smoothing needs alpha > 1/2")

    @staticmethod
    def for_dimension(k: int, t: float, alpha: float = DEFAULT_ALPHA) -> "SmoothingParams":
        if t <= 0.0:
            raise DomainError("smoothing time must be positive")
        eps = quantile_a(k).a_k * ou_noise(t)
        return SmoothingParams(t=t, alpha=alpha, eps=eps, k=k)


# ---------------------------------------------------------------------------
# Closed-form right-hand sides


def smoothed_discrepancy_bound(
    k: int, rho3: float, n: int, t: float, delta_prev: float, consts: ConstantsConfig
) -> float:
    """Bound on |E T_t h~(S_n)|: the recursion's engine term.

    c1 k^{3/2} rho3 delta_{n-1} / (sqrt(n) sqrt(t)) + c2 k^{5/2} rho3 / sqrt(n).
    """
    if n < 2:
        raise DomainError("needs n >= 2")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"needs a finite t > 0, got {t}")
    if not 0.0 <= delta_prev <= 1.0:
        raise DomainError("delta_prev must lie in [0, 1]")
    lead = consts.c1 * k**1.5 * rho3 * delta_prev / (math.sqrt(n) * math.sqrt(t))
    tail = consts.c2 * k**2.5 * rho3 / math.sqrt(n)
    return lead + tail


def smoothing_bound(gamma_star: float, omega_star: float, alpha: float = DEFAULT_ALPHA) -> float:
    """(2 alpha - 1)^{-1} (gamma* + omega*); prefactor 4/3 at alpha = 7/8."""
    if alpha <= 0.5:
        raise HypothesisViolationError("smoothing inequality needs alpha > 1/2")
    return (gamma_star + omega_star) / (2.0 * alpha - 1.0)


def optimal_t(k: int, rho3: float, n: int, delta_prev: float) -> float:
    """Balance of the leading and shell terms: min(1, sqrt(k) delta rho3 / sqrt(n)).

    A zero delta_prev degenerates the formula; the floor T_FLOOR keeps the
    smoothing kernel non-degenerate.
    """
    if k < 1 or rho3 <= 0.0 or n < 1:
        raise DomainError("inputs must be positive")
    if delta_prev <= 0.0:
        return T_FLOOR
    return min(1.0, math.sqrt(k) * delta_prev * rho3 / math.sqrt(n))


def recursion_bound(
    k: int, rho3: float, n: int, t: float, delta_prev: float, consts: ConstantsConfig
) -> float:
    """Smoothing-decomposed bound at explicit t:
    c6 k^{3/2} rho3 delta/(sqrt(n) sqrt(t)) + c7 k^{5/2} rho3/sqrt(n) + c8 k sqrt(t) e^t.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"needs a finite t > 0, got {t}")
    lead = consts.c6 * k**1.5 * rho3 * delta_prev / (math.sqrt(n) * math.sqrt(t))
    mid = consts.c7 * k**2.5 * rho3 / math.sqrt(n)
    shell = consts.c8 * k * math.sqrt(t) * math.exp(t)
    return lead + mid + shell


def recursion_step_bound(
    k: int, rho3: float, n: int, delta_prev: float, consts: ConstantsConfig
) -> float:
    """After the optimal t:
    c9 k^{5/4} rho3^{1/2} delta_prev^{1/2} / n^{1/4} + c7 k^{3/2} rho3 / sqrt(n).
    """
    if n < 2:
        raise DomainError("needs n >= 2")
    if delta_prev < 0.0:
        raise DomainError("delta_prev must be >= 0")
    lead = consts.c9 * k**1.25 * math.sqrt(rho3) * math.sqrt(delta_prev) / n**0.25
    tail = consts.c7 * k**1.5 * rho3 / math.sqrt(n)
    return lead + tail


def berry_esseen_bound(k: int, rho3: float, n: int, c: float = 1.0) -> float:
    """The main iid statement: delta_n <= c k^{5/2} rho3 / sqrt(n)."""
    if k < 1 or n < 1 or rho3 <= 0.0:
        raise DomainError("inputs must be positive")
    return c * k**2.5 * rho3 / math.sqrt(n)


def noniid_bound(k: int, beta3: float, c: float = 1.0) -> float:
    """Non-iid statement delta_n <= c k^{5/2} beta3 (hypothesis beta3 < 1)."""
    if beta3 >= 1.0:
        raise HypothesisViolationError("the non-iid bound assumes beta3 < 1")
    if beta3 <= 0.0:
        raise DomainError("beta3 must be positive")
    return c * k**2.5 * beta3


def gamma3_bound(k: int, gamma3: float, c: float = 1.0) -> float:
    """Componentwise variant delta_n <= c k gamma3 (better when gamma3 small)."""
    if gamma3 <= 0.0:
        raise DomainError("gamma3 must be positive")
    return c * k * gamma3


# ---------------------------------------------------------------------------
# Smoothing decomposition estimators


def gamma_star_hat(
    src,
    n: int,
    t: float,
    C: ConvexSet,
    eps: float,
    M: int,
    stream: RngStream,
    translates=None,
) -> Estimate:
    """Estimate the translated sup of the smoothed dilation/erosion discrepancy.

    For each translate y and each of C_y^{eps}, C_y^{-eps} this is
    |E T_t 1_B(S_n) - Phi(B)|; the Gaussian side is exact because the smoothed
    law of e^{-t}Z' + wZ is again standard Gaussian.  The expectation over S_n
    conditions on the sample (closed-form kernel mass), which strictly reduces
    variance relative to sampling the kernel too.
    """
    if t <= 0.0:
        raise DomainError("needs t > 0")
    if eps < 0.0:
        raise DomainError("eps must be >= 0")
    if translates is None:
        translates = default_translates(C.dim)
    translates = np.atleast_2d(np.asarray(translates, dtype=float))

    targets = []
    for y in translates:
        Cy = C.translate(y)
        if eps == 0.0:
            targets.append(Cy)
        else:
            targets.append(Cy.dilate(eps))
            targets.append(Cy.erode(eps))
    measures = np.array([gaussian_measure(B) for B in targets])
    hs = [IndicatorFunction(B) for B in targets]

    def block_sums(X):
        out = np.empty((len(targets), 2))
        for i, h in enumerate(hs):
            vals = np.asarray(semigroup_apply(h, t, X), dtype=float)
            out[i] = (vals.sum(), (vals * vals).sum())
        return out

    acc = sum_over_blocks(src, n, M, stream, block_sums)
    total = float(M)
    means = acc[:, 0] / total
    variances = np.maximum(acc[:, 1] / total - means**2, 0.0)
    diffs = np.abs(means - measures)
    arg = int(np.argmax(diffs))
    return Estimate(
        value=float(diffs[arg]),
        std_error=float(math.sqrt(variances[arg] / total)),
        n_samples=int(M),
        seed=stream.master_seed,
    )


def omega_star_hat(C: ConvexSet, eps: float, t: float) -> float:
    """Boundary-shell mass of the shrunk Gaussian: P(e^{-t} Z in shell(C, 2eps))."""
    if eps < 0.0:
        raise DomainError("eps must be >= 0")
    if t < 0.0:
        raise DomainError("t must be >= 0")
    return shell_measure(C, eps, scale=ou_decay(t))


def omega_star_ratio(C: ConvexSet, eps: float, t: float) -> float:
    """Observed shell mass relative to the sqrt(k) * 2eps * e^t envelope."""
    if eps <= 0.0:
        raise DomainError("the ratio needs eps > 0")
    value = omega_star_hat(C, eps, t)
    return value / (math.sqrt(C.dim) * 2.0 * eps * math.exp(t))


# ---------------------------------------------------------------------------
# Recursion certificate


@dataclass(frozen=True)
class RecursionCertificate:
    """Result of the numerical induction over the n range."""

    c_star: float
    n_star: int | None          # first n from which the envelope maps into itself
    envelope_ok_from_2: bool
    sequence_n: tuple
    sequence_delta: tuple
    k: int
    rho3: float


def certified_constant(c10: float, c7: float) -> float:
    """max(1, positive root of c = c10 sqrt(c) + c7), in closed form."""
    root = ((c10 + math.sqrt(c10 * c10 + 4.0 * c7)) / 2.0) ** 2
    return max(1.0, root)


def recursion_certify(
    k: int, rho3: float, n_max: int, consts: ConstantsConfig
) -> RecursionCertificate:
    """Certify the k^{5/2}/sqrt(n) envelope against the recursion step.

    c* solves c = c10 sqrt(c) + c7.  The step is checked with the leading
    coefficient c10 - 1 (the configured c10 absorbs the (n/(n-1))^{1/4}
    inflation of stepping the envelope from n-1 to n, so the raw coefficient
    is one less); the check plugs delta_{n-1} = c* k^{5/2} rho3 / sqrt(n-1)
    into the step and requires the result back under c* k^{5/2} rho3/sqrt(n),
    vectorized over 2 <= n <= n_max.  The literal step is also iterated from
    delta_1 = 1 as a certified upper sequence, walked exactly up to
    SEQUENCE_CAP (walking every n keeps each entry an honest bound).
    """
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    c_star = certified_constant(consts.c10, consts.c7)
    # the absorbed constant satisfies c10 = (raw coefficient) + 1, so the raw
    # coefficient cannot be negative
    c9_eff = max(consts.c10 - 1.0, 0.0)

    ns = np.arange(2, n_max + 1, dtype=float)
    envelope_prev = c_star * k**2.5 * rho3 / np.sqrt(ns - 1.0)
    stepped = (
        c9_eff * k**1.25 * math.sqrt(rho3) * np.sqrt(envelope_prev) / ns**0.25
        + consts.c7 * k**1.5 * rho3 / np.sqrt(ns)
    )
    envelope_here = c_star * k**2.5 * rho3 / np.sqrt(ns)
    ok = stepped <= envelope_here * (1.0 + 1e-12)
    if np.all(ok):
        n_star = 2
    elif np.any(ok):
        last_bad = int(ns[~ok][-1])
        n_star = last_bad + 1 if last_bad < n_max else None
    else:
        n_star = None

    # certified upper sequence from delta_1 = 1 using the literal step constants
    walk_to = min(n_max, SEQUENCE_CAP)
    grid = set(range(2, min(walk_to, 64) + 1))
    grid.update(n for n in (128, 256, 512, 1024, 4096, 16384, 65536) if n <= walk_to)
    grid.add(walk_to)
    lead = consts.c9 * k**1.25 * math.sqrt(rho3)
    tail = consts.c7 * k**1.5 * rho3
    seq_n = [1]
    seq_delta = [1.0]
    prev = 1.0
    for m in range(2, walk_to + 1):
        prev = min(1.0, lead * math.sqrt(prev) / m**0.25 + tail / math.sqrt(m))
        if m in grid:
            seq_n.append(m)
            seq_delta.append(prev)

    return RecursionCertificate(
        c_star=c_star,
        n_star=n_star,
        envelope_ok_from_2=bool(np.all(ok)),
        sequence_n=tuple(seq_n),
        sequence_delta=tuple(seq_delta),
        k=k,
        rho3=rho3,
    )


# ---------------------------------------------------------------------------
# Full per-cell report and the dimension scan


@dataclass(frozen=True)
class BoundReport:
    """Everything the pipeline knows about one (k, n, source, t) cell."""

    k: int
    n: int
    source: str
    rho3: float | None
    beta3: float | None
    gamma3: float | None
    t: float
    delta_hat: float
    delta_se: float
    smoothed_bound: float
    recursion_at_t: float
    optimal_t: float
    recursion_step: float
    main_bound: float
    noniid: float | None
    gamma3_based: float | None
    empirical_within_main: bool
    implied_constant: float   # the c that would make the main bound tight
    seed: int


def bound_report(
    src,
    n: int,
    family: SetFamily,
    M: int,
    stream: RngStream,
    consts: ConstantsConfig = ConstantsConfig(),
    t: float | None = None,
) -> BoundReport:
    """Evaluate the empirical discrepancy next to every closed-form bound.

    delta_prev is proxied by the certified envelope at n-1 (clipped to 1),
    which is what the recursion itself guarantees at that point.
    """
    k = family.dim
    summary = moment_summary(src)
    est = delta_hat(src, n, family, M, stream)
    if isinstance(src, NonIIDSource):
        name = f"noniid-{src.components[0][0].name}"
        rho3 = None
        beta3, gamma3 = summary.beta3, summary.gamma3
        rho3_for_formulas = k**1.5  # moment floor, used only for t selection
    else:
        name = src.name
        rho3 = summary.rho3
        beta3 = gamma3 = None
        rho3_for_formulas = rho3

    delta_prev = min(1.0, berry_esseen_bound(k, rho3_for_formulas, max(n - 1, 1), consts.c))
    t_opt = optimal_t(k, rho3_for_formulas, n, delta_prev)
    t_used = t_opt if t is None else float(t)
    main = berry_esseen_bound(k, rho3_for_formulas, n, consts.c)
    nb = None
    gb = None
    if beta3 is not None and 0.0 < beta3 < 1.0:
        nb = noniid_bound(k, beta3, consts.c)
    if gamma3 is not None and gamma3 > 0.0:
        gb = gamma3_bound(k, gamma3, consts.c)
    return BoundReport(
        k=k,
        n=n,
        source=name,
        rho3=rho3,
        beta3=beta3,
        gamma3=gamma3,
        t=t_used,
        delta_hat=est.value,
        delta_se=est.std_error,
        smoothed_bound=smoothed_discrepancy_bound(
            k, rho3_for_formulas, max(n, 2), t_used, delta_prev, consts
        ),
        recursion_at_t=recursion_bound(k, rho3_for_formulas, max(n, 2), t_used, delta_prev, consts),
        optimal_t=t_opt,
        recursion_step=recursion_step_bound(k, rho3_for_formulas, max(n, 2), delta_prev, consts),
        main_bound=main,
        noniid=nb,
        gamma3_based=gb,
        empirical_within_main=bool(est.value <= main),
        implied_constant=float(est.value * consts.c / main),
        seed=stream.master_seed,
    )


@dataclass(frozen=True)
class SlopeFit:
    """Weighted log-log slope with a delta-method confidence half-width."""

    slope: float
    std_error: float
    ci_half_width: float
    defined: bool


def loglog_slope(xs, values, std_errors) -> SlopeFit:
    """WLS slope of log(values) on log(xs); undefined if any value is noise."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    std_errors = np.asarray(std_errors, dtype=float)
    if np.any(values <= 3.0 * std_errors) or len(xs) < 2:
        return SlopeFit(math.nan, math.nan, math.nan, False)
    lx = np.log(xs)
    ly = np.log(values)
    sigma = std_errors / values
    w = 1.0 / np.maximum(sigma, 1e-12) ** 2
    wm_x = np.average(lx, weights=w)
    wm_y = np.average(ly, weights=w)
    sxx = float(np.sum(w * (lx - wm_x) ** 2))
    if sxx == 0.0:
        return SlopeFit(math.nan, math.nan, math.nan, False)
    slope = float(np.sum(w * (lx - wm_x) * (ly - wm_y)) / sxx)
    se = math.sqrt(1.0 / sxx)
    return SlopeFit(slope=slope, std_error=se, ci_half_width=1.96 * se, defined=True)


@dataclass(frozen=True)
class DimScanCell:
    source: str
    k: int
    n: int
    delta: float
    std_error: float


@dataclass(frozen=True)
class DimScanReport:
    cells: tuple
    k_exponents: dict     # (source, n) -> SlopeFit over k
    n_exponents: dict     # (source, k) -> SlopeFit over n


def dim_scan(
    sources,
    k_list,
    n_list,
    family_builder,
    M: int,
    stream: RngStream,
) -> DimScanReport:
    """Empirical discrepancy across (source, k, n) with log-log exponent fits.

    `sources` maps a dimension to a list of sources (callable k -> list), or
    is a list of source names resolved through the catalog.
    """
    from .sources import make_source  # local to avoid cycles in callers

    k_list = list(k_list)
    if sorted(k_list) != k_list:
        raise DomainError("k_list must be ascending")
    cells = []
    for ki, k in enumerate(k_list):
        family = family_builder(k)
        names = sources if isinstance(sources, (list, tuple)) else sources(k)
        for si, name in enumerate(names):
            src = make_source(name, k) if isinstance(name, str) else name
            for ni, n in enumerate(n_list):
                sub = stream.child(1000 * ki + 100 * si + ni)
                est = delta_hat(src, n, family, M, sub)
                cells.append(
                    DimScanCell(
                        source=src.name if hasattr(src, "name") else str(name),
                        k=k,
                        n=n,
                        delta=est.value,
                        std_error=est.std_error,
                    )
                )
    k_exp = {}
    n_exp = {}
    by_source = {}
    for cell in cells:
        by_source.setdefault(cell.source, []).append(cell)
    for name, rows in by_source.items():
        for n in n_list:
            sel = sorted((c for c in rows if c.n == n), key=lambda c: c.k)
            if len(sel) >= 2:
                k_exp[(name, n)] = loglog_slope(
                    [c.k for c in sel], [c.delta for c in sel], [c.std_error for c in sel]
                )
        for k in k_list:
            sel = sorted((c for c in rows if c.k == k), key=lambda c: c.n)
            if len(sel) >= 2:
                n_exp[(name, k)] = loglog_slope(
                    [c.n for c in sel], [c.delta for c in sel], [c.std_error for c in sel]
                )
    return DimScanReport(cells=tuple(cells), k_exponents=k_exp, n_exponents=n_exp)


def scaling_trend_ok(values, std_errors, factor: float = 3.0) -> bool:
    """True when no later value exceeds an earlier one beyond combined errors."""
    values = np.asarray(values, dtype=float)
    std_errors = np.asarray(std_errors, dtype=float)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            combined = math.hypot(std_errors[i], std_errors[j])
            if values[j] - values[i] > factor * combined:
                return False
    return True
