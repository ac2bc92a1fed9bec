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
from .errors import DomainError, HypothesisViolationError, check_count, check_real
from .gaussian import QUANTILE_MASS, _as_points, quantile_a
from .rng import RngStream
from .semigroup import IndicatorFunction, ou_decay, ou_noise, semigroup_apply
from .sources import (
    Estimate, NonIIDSource, cell_stream, delta_hat, make_source, map_targets, mean_over_blocks,
    moment_summary, sup_deviation,
)

T_FLOOR = 1e-4
SEQUENCE_CAP = 4096
# `scaling_trend_ok` lets a later value exceed an earlier one by this many
# combined standard errors
TREND_SE_FACTOR = 3.0


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
            # the induction constant c is at least 1, every other constant positive
            check_real(name, value, 1.0 if name == "c" else 0.0, allow_low=name == "c")

    def override(self, **kw) -> "ConstantsConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing time t with the matched kernel-mass radius eps.

    eps = a_k * sqrt(1 - e^{-2t}) puts kernel mass alpha = 7/8 inside the
    eps-ball, which is what the smoothing inequality consumes.
    """

    t: float
    eps: float = 0.0
    k: int = 1

    def __post_init__(self):
        check_real("t", self.t)
        check_real("eps", self.eps, allow_low=True)
        check_count("k", self.k, 1)

    @staticmethod
    def for_dimension(k: int, t: float) -> "SmoothingParams":
        eps = quantile_a(k).a_k * ou_noise(check_real("t", t))
        return SmoothingParams(t=t, eps=eps, k=k)


# ---------------------------------------------------------------------------
# Closed-form right-hand sides


def smoothed_discrepancy_bound(
    k: int, rho3: float, n: int, t: float, delta_prev: float, consts: ConstantsConfig
) -> float:
    """Bound on |E T_t h~(S_n)|: the recursion's engine term.

    c1 k^{3/2} rho3 delta_{n-1} / (sqrt(n) sqrt(t)) + c2 k^{5/2} rho3 / sqrt(n).
    """
    _check_recursion_inputs(k, rho3, n, delta_prev, min_n=2)
    check_real("t", t)
    if delta_prev > 1.0:
        raise DomainError("delta_prev must lie in [0, 1]")
    lead = consts.c1 * k**1.5 * rho3 * delta_prev / (math.sqrt(n) * math.sqrt(t))
    tail = consts.c2 * k**2.5 * rho3 / math.sqrt(n)
    return lead + tail


def smoothing_bound(gamma_star: float, omega_star: float, alpha: float = QUANTILE_MASS) -> float:
    """(2 alpha - 1)^{-1} (gamma* + omega*); prefactor 4/3 at alpha = 7/8."""
    check_real("gamma_star", gamma_star, allow_low=True)
    check_real("omega_star", omega_star, allow_low=True)
    # alpha is the kernel mass inside the eps-ball
    if isinstance(alpha, bool) or not 0.5 < alpha <= 1.0:
        raise HypothesisViolationError(f"smoothing needs 1/2 < alpha <= 1, got {alpha!r}")
    return (gamma_star + omega_star) / (2.0 * alpha - 1.0)


def optimal_t(k: int, rho3: float, n: int, delta_prev: float) -> float:
    """Balance of the leading and shell terms: min(1, sqrt(k) delta rho3 / sqrt(n)).

    A zero delta_prev degenerates the formula; the floor T_FLOOR keeps the
    smoothing kernel non-degenerate.
    """
    _check_recursion_inputs(k, rho3, n, delta_prev)
    if delta_prev == 0.0:
        return T_FLOOR
    return min(1.0, math.sqrt(k) * delta_prev * rho3 / math.sqrt(n))


def _check_recursion_inputs(k, rho3: float, n, delta_prev: float = 0.0, min_n: int = 1) -> None:
    # the k, n, rho3 and delta_prev check of every bound formula
    try:
        check_count("k", k, 1)
        check_count("n", n, min_n)
    except DomainError:
        raise DomainError(f"needs integers k >= 1 and n >= {min_n}, got k={k!r}, n={n!r}") from None
    check_real("rho3", rho3)
    check_real("delta_prev", delta_prev, allow_low=True)


def recursion_bound(
    k: int, rho3: float, n: int, t: float, delta_prev: float, consts: ConstantsConfig
) -> float:
    """Smoothing-decomposed bound at explicit t:
    c6 k^{3/2} rho3 delta/(sqrt(n) sqrt(t)) + c7 k^{5/2} rho3/sqrt(n) + c8 k sqrt(t) e^t.
    """
    check_real("t", t)
    _check_recursion_inputs(k, rho3, n, delta_prev)
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
    _check_recursion_inputs(k, rho3, n, delta_prev, min_n=2)
    lead = consts.c9 * k**1.25 * math.sqrt(rho3) * math.sqrt(delta_prev) / n**0.25
    tail = consts.c7 * k**1.5 * rho3 / math.sqrt(n)
    return lead + tail


def berry_esseen_bound(k: int, rho3: float, n: int, c: float = 1.0) -> float:
    """The main iid statement: delta_n <= c k^{5/2} rho3 / sqrt(n)."""
    _check_recursion_inputs(k, rho3, n)
    check_real("c", c, 1.0, allow_low=True)
    return c * k**2.5 * rho3 / math.sqrt(n)


def noniid_bound(k: int, beta3: float, c: float = 1.0) -> float:
    """Non-iid statement delta_n <= c k^{5/2} beta3 (hypothesis beta3 < 1)."""
    check_count("k", k, 1)
    check_real("c", c, 1.0, allow_low=True)
    if check_real("beta3", beta3) >= 1.0:
        raise HypothesisViolationError("the non-iid bound assumes beta3 < 1")
    return c * k**2.5 * beta3


def gamma3_bound(k: int, gamma3: float, c: float = 1.0) -> float:
    """Componentwise variant delta_n <= c k gamma3 (better when gamma3 small)."""
    check_count("k", k, 1)
    check_real("c", c, 1.0, allow_low=True)
    check_real("gamma3", gamma3)
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
    variance relative to sampling the kernel too.  Phi(B) is computed in the
    calling thread, and each block's targets are split by `map_targets`.
    """
    check_real("t", t)
    check_real("eps", eps, allow_low=True)
    if translates is None:
        translates = default_translates(C.dim)
    translates, _ = _as_points(translates, C.dim)

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
    means, std_errors = mean_over_blocks(
        src, n, M, stream, lambda X: map_targets(lambda h: semigroup_apply(h, t, X), hs)
    )
    return sup_deviation(means, std_errors, measures)


def omega_star_hat(C: ConvexSet, eps: float, t: float) -> float:
    """Boundary-shell mass of the shrunk Gaussian: P(e^{-t} Z in shell(C, 2eps))."""
    check_real("eps", eps, allow_low=True)
    check_real("t", t, allow_low=True)
    return shell_measure(C, eps, scale=ou_decay(t))


def omega_star_ratio(C: ConvexSet, eps: float, t: float) -> float:
    """Observed shell mass relative to the sqrt(k) * 2eps * e^t envelope."""
    check_real("eps", eps)
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
    check_count("n_max", n_max, 2)
    _check_recursion_inputs(k, rho3, n_max)
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
    """Everything the pipeline knows about one (k, n, source, t) cell.

    The fields, in order, are the columns of the `bounds` CSV.
    """

    k: int
    n: int
    source: str
    t: float
    rho3: float | None
    beta3: float | None
    gamma3: float | None
    delta_hat: float
    std_error: float
    smoothed_bound: float
    recursion_at_t: float
    optimal_t: float
    recursion_step: float
    main_bound: float
    noniid_bound: float | None
    gamma3_bound: float | None
    within_main: bool
    implied_c: float   # the c that would make the main bound tight
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
    if t is not None:
        check_real("t", t)
    k = family.dim
    summary = moment_summary(src)
    est = delta_hat(src, n, family, M, stream)
    if isinstance(src, NonIIDSource):
        rho3 = None
        beta3, gamma3 = summary.beta3, summary.gamma3
        rho3_for_formulas = k**1.5  # moment floor, used only for t selection
    else:
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
        source=src.name,
        t=t_used,
        rho3=rho3,
        beta3=beta3,
        gamma3=gamma3,
        delta_hat=est.value,
        std_error=est.std_error,
        smoothed_bound=smoothed_discrepancy_bound(
            k, rho3_for_formulas, max(n, 2), t_used, delta_prev, consts
        ),
        recursion_at_t=recursion_bound(k, rho3_for_formulas, max(n, 2), t_used, delta_prev, consts),
        optimal_t=t_opt,
        recursion_step=recursion_step_bound(k, rho3_for_formulas, max(n, 2), delta_prev, consts),
        main_bound=main,
        noniid_bound=nb,
        gamma3_bound=gb,
        within_main=bool(est.value <= main),
        implied_c=float(est.value * consts.c / main),
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
    """WLS slope of log(values) on log(xs).

    Defined only when every x is finite and > 0, every value is finite and
    above three standard errors, and no standard error is negative.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    std_errors = np.asarray(std_errors, dtype=float)
    # written so that a NaN x, value or standard error, or an infinite one, fails
    if len(xs) < 2 or not (
        np.isfinite(xs).all() and np.all(xs > 0.0)
        and np.isfinite(values).all() and np.all(values > 3.0 * std_errors)
        and np.all(std_errors >= 0.0)
    ):
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

    `sources` is a list of source names resolved through the catalog; each
    cell draws from `cell_stream(stream, source, k, n)`.
    """
    sources, k_list, n_list = list(sources), list(k_list), list(n_list)
    if sorted(k_list) != k_list or any(len(set(v)) < len(v) for v in (sources, k_list, n_list)):
        raise DomainError(f"a scan takes ascending k and each source, k and n once, got "
                          f"{sources}, {k_list}, {n_list}")
    cells = []
    for k in k_list:
        family = family_builder(k)
        for name in sources:
            src = make_source(name, k)
            for n in n_list:
                est = delta_hat(src, n, family, M, cell_stream(stream, name, k, n))
                cells.append(
                    DimScanCell(source=name, k=k, n=n, delta=est.value, std_error=est.std_error)
                )
    k_exp, n_exp = {}, {}
    for name in sources:
        rows = [c for c in cells if c.source == name]
        for n in n_list:
            sel = [c for c in rows if c.n == n]  # in ascending k
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


def scaling_trend_ok(values, std_errors) -> bool:
    """True when no later value exceeds an earlier one by more than TREND_SE_FACTOR errors.

    False when any value or standard error is not finite.
    """
    values = np.asarray(values, dtype=float)
    std_errors = np.asarray(std_errors, dtype=float)
    if not (np.isfinite(values).all() and np.isfinite(std_errors).all()):
        return False
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            combined = math.hypot(std_errors[i], std_errors[j])
            if values[j] - values[i] > TREND_SE_FACTOR * combined:
                return False
    return True
