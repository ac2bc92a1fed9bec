"""Convex body catalog: membership, dilation, erosion, Gaussian measure.

Four analytic variants (half-space, ball, axis box, ellipsoid) are closed
under translation and positive scaling.  Dilation/erosion stay in closed form
where possible (half-space, ball, eroded box); otherwise the result is a
predicate-backed set whose membership is decided by exact or iterative
distance computations, which is all the Monte Carlo machinery needs.

Sets are closed: boundary points count as inside.  The Gaussian measure is
analytic for half-spaces, balls (central and off-center) and boxes, and a
scrambled-Sobol QMC estimate for everything else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy import special, stats
from scipy.stats import qmc

from .errors import ConfigurationError, DimensionMismatchError, DomainError
from .gaussian import chi_cdf, norm_cdf
from .rng import RngStream

_UNIT_TOL = 1e-12
_TINY = np.finfo(float).tiny


def _as_points(x, dim: int):
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError(
            f"points of dimension {pts.shape[-1] if pts.ndim else '?'} vs set of dimension {dim}"
        )
    return pts, single


def _ret(mask, single):
    return bool(mask[0]) if single else mask


class ConvexSet:
    """Base type: immutable by convention, membership vectorized."""

    dim: int

    @property
    def is_empty(self) -> bool:
        return False

    def contains(self, x):
        raise NotImplementedError

    def membership_statistic(self):
        """(key, statistic, level) with x in C iff statistic(x) <= level, or None.

        Sets whose keys are equal compute the same statistic, so a family
        evaluates it once per sample for all of them (`SetFamily.counts`).
        """
        return None

    def dilate(self, eps: float) -> "ConvexSet":
        raise NotImplementedError

    def erode(self, eps: float) -> "ConvexSet":
        raise NotImplementedError

    def translate(self, shift) -> "ConvexSet":
        raise NotImplementedError

    def scale(self, factor: float) -> "ConvexSet":
        """The set {factor * y : y in C}, factor > 0."""
        raise NotImplementedError

    # distance hooks used by the predicate-backed dilation/erosion
    def distance_outside(self, x):
        """dist(x, C) for each point (0 inside)."""
        raise NotImplementedError

    def distance_inside(self, x):
        """dist(x, boundary) for points inside C (<= 0 outside)."""
        raise NotImplementedError


def _projection(normal, pts):
    return pts @ normal


def _center_distance(center, pts):
    return np.linalg.norm(pts - center, axis=1)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if eps < 0.0:
        raise DomainError("dilation/erosion radius must be >= 0")
    return eps


class HalfSpace(ConvexSet):
    """{x : normal . x <= offset} with a unit normal."""

    def __init__(self, normal, offset: float):
        normal = np.asarray(normal, dtype=float)
        if normal.ndim != 1 or normal.size < 1:
            raise DomainError("normal must be a vector")
        # written so that a NaN or infinite entry (a NaN or infinite norm) fails too
        if not abs(np.linalg.norm(normal) - 1.0) <= _UNIT_TOL:
            raise DomainError("half-space normal must have unit length")
        offset = float(offset)
        if not math.isfinite(offset):
            raise DomainError(f"half-space offset must be finite, got {offset}")
        self.normal = normal
        self.offset = offset
        self.dim = normal.size

    def membership_statistic(self):
        key = ("projection", self.normal.tobytes())
        return key, partial(_projection, self.normal), self.offset

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        return _ret(_projection(self.normal, pts) <= self.offset, single)

    def dilate(self, eps):
        return HalfSpace(self.normal, self.offset + _check_eps(eps))

    def erode(self, eps):
        return HalfSpace(self.normal, self.offset - _check_eps(eps))

    def translate(self, shift):
        shift = np.asarray(shift, dtype=float)
        return HalfSpace(self.normal, self.offset + float(self.normal @ shift))

    def scale(self, factor):
        return HalfSpace(self.normal, self.offset * float(factor))

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        d = np.maximum(pts @ self.normal - self.offset, 0.0)
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        d = self.offset - pts @ self.normal
        return float(d[0]) if single else d

    def __repr__(self):
        return f"HalfSpace(normal={self.normal.tolist()}, offset={self.offset})"


class Ball(ConvexSet):
    """{x : |x - center| <= radius}; a negative radius denotes the empty set."""

    def __init__(self, center, radius: float):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1:
            raise DomainError("center must be a vector")
        self.center = center
        self.radius = float(radius)
        self.dim = center.size

    @property
    def is_empty(self):
        return self.radius < 0.0

    def membership_statistic(self):
        key = ("center_distance", self.center.tobytes())
        return key, partial(_center_distance, self.center), self.radius

    def contains(self, x):
        # an empty ball has a negative radius, which no distance is below
        pts, single = _as_points(x, self.dim)
        return _ret(_center_distance(self.center, pts) <= self.radius, single)

    def dilate(self, eps):
        return Ball(self.center, self.radius + _check_eps(eps))

    def erode(self, eps):
        return Ball(self.center, max(self.radius - _check_eps(eps), -1.0))

    def translate(self, shift):
        return Ball(self.center + np.asarray(shift, dtype=float), self.radius)

    def scale(self, factor):
        factor = float(factor)
        return Ball(self.center * factor, self.radius * factor)

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        d = np.maximum(np.linalg.norm(pts - self.center, axis=1) - self.radius, 0.0)
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        d = self.radius - np.linalg.norm(pts - self.center, axis=1)
        return float(d[0]) if single else d

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Box(ConvexSet):
    """Axis-aligned box [lower, upper]; empty if any side is inverted."""

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DomainError("box corners must be vectors of equal length")
        self.lower = lower
        self.upper = upper
        self.dim = lower.size

    @property
    def is_empty(self):
        return bool(np.any(self.lower > self.upper))

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        if self.is_empty:
            return _ret(np.zeros(len(pts), dtype=bool), single)
        # per-column comparisons, cheaper than reducing an (M, k) temporary
        inside = np.ones(len(pts), dtype=bool)
        for j in range(self.dim):
            inside &= pts[:, j] >= self.lower[j]
            inside &= pts[:, j] <= self.upper[j]
        return _ret(inside, single)

    def dilate(self, eps):
        eps = _check_eps(eps)
        return self if eps == 0.0 else DilatedSet(self, eps)

    def erode(self, eps):
        eps = _check_eps(eps)
        return Box(self.lower + eps, self.upper - eps)

    def translate(self, shift):
        shift = np.asarray(shift, dtype=float)
        return Box(self.lower + shift, self.upper + shift)

    def scale(self, factor):
        factor = float(factor)
        return Box(self.lower * factor, self.upper * factor)

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        excess = np.maximum(np.maximum(self.lower - pts, pts - self.upper), 0.0)
        d = np.linalg.norm(excess, axis=1)
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        d = np.minimum(pts - self.lower, self.upper - pts).min(axis=1)
        return float(d[0]) if single else d

    def __repr__(self):
        return f"Box(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


class Ellipsoid(ConvexSet):
    """{x : (x-c)^T M^{-1} (x-c) <= 1} with M symmetric positive definite."""

    def __init__(self, center, shape):
        center = np.asarray(center, dtype=float)
        shape = np.asarray(shape, dtype=float)
        if center.ndim != 1 or shape.shape != (center.size, center.size):
            raise DomainError("need a center vector and a matching shape matrix")
        if not np.allclose(shape, shape.T, atol=1e-10):
            raise DomainError("shape matrix must be symmetric")
        evals, evecs = np.linalg.eigh(0.5 * (shape + shape.T))
        if np.min(evals) <= 0.0:
            raise DomainError("shape matrix must be positive definite")
        self.center = center
        self.shape = shape
        self.dim = center.size
        self._evals = evals  # squared semi-axes
        self._evecs = evecs

    def _rotated(self, pts):
        return (pts - self.center) @ self._evecs

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        q = np.sum(np.square(self._rotated(pts)) / self._evals, axis=1)
        return _ret(q <= 1.0, single)

    def boundary_distance(self, x):
        """Euclidean distance to the boundary shell, inside or outside.

        In principal axes the nearest boundary point is w_i = lam_i v_i /
        (lam_i + mu), where mu > -lam_min solves the projection secular
        equation |p(mu)| = 1 with p_i = sqrt(lam_i) v_i / (lam_i + mu).  The
        root is found in t = mu + lam_min, so lam_i + mu = (lam_i - lam_min) + t
        does not cancel near the pole, by Newton's method on
        psi(t) = 1/|p(t)| - 1 (More & Sorensen 1983, "Computing a trust region
        step").  psi is increasing and concave, so iterates started left of the
        root, at t0 = max(0, max_i sqrt(lam_i)|v_i| - (lam_i - lam_min)), rise
        monotonically to it; a row stops when a step no longer increases t.
        If the root would lie at t <= 0 (every lam_min coordinate of v is 0
        and |p(0)| <= 1), then mu = -lam_min and the nearest point takes up
        the remaining length along a lam_min axis.
        """
        pts, single = _as_points(x, self.dim)
        v = self._rotated(pts)
        lam = self._evals
        lam_min = float(np.min(lam))
        gap = lam - lam_min
        g = np.sqrt(lam) * v
        t = np.maximum(np.max(np.abs(g) - gap, axis=1), 0.0)
        rows, t_rows, g_rows = np.arange(len(t)), t, g
        while rows.size:
            # t = 0 only where g vanishes on every axis with gap 0; the floor
            # keeps those terms at 0 rather than 0 * inf
            inv = 1.0 / np.maximum(gap + t_rows[:, None], _TINY)
            p2 = np.square(g_rows * inv)
            norm2 = p2.sum(axis=1)
            with np.errstate(invalid="ignore"):  # 0/0 at the centre: nan does not rise
                step = (np.sqrt(norm2) - 1.0) * norm2 / (p2 * inv).sum(axis=1)
            t_next = t_rows + step
            rising = t_next > t_rows
            rows, t_rows, g_rows = rows[rising], t_next[rising], g_rows[rising]
            t[rows] = t_rows
        inv = 1.0 / np.maximum(gap + t[:, None], _TINY)
        d2 = np.square(t - lam_min) * np.sum(np.square(v * inv), axis=1)
        # t = 0 means mu = -lam_min: fill one lam_min axis up to the boundary
        hard = t == 0.0
        d2[hard] += lam_min * (1.0 - np.sum(np.square(g[hard] * inv[hard]), axis=1))
        d = np.sqrt(d2)
        return float(d[0]) if single else d

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        outside = ~self.contains(pts)
        d = np.zeros(len(pts))
        d[outside] = self.boundary_distance(pts[outside])
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        inside = self.contains(pts)
        bd = self.boundary_distance(pts)
        d = np.where(inside, bd, -bd)
        return float(d[0]) if single else d

    def dilate(self, eps):
        eps = _check_eps(eps)
        return self if eps == 0.0 else DilatedSet(self, eps)

    def erode(self, eps):
        eps = _check_eps(eps)
        return self if eps == 0.0 else ErodedSet(self, eps)

    def translate(self, shift):
        return Ellipsoid(self.center + np.asarray(shift, dtype=float), self.shape)

    def scale(self, factor):
        factor = float(factor)
        return Ellipsoid(self.center * factor, self.shape * factor**2)

    def __repr__(self):
        return f"Ellipsoid(center={self.center.tolist()}, shape={self.shape.tolist()})"


class DilatedSet(ConvexSet):
    """Predicate-backed outer parallel body {x : dist(x, base) <= eps}."""

    def __init__(self, base: ConvexSet, eps: float):
        self.base = base
        self.eps = _check_eps(eps)
        self.dim = base.dim

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        return _ret(self.base.distance_outside(pts) <= self.eps, single)

    def dilate(self, eps):
        return DilatedSet(self.base, self.eps + _check_eps(eps))

    def erode(self, eps):
        eps = _check_eps(eps)
        # (C^a)^{-b} = C^{a-b} for convex C, in either direction of a-b
        if eps <= self.eps:
            return DilatedSet(self.base, self.eps - eps) if eps < self.eps else self.base
        return self.base.erode(eps - self.eps)

    def translate(self, shift):
        return DilatedSet(self.base.translate(shift), self.eps)

    def scale(self, factor):
        factor = float(factor)
        return DilatedSet(self.base.scale(factor), self.eps * factor)

    def distance_outside(self, x):
        pts, single = _as_points(x, self.dim)
        d = np.maximum(self.base.distance_outside(pts) - self.eps, 0.0)
        return float(d[0]) if single else d

    def distance_inside(self, x):
        pts, single = _as_points(x, self.dim)
        inside_base = np.asarray(self.base.contains(pts))
        d = np.where(
            inside_base,
            self.base.distance_inside(pts) + self.eps,
            self.eps - self.base.distance_outside(pts),
        )
        return float(d[0]) if single else d

    def __repr__(self):
        return f"DilatedSet({self.base!r}, eps={self.eps})"


class ErodedSet(ConvexSet):
    """Inner parallel body: points whose eps-ball is contained in base."""

    def __init__(self, base: ConvexSet, eps: float):
        self.base = base
        self.eps = _check_eps(eps)
        self.dim = base.dim

    def contains(self, x):
        pts, single = _as_points(x, self.dim)
        ok = np.asarray(self.base.contains(pts))
        ok[ok] = self.base.distance_inside(pts[ok]) >= self.eps
        return _ret(ok, single)

    def erode(self, eps):
        return ErodedSet(self.base, self.eps + _check_eps(eps))

    def dilate(self, eps):
        eps = _check_eps(eps)
        if eps <= self.eps:
            # exact for smooth bodies with boundary curvature radius >= eps
            return ErodedSet(self.base, self.eps - eps) if eps < self.eps else self.base
        raise ConfigurationError("dilating an eroded set past its base is unsupported")

    def translate(self, shift):
        return ErodedSet(self.base.translate(shift), self.eps)

    def scale(self, factor):
        factor = float(factor)
        return ErodedSet(self.base.scale(factor), self.eps * factor)

    def __repr__(self):
        return f"ErodedSet({self.base!r}, eps={self.eps})"


# ---------------------------------------------------------------------------
# Gaussian measures


def _qmc_membership_mean(C: ConvexSet, n_points: int, seed: int):
    """Scrambled-Sobol estimate of P(Z in C) with a replicate-based st. error."""
    replicates = 16
    per = max(n_points // replicates, 256)
    vals = np.empty(replicates)
    for r in range(replicates):
        eng = qmc.Sobol(d=C.dim, scramble=True, seed=seed + r)
        u = eng.random(per)
        pts = special.ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))
        vals[r] = float(np.mean(C.contains(pts)))
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(replicates))


def gaussian_measure_estimate(
    C: ConvexSet, n_points: int = 1 << 16, seed: int = 0
) -> tuple[float, float]:
    """(Phi(C), standard error); the error is 0 for analytic variants."""
    if C.is_empty:
        return 0.0, 0.0
    if isinstance(C, HalfSpace):
        return float(norm_cdf(C.offset)), 0.0
    if isinstance(C, Ball):
        nc = float(C.center @ C.center)
        if nc == 0.0:
            return float(chi_cdf(C.radius, C.dim)), 0.0
        # off-center ball: exact noncentral chi-square CDF
        return float(stats.ncx2.cdf(C.radius**2, C.dim, nc)), 0.0
    if isinstance(C, Box):
        mass = float(np.prod(norm_cdf(C.upper) - norm_cdf(C.lower)))
        return max(mass, 0.0), 0.0
    return _qmc_membership_mean(C, n_points, seed)


def gaussian_measure(C: ConvexSet, n_points: int = 1 << 16, seed: int = 0) -> float:
    """Phi(C) for the standard Gaussian; QMC fallback for non-analytic sets."""
    return gaussian_measure_estimate(C, n_points=n_points, seed=seed)[0]


def shifted_measure_batch(C: ConvexSet, shifts, sigma: float):
    """P(shift + sigma*Z in C) for each row of `shifts`, or None.

    Closed form for half-spaces, balls and boxes (the smoothing kernel of the
    whole library); None signals the caller to fall back to quadrature/MC.
    """
    sigma = float(sigma)
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
    if C.is_empty:
        return np.zeros(len(shifts))
    if isinstance(C, HalfSpace):
        return norm_cdf((C.offset - shifts @ C.normal) / sigma)
    if isinstance(C, Ball):
        delta = shifts - C.center
        nc = np.sum(delta * delta, axis=1) / sigma**2
        q = (C.radius / sigma) ** 2
        return stats.ncx2.cdf(q, C.dim, nc)
    if isinstance(C, Box):
        hi = (C.upper - shifts) / sigma
        lo = (C.lower - shifts) / sigma
        return np.prod(norm_cdf(hi) - norm_cdf(lo), axis=1)
    return None


def shell_measure(C: ConvexSet, eps: float, scale: float = 1.0, **measure_kw) -> float:
    """P(scale*Z in boundary shell of width 2*eps around the boundary of C).

    Evaluated as Phi((C^{2eps})/scale) - Phi((C^{-2eps})/scale).
    """
    if float(scale) <= 0.0:
        raise DomainError("scale must be positive")
    eps = float(eps)
    if eps < 0.0:
        raise DomainError("eps must be >= 0")
    if eps == 0.0:
        return 0.0
    inv = 1.0 / float(scale)
    outer = gaussian_measure(C.dilate(2.0 * eps).scale(inv), **measure_kw)
    inner = gaussian_measure(C.erode(2.0 * eps).scale(inv), **measure_kw)
    return max(outer - inner, 0.0)


# ---------------------------------------------------------------------------
# Set families


@dataclass(frozen=True)
class SetFamily:
    """Finite family of same-dimension sets approximating the convex-set sup."""

    sets: tuple
    description: str = ""

    def __post_init__(self):
        if len(self.sets) == 0:
            raise DomainError("a set family cannot be empty")
        dims = {s.dim for s in self.sets}
        if len(dims) != 1:
            raise DimensionMismatchError("family members must share a dimension")

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    def __len__(self):
        return len(self.sets)

    @cached_property
    def _plan(self):
        """Sets grouped by shared membership statistic, and the other sets."""
        groups: dict = {}
        others = []
        for i, C in enumerate(self.sets):
            test = C.membership_statistic()
            if test is None:
                others.append(i)
                continue
            key, statistic, level = test
            groups.setdefault(key, (statistic, []))[1].append((i, level))
        return tuple(groups.values()), tuple(others)

    def counts(self, x) -> np.ndarray:
        """Number of points of x inside each set, as int64.

        Equal to `count_nonzero(C.contains(x))` for every set C, but sets
        sharing a membership statistic (half-spaces with one normal, balls
        with one centre) compute it once: each such set costs one comparison.
        """
        pts, _ = _as_points(x, self.dim)
        groups, others = self._plan
        out = np.empty(len(self.sets), dtype=np.int64)
        for statistic, members in groups:
            values = statistic(pts)
            for i, level in members:
                out[i] = np.count_nonzero(values <= level)
        for i in others:
            out[i] = np.count_nonzero(self.sets[i].contains(pts))
        return out


def default_family(
    k: int,
    n_directions: int = 32,
    n_offsets: int = 17,
    n_radii: int = 17,
    n_box_sizes: int = 9,
    seed: int = 0,
) -> SetFamily:
    """Half-spaces in random directions, centered balls, centered cubes.

    This finite family lower-bounds the supremum over all Borel convex sets;
    half-spaces and balls are the extremal shapes in the classical analyses.
    """
    gen = RngStream(seed, stream_id=101).generator()
    sets: list[ConvexSet] = []
    offsets = np.linspace(-3.2, 3.2, n_offsets)
    for _ in range(n_directions):
        d = gen.standard_normal(k)
        d /= np.linalg.norm(d)
        for b in offsets:
            sets.append(HalfSpace(d, float(b)))
    # ball radii at even chi-mass spacing so every radius is informative
    probs = np.linspace(0.02, 0.98, n_radii)
    radii = np.sqrt(2.0 * special.gammaincinv(0.5 * k, probs))
    for r in radii:
        sets.append(Ball(np.zeros(k), float(r)))
    for a in np.linspace(0.3, 2.7, n_box_sizes):
        sets.append(Box(-a * np.ones(k), a * np.ones(k)))
    return SetFamily(
        sets=tuple(sets),
        description=f"default(k={k} dirs={n_directions} offs={n_offsets} seed={seed})",
    )


def default_translates(k: int, n_directions: int = 6, seed: int = 0) -> np.ndarray:
    """Translation grid used when estimating sup-over-translates quantities."""
    gen = RngStream(seed, stream_id=202).generator()
    rows = [np.zeros(k)]
    for _ in range(n_directions):
        d = gen.standard_normal(k)
        d /= np.linalg.norm(d)
        rows.append(0.5 * d)
        rows.append(1.5 * d)
    return np.array(rows)


# --- serialization ----------------------------------------------------------


def set_to_config(C: ConvexSet) -> dict:
    if isinstance(C, HalfSpace):
        return {"variant": "half_space", "normal": C.normal.tolist(), "offset": C.offset}
    if isinstance(C, Ball):
        return {"variant": "ball", "center": C.center.tolist(), "radius": C.radius}
    if isinstance(C, Box):
        return {"variant": "box", "lower": C.lower.tolist(), "upper": C.upper.tolist()}
    if isinstance(C, Ellipsoid):
        return {
            "variant": "ellipsoid",
            "center": C.center.tolist(),
            "shape": C.shape.tolist(),
        }
    raise ConfigurationError(f"cannot serialize set of type {type(C).__name__}")


def set_from_config(cfg: dict) -> ConvexSet:
    variant = cfg.get("variant")
    if variant == "half_space":
        return HalfSpace(cfg["normal"], cfg["offset"])
    if variant == "ball":
        return Ball(cfg["center"], cfg["radius"])
    if variant == "box":
        return Box(cfg["lower"], cfg["upper"])
    if variant == "ellipsoid":
        return Ellipsoid(cfg["center"], cfg["shape"])
    raise ConfigurationError(f"unknown set variant {variant!r}")


def family_to_config(fam: SetFamily) -> dict:
    return {
        "description": fam.description,
        "sets": [set_to_config(s) for s in fam.sets],
    }


def family_from_config(cfg: dict) -> SetFamily:
    """Build a family from an explicit set list or a default-builder spec."""
    if "builder" in cfg:
        if cfg["builder"] != "default":
            raise ConfigurationError(f"unknown family builder {cfg['builder']!r}")
        kw = {
            key: int(cfg[key])
            for key in ("k", "n_directions", "n_offsets", "n_radii", "n_box_sizes", "seed")
            if key in cfg
        }
        if "k" not in kw:
            raise ConfigurationError("family builder spec needs the dimension k")
        return default_family(**kw)
    sets = tuple(set_from_config(c) for c in cfg["sets"])
    return SetFamily(sets=sets, description=cfg.get("description", ""))


def save_family(fam: SetFamily, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_config(fam), fh, indent=1, sort_keys=True)


def load_family(path: str) -> SetFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_config(json.load(fh))
