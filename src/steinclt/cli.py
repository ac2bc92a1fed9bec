"""Seeded experiment drivers.

Subcommands are thin: all numerics live in the library modules, the CLI only
parses configuration, derives streams from --seed, runs the driver and emits
CSV/JSON.  Exit codes: 0 success, 1 a check suite failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
from functools import lru_cache

import numpy as np

from . import bounds as bd
from . import convex as cv
from . import gaussian as ga
from . import semigroup as sg
from . import sources as so
from . import stein as st
from .errors import (
    ConfigurationError, DimensionMismatchError, DomainError, HypothesisViolationError,
)
from .quadrature import GH_NODES, gauss_hermite_tensor
from .reports import emit
from .rng import RngStream


def _positive_ints(name: str, value) -> list[int]:
    """A comma list (or, from --config, a bare int) of integers >= 1."""
    try:
        values = [int(v) for v in str(value).split(",") if v != ""]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise ConfigurationError(f"--{name} expects integers >= 1, got {value!r}")
    return values


def _single_k(args) -> int:
    ks = _positive_ints("k", args.k)
    if len(ks) != 1:
        raise ConfigurationError(f"--k expects one dimension, got {args.k!r}")
    return ks[0]


def _constants_from(args) -> bd.ConstantsConfig:
    overrides = {}
    for item in args.constant or []:
        if "=" not in item:
            raise ConfigurationError(f"--constant expects name=value, got {item!r}")
        name, value = (part.strip() for part in item.split("=", 1))
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ConfigurationError(f"--constant {name}: {value!r} is not a number") from None
    try:
        return bd.ConstantsConfig().override(**overrides)
    except TypeError as exc:
        raise ConfigurationError(f"unknown constant in --constant: {exc}") from exc


def _family_for(args, k: int) -> cv.SetFamily:
    if getattr(args, "family", None):
        fam = cv.load_family(args.family)
        if fam.dim != k:
            raise ConfigurationError(
                f"family file has dimension {fam.dim}, experiment has k={k}"
            )
        return fam
    return cv.default_family(k, seed=getattr(args, "family_seed", 0))


def _check_rows_pass(rows) -> bool:
    return all(bool(r["passed"]) for r in rows)


def _row(check, value, reference, tol, passed) -> dict:
    return {
        "check": check,
        "value": float(value),
        "reference": float(reference),
        "tolerance": float(tol),
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# check suites


def run_check_inequalities(args) -> tuple[list, bool, None]:
    rows = []
    oracles = {
        "distinct": (2.0 / math.pi) ** 1.5,
        "pair": 4.0 * float(ga.norm_pdf(1.0)) * math.sqrt(2.0 / math.pi),
        "triple": 2.0 * float(ga.norm_pdf(0.0)) + 8.0 * float(ga.norm_pdf(math.sqrt(3.0))),
    }
    caps = {"distinct": 1.0, "pair": 1.0, "triple": math.sqrt(6.0)}
    k_arg = _single_k(args)
    k = max(k_arg, 3)
    for pattern, oracle in oracles.items():
        val = ga.abs_d3_integral(pattern, k)
        rows.append(_row(f"abs-d3-{pattern}", val, oracle, 1e-10, abs(val - oracle) <= 1e-10))
        rows.append(_row(f"abs-d3-{pattern}-cap", val, caps[pattern], 0.0, val <= caps[pattern]))
    gen = RngStream(args.seed, stream_id=11).generator()
    s = np.exp(gen.uniform(math.log(1e-6), math.log(20.0), size=10_000))
    gap = float(np.max(st.smoothing_weight(s) - st.weight_bound(s)))
    rows.append(_row("weight-pointwise", gap, 0.0, 0.0, gap <= 0.0))
    for t in (0.01, 0.1, 0.5, 1.0):
        val = st.weight3_integral(t)
        cap = (2.0 * t) ** -0.5
        rows.append(_row(f"weight3-integral-t={t}", val, cap, 1e-8, val <= cap + 1e-8))
    rows.append(
        _row("weight1-total", st.weight1_integral_total(), math.pi / 2.0, 1e-9, True)
    )
    # vanishing moments of the derivative kernels, exact under Gauss-Hermite
    kk = min(k_arg, 3)
    nodes, wts = gauss_hermite_tensor(kk, GH_NODES)
    for idx in {(0,) * 3, tuple(range(min(kk, 3))) + (0,) * (3 - min(kk, 3))}:
        kern = ga.hermite_kernel(wts, nodes, idx)
        rows.append(_row(f"kernel-mean-{idx}", abs(kern.sum()), 0.0, 1e-8, abs(kern.sum()) <= 1e-8))
        moment = abs(float(kern @ nodes[:, 0]))
        rows.append(_row(f"kernel-first-moment-{idx}", moment, 0.0, 1e-8, moment <= 1e-8))
    return rows, _check_rows_pass(rows), None


def _grid_points(k: int, count: int, seed: int) -> np.ndarray:
    gen = RngStream(seed, stream_id=23).generator()
    return np.clip(gen.standard_normal((count, k)), -2.5, 2.5)


def _catalog_sets(k: int):
    yield "half-space", cv.HalfSpace(np.eye(k)[0], 0.3)
    yield "ball", cv.Ball(np.zeros(k), ga.quantile_a(k).a_k)


def run_check_semigroup(args) -> tuple[list, bool, None]:
    rows = []
    k = _single_k(args)
    pts = _grid_points(k, 5, args.seed)
    g = sg.hermite_product_function((1,) + (0,) * (k - 1))
    worst = max(
        abs(sg.generator_apply(g, x) + float(x[0])) for x in pts
    )
    rows.append(_row("eigenvalue-1", worst, 0.0, 1e-12, worst <= 1e-12))
    if k >= 2:
        g2 = sg.hermite_product_function((1, 1) + (0,) * (k - 2))
        worst2 = max(
            abs(sg.generator_apply(g2, x) + 2.0 * float(x[0] * x[1])) for x in pts
        )
        rows.append(_row("eigenvalue-2", worst2, 0.0, 1e-12, worst2 <= 1e-12))
    for name, C in _catalog_sets(k):
        h = sg.IndicatorFunction(C)
        res = max(abs(sg.backward_residual(h, t, x)) for t in (0.5, 1.0) for x in pts[:3])
        rows.append(_row(f"backward-{name}", res, 0.0, 1e-3, res <= 1e-3))
        mass = cv.gaussian_measure(C)
        stat = max(abs(sg.semigroup_apply(h, 20.0, x) - mass) for x in pts[:3])
        rows.append(_row(f"stationarity-{name}", stat, 0.0, 1e-6, stat <= 1e-6))
        law = _semigroup_law_gap(h, k, pts[:3])
        rows.append(_row(f"semigroup-law-{name}", law, 0.0, 1e-5, law <= 1e-5))
    # Monte Carlo invariance of the generator
    gen = RngStream(args.seed, stream_id=37).generator()
    Z = gen.standard_normal((1 << 14, k))
    he2 = sg.hermite_product_function((2,) + (0,) * (k - 1))
    vals = -2.0 * np.asarray(he2(Z), dtype=float)  # L He_2 = -2 He_2
    se = float(np.std(vals) / math.sqrt(len(vals)))
    mean = abs(float(np.mean(vals)))
    rows.append(_row("invariance-mc", mean, 0.0, 4.0 * se, mean <= 4.0 * se))
    return rows, _check_rows_pass(rows), None


def _semigroup_law_gap(h, k, pts) -> float:
    worst = 0.0
    for t, s in ((0.5, 0.5), (0.1, 1.0)):
        inner = sg.SmoothFunction(lambda X, s=s: sg.semigroup_apply(h, s, X))
        for x in pts:
            lhs = sg.semigroup_apply(h, t + s, x)
            rhs = sg.semigroup_apply(inner, t, x)
            worst = max(worst, abs(lhs - rhs))
    return worst


def run_check_stein(args) -> tuple[list, bool, None]:
    rows = []
    k = _single_k(args)
    pts = _grid_points(k, 10, args.seed)
    for name, C in _catalog_sets(k):
        for t in (0.5, 1.0):
            sol = st.SteinSolution(t, sg.IndicatorFunction(C))
            res = float(np.max(np.abs(st.stein_residual(sol, pts))))
            rows.append(_row(f"stein-identity-{name}-t={t}", res, 0.0, 1e-3, res <= 1e-3))
    sol = st.SteinSolution(0.5, sg.IndicatorFunction(dict(_catalog_sets(k))["half-space"]))
    x0 = pts[0]
    dstep = 1e-4
    for i in range(min(k, 2)):
        e = np.zeros(k)
        e[i] = dstep
        fd = (st.psi(sol, x0 + e) - st.psi(sol, x0 - e)) / (2.0 * dstep)
        an = st.psi_d1(sol, x0, i)
        err = abs(fd - an) / max(abs(an), 1e-12)
        rows.append(_row(f"psi-d1-vs-fd-i={i}", err, 0.0, 1e-3, err <= 1e-3))
    for t in (0.01, 0.1, 0.5, 1.0):
        val = st.weight3_integral(t)
        cap = (2.0 * t) ** -0.5
        rows.append(_row(f"weight3-t={t}", val, cap, 1e-8, val <= cap + 1e-8))
    report = st.double_integral_kernel_report(
        sg.IndicatorFunction(cv.HalfSpace(np.eye(k)[0], 0.0)),
        n=10,
        s=2.0,
        idx=(0, 0, 0),
        shift_grid=_grid_points(k, 5, args.seed + 1),
    )
    cap = math.sqrt(6.0)
    rows.append(_row("kernel-double-integral", report.max_abs, cap, 0.0, report.max_abs <= cap))
    return rows, _check_rows_pass(rows), None


# ---------------------------------------------------------------------------
# experiment drivers


def _resolve_source(args, k: int, n: int):
    """The iid catalog law, or its non-iid scaled variant when requested."""
    if getattr(args, "noniid_profile", None):
        return so.noniid_catalog(args.source, k, n, profile=args.noniid_profile)
    return so.make_source(args.source, k)


def run_delta(args) -> tuple[list, bool, None]:
    rows = []
    for k in _positive_ints("k", args.k):
        family = _family_for(args, k)
        for n in _positive_ints("n", args.n):
            src = _resolve_source(args, k, n)
            stream = RngStream(args.seed).child(7 * k + n)
            est = so.delta_hat(src, n, family, args.M, stream)
            rows.append(
                {
                    "k": k,
                    "n": n,
                    "source": src.name,
                    "family": family.description or "custom",
                    "M": args.M,
                    "seed": args.seed,
                    "delta_hat": est.value,
                    "std_error": est.std_error,
                }
            )
    return rows, True, None


def run_discrepancy(args) -> tuple[list, bool, None]:
    rows = []
    for k in _positive_ints("k", args.k):
        src = so.make_source(args.source, k)
        C = cv.HalfSpace(np.eye(k)[0], args.offset)
        for n in _positive_ints("n", args.n):
            stream = RngStream(args.seed).child(13 * k + n)
            result = so.stein_discrepancy_hat(src, n, args.t, C, args.M, stream=stream)
            agree = result.gap <= 4.0 * max(result.combined_std_error, 1e-12)
            rows.append(
                {
                    "k": k,
                    "n": n,
                    "source": args.source,
                    "t": args.t,
                    "M": args.M,
                    "seed": args.seed,
                    "direct": result.direct.value,
                    "direct_se": result.direct.std_error,
                    "generator_form": result.generator_form.value,
                    "generator_se": result.generator_form.std_error,
                    "gap": result.gap,
                    "agree": agree,
                }
            )
    return rows, True, None


def run_bounds(args) -> tuple[list, bool, None]:
    consts = _constants_from(args)
    rows = []
    for k in _positive_ints("k", args.k):
        family = _family_for(args, k)
        for n in _positive_ints("n", args.n):
            src = _resolve_source(args, k, n)
            stream = RngStream(args.seed).child(17 * k + n)
            report = bd.bound_report(src, n, family, args.M, stream, consts=consts, t=args.t)
            rows.append(dataclasses.asdict(report))
    return rows, True, None


def run_dim_scan(args) -> tuple[list, bool, dict]:
    k_list = _positive_ints("k-list", args.k_list)
    n_list = _positive_ints("n-list", args.n_list)
    stream = RngStream(args.seed)
    report = bd.dim_scan(
        args.source.split(","), k_list, n_list, lambda k: _family_for(args, k), args.M, stream
    )
    rows = [
        {
            "source": c.source,
            "k": c.k,
            "n": c.n,
            "M": args.M,
            "seed": args.seed,
            "delta_hat": c.delta,
            "std_error": c.std_error,
        }
        for c in report.cells
    ]
    fits = {
        "k_exponents": {
            f"{name}|n={n}": dataclasses.asdict(fit)
            for (name, n), fit in report.k_exponents.items()
        },
        "n_exponents": {
            f"{name}|k={k}": dataclasses.asdict(fit)
            for (name, k), fit in report.n_exponents.items()
        },
    }
    return rows, True, fits


# ---------------------------------------------------------------------------
# wiring


# subcommand -> runner; a runner returns (rows, ok, extras), and the keys of
# its rows, in order, are the CSV columns
_SUBCOMMANDS = {
    "check-inequalities": run_check_inequalities,
    "check-semigroup": run_check_semigroup,
    "check-stein": run_check_stein,
    "delta": run_delta,
    "discrepancy": run_discrepancy,
    "bounds": run_bounds,
    "dim-scan": run_dim_scan,
}


def _add_common(p, with_family=True):
    p.add_argument("--seed", type=int, required=True, help="master seed (no wall clock)")
    p.add_argument("--out", default=None, help="output path prefix (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    p.add_argument("--threads", type=int, default=1,
                   help="kept for existing command lines; only 1 (the blocks of an estimate "
                        "run on every usable CPU and sum in block order, whatever the count)")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    if with_family:
        p.add_argument("--family", default=None, help="set-family JSON file")
        p.add_argument("--family-seed", dest="family_seed", type=int, default=0)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each `parse_args` gives a fresh Namespace."""
    ap = argparse.ArgumentParser(prog="steinclt", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, help):
        # no abbreviations: `_apply_config_file` matches explicit flags by full name
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p = add("check-inequalities", help="derivative-integral and weight checks")
    p.add_argument("--k", type=int, default=3)
    _add_common(p, with_family=False)

    p = add("check-semigroup", help="backward equation, law, invariance")
    p.add_argument("--k", type=int, default=2)
    _add_common(p, with_family=False)

    p = add("check-stein", help="Stein identity and solution derivatives")
    p.add_argument("--k", type=int, default=2)
    _add_common(p, with_family=False)

    p = add("delta", help="empirical convex-set discrepancy")
    p.add_argument("--source", required=True, choices=sorted(so.SOURCES))
    p.add_argument("--k", required=True, help="dimension or comma list")
    p.add_argument("--n", required=True, help="summand count or comma list")
    p.add_argument("--M", type=int, default=100_000)
    p.add_argument("--noniid-profile", dest="noniid_profile", default=None,
                   choices=("linear", "flat"),
                   help="scale the source into a non-iid triangular array")
    _add_common(p)

    p = add("discrepancy", help="smoothed discrepancy, direct vs generator form")
    p.add_argument("--source", required=True, choices=sorted(so.SOURCES))
    p.add_argument("--k", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--offset", type=float, default=0.0, help="half-space offset")
    p.add_argument("--M", type=int, default=4096)
    _add_common(p, with_family=False)

    p = add("bounds", help="empirical discrepancy next to every bound")
    p.add_argument("--source", required=True, choices=sorted(so.SOURCES))
    p.add_argument("--k", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--M", type=int, default=100_000)
    p.add_argument("--constant", action="append", help="override, e.g. c1=2.0")
    p.add_argument("--noniid-profile", dest="noniid_profile", default=None,
                   choices=("linear", "flat"),
                   help="scale the source into a non-iid triangular array")
    _add_common(p)

    p = add("dim-scan", help="discrepancy scan with exponent fits")
    p.add_argument("--source", required=True, help="name or comma list")
    p.add_argument("--k-list", dest="k_list", required=True)
    p.add_argument("--n-list", dest="n_list", required=True)
    p.add_argument("--M", type=int, default=100_000)
    _add_common(p)
    return ap


def _config_value(action: argparse.Action, key: str, value):
    """A --config value put through the flag's argparse `type` and checked against `choices`."""
    if action.type in (int, float) and not isinstance(value, numbers.Real) and (
        value is not None or action.default is not None
    ):
        try:
            value = action.type(value)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"config key {key!r} expects {action.type.__name__}, got {value!r}"
            ) from None
    if action.choices is not None and value not in action.choices:
        raise ConfigurationError(
            f"config key {key!r} must be one of {sorted(action.choices)}, got {value!r}"
        )
    return value


def _subcommand_actions(ap: argparse.ArgumentParser, subcommand: str) -> dict:
    """dest -> argparse action for every flag of the subcommand."""
    sub = next(a for a in ap._actions if a.dest == "subcommand")
    return {a.dest: a for a in sub.choices[subcommand]._actions}


# argparse's help and the flags that choose where and how output goes; the
# JSON `config` echoes every other flag, since each of them can change the rows
_NOT_ECHOED = frozenset({"help", "out", "format", "threads", "config"})


def _apply_config_file(args: argparse.Namespace, argv, actions: dict) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config file {args.config} must hold a JSON object")
    explicit = {a.split("=")[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr not in actions or not hasattr(args, attr):
            raise ConfigurationError(f"config key {key!r} is not a flag of this subcommand")
        if attr not in explicit:
            setattr(args, attr, _config_value(actions[attr], key, value))
    return args


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        actions = _subcommand_actions(ap, args.subcommand)
        args = _apply_config_file(args, argv, actions)
        if args.threads != 1:
            raise ConfigurationError(
                f"--threads is kept for existing command lines and must be 1, got "
                f"{args.threads!r}; sampling already uses every usable CPU"
            )
        if args.format == "both" and args.out is None:
            raise ConfigurationError("--format both writes two files and needs --out")
        rows, ok, extras = _SUBCOMMANDS[args.subcommand](args)
        config = {dest: getattr(args, dest) for dest in actions if dest not in _NOT_ECHOED}
        emit(args.subcommand, tuple(rows[0]), rows, config, args.out, args.format, extras=extras)
        return 0 if ok else 1
    except (
        ConfigurationError, DimensionMismatchError, DomainError, HypothesisViolationError, OSError
    ) as exc:
        print(f"steinclt: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
