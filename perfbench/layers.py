"""Per-layer tracing of steinclt from outside the library.

`Tracer.install()` replaces each traced public callable with a wrapper at
every steinclt module that holds it by name (for example `bounds` imports
`delta_hat` and `sample_sum` from `sources`, `stein` imports
`semigroup_derivative`), wraps the `contains` method of each convex set
class, `RngStream.generator`, and `scipy.stats.ncx2.cdf` once.  A wrapper
records a span (name, start, end, parent span, cell) and counts of the work
it was handed; spans stay in memory until the run writes them out.  A
layer's self time is its span's duration minus the time its child spans
cover.  While `enabled` is false a wrapper only forwards the call, so the
oracle checks that follow a cell are not traced.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np
from scipy import stats

from steinclt import bounds, cli, convex, reports, rng, semigroup, sources, stein

SET_TYPES = ("HalfSpace", "Ball", "Box", "Ellipsoid", "DilatedSet", "ErodedSet")
CLOSED_FORM_TYPES = ("HalfSpace", "Ball", "Box")
LAWS = ("rademacher", "gaussian", "uniform", "exponential", "noniid")
APPLY_METHODS = ("analytic", "gauss-hermite")


def _names(prefix, variants, quantities):
    return [f"{prefix}.{v}.{q}" for v in variants for q in quantities]


# Every per-layer metric the traced run reports, in BENCHMARK.json order.
PER_LAYER_METRICS = (
    _names("sources.sample_sum", LAWS, ("self_s",))
    + [
        "sources.sample_sum.summands",
        "sources.delta_hat.self_s",
        "sources.stein_discrepancy_hat.self_s",
        "sources.moment_summary.self_s",
    ]
    + _names("convex.contains", SET_TYPES, ("self_s",))
    + [
        "convex.contains.points",
        "convex.Ellipsoid.boundary_distance.self_s",
        "convex.Ellipsoid.boundary_distance.points",
    ]
    + _names("convex.gaussian_measure", ("analytic", "qmc"), ("self_s", "calls"))
    + _names("convex.shifted_measure_batch", CLOSED_FORM_TYPES, ("self_s",))
    + ["convex.default_family.self_s"]
    + _names("semigroup.semigroup_apply", APPLY_METHODS, ("self_s", "points"))
    + _names("semigroup.semigroup_derivative", CLOSED_FORM_TYPES, ("self_s", "calls"))
    + [
        "scipy.ncx2_cdf.calls",
        "scipy.ncx2_cdf.elements",
        "scipy.ncx2_cdf.self_s",
        "scipy.ncx2_cdf.repeat_frac",
    ]
    + _names("stein.laplacian_drift", CLOSED_FORM_TYPES, ("self_s",))
    + ["stein.smoothed_target.self_s"]
    + _names("stein.psi_d3", CLOSED_FORM_TYPES, ("self_s",))
    + [
        "bounds.bound_report.self_s",
        "bounds.gamma_star_hat.self_s",
        "bounds.omega_star_hat.self_s",
        "rng.generator.calls",
        "rng.generator.self_s",
        "cli.run.self_s",
        "reports.emit.self_s",
        "reports.git_revision.self_s",
        "trace.overhead_frac",
    ]
)


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) < 2 else int(shape[0])


def _set_type(C) -> str:
    return type(C).__name__


def _indicator_set_type(h) -> str:
    C = getattr(h, "set", None)
    return "other" if C is None else _set_type(C)


# --- span labels and work counts, one per traced callable -------------------


def _sample_sum(counts, src, n, stream, size=1):
    counts["sources.sample_sum.summands"] += int(size) * int(n)
    law = "noniid" if isinstance(src, sources.NonIIDSource) else src.name
    return f"sources.sample_sum.{law}"


def _gaussian_measure(counts, C, *args, **kwargs):
    analytic = C.is_empty or isinstance(C, (convex.HalfSpace, convex.Ball, convex.Box))
    return "convex.gaussian_measure." + ("analytic" if analytic else "qmc")


def _shifted_measure_batch(counts, C, *args, **kwargs):
    return f"convex.shifted_measure_batch.{_set_type(C)}"


def _semigroup_apply(counts, h, t, x, *args, **kwargs):
    quad = args[0] if args else kwargs.get("quad", semigroup.DEFAULT_QUAD)
    k = np.shape(x)[-1]
    method = quad.inner_method
    if float(t) == 0.0:
        method = "identity"
    elif method in ("auto", "analytic") and semigroup.has_analytic_smoothing(h):
        method = "analytic"
    elif method == "auto":
        method = "gauss-hermite" if k <= semigroup.GH_TENSOR_MAX_DIM else "monte-carlo"
    counts[f"semigroup.semigroup_apply.{method}.points"] += _rows(x)
    return f"semigroup.semigroup_apply.{method}"


def _by_indicator(prefix):
    def label(counts, h, *args, **kwargs):
        return f"{prefix}.{_indicator_set_type(h)}"

    return label


def _by_solution(prefix):
    def label(counts, sol, *args, **kwargs):
        return f"{prefix}.{_indicator_set_type(sol.h)}"

    return label


def _fixed(name):
    def label(counts, *args, **kwargs):
        return name

    return label


def _contains(cls_name):
    def label(counts, self, x):
        counts["convex.contains.points"] += _rows(x)
        return f"convex.contains.{cls_name}"

    return label


def _boundary_distance(counts, self, x):
    counts["convex.Ellipsoid.boundary_distance.points"] += _rows(x)
    return "convex.Ellipsoid.boundary_distance"


# (module, attribute, label) for module-level functions; the wrapper replaces
# the attribute at every steinclt module that holds the same object.
FUNCTIONS = (
    (sources, "sample_sum", _sample_sum),
    (sources, "delta_hat", _fixed("sources.delta_hat")),
    (sources, "stein_discrepancy_hat", _fixed("sources.stein_discrepancy_hat")),
    (sources, "moment_summary", _fixed("sources.moment_summary")),
    (convex, "gaussian_measure", _gaussian_measure),
    (convex, "shifted_measure_batch", _shifted_measure_batch),
    (convex, "default_family", _fixed("convex.default_family")),
    (semigroup, "semigroup_apply", _semigroup_apply),
    (semigroup, "semigroup_derivative", _by_indicator("semigroup.semigroup_derivative")),
    (stein, "laplacian_drift", _by_solution("stein.laplacian_drift")),
    (stein, "smoothed_target", _fixed("stein.smoothed_target")),
    (stein, "psi_d3", _by_solution("stein.psi_d3")),
    (bounds, "bound_report", _fixed("bounds.bound_report")),
    (bounds, "gamma_star_hat", _fixed("bounds.gamma_star_hat")),
    (bounds, "omega_star_hat", _fixed("bounds.omega_star_hat")),
    (cli, "run", _fixed("cli.run")),
    (reports, "emit", _fixed("reports.emit")),
    (reports, "git_revision", _fixed("reports.git_revision")),
)

# (class, method, label) for methods, wrapped on the class that defines them.
METHODS = tuple(
    (getattr(convex, name), "contains", _contains(name)) for name in SET_TYPES
) + (
    (convex.Ellipsoid, "boundary_distance", _boundary_distance),
    (rng.RngStream, "generator", _fixed("rng.generator")),
)


class Tracer:
    """Spans and counts for one traced pass; see the module docstring."""

    def __init__(self):
        self.enabled = False
        self.cell = -1
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent span index, cell)
        self._stack: list = []  # [span index, time covered by child spans]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._ncx2_keys: set = set()
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, label in FUNCTIONS:
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                continue
            wrapper = self._wrap(original, label)
            holders = [
                mod
                for name, mod in list(sys.modules.items())
                if (name == "steinclt" or name.startswith("steinclt."))
                and getattr(mod, attr, None) is original
            ]
            for mod in holders:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)
        for cls, attr, label in METHODS:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, label))
        ncx2 = stats.ncx2
        self._undo.append((ncx2, "cdf", None))
        ncx2.cdf = self._wrap_ncx2_cdf(ncx2.cdf)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn, label):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer._span(label(tracer.counts, *args, **kwargs), fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_ncx2_cdf(self, cdf):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return cdf(*args, **kwargs)
            arrays = [np.asarray(a, dtype=float) for a in args] + [
                np.asarray(kwargs[key], dtype=float) for key in sorted(kwargs)
            ]
            tracer.counts["scipy.ncx2_cdf.elements"] += int(np.broadcast(*arrays).size)
            digest = hashlib.blake2b(digest_size=16)
            for a in arrays:
                digest.update(repr(a.shape).encode())
                digest.update(np.ascontiguousarray(a).tobytes())
            key = digest.digest()
            if key in tracer._ncx2_keys:
                tracer.counts["scipy.ncx2_cdf.repeats"] += 1
            else:
                tracer._ncx2_keys.add(key)
            return tracer._span("scipy.ncx2_cdf", cdf, args, kwargs)

        return wrapper

    # -- spans --------------------------------------------------------------

    def begin_cell(self, index: int) -> None:
        """Start the spans of one cell; CDF repeats are counted within a cell."""
        self.cell = index
        self._ncx2_keys.clear()

    def _span(self, name, fn, args, kwargs):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[frame[0]] = (name_id, start, end, parent, self.cell)

    # -- results ------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        """Every per-layer metric; layers the pass never entered read 0."""
        values = {}
        for metric in PER_LAYER_METRICS:
            layer, _, quantity = metric.rpartition(".")
            if quantity == "self_s":
                values[metric] = self.self_s.get(layer, 0.0)
            elif quantity == "calls":
                values[metric] = self.calls.get(layer, 0)
            else:
                values[metric] = self.counts.get(metric, 0)
        calls = self.calls.get("scipy.ncx2_cdf", 0)
        repeats = self.counts.get("scipy.ncx2_cdf.repeats", 0)
        values["scipy.ncx2_cdf.repeat_frac"] = repeats / calls if calls else 0.0
        values["trace.overhead_frac"] = overhead_frac
        return values

    def write_spans(self, path, metadata: dict) -> None:
        """Write every span, one row per span, with the run's metadata."""
        payload = {
            "metadata": metadata,
            "columns": ["name_id", "start_s", "end_s", "parent", "cell"],
            "names": self.span_names,
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
