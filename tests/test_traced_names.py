"""Every library name the benchmark tracer wraps still resolves.

`perfbench/layers.py` wraps module functions by attribute name and methods
found in their class's own `__dict__`, and skips any it cannot find, so a
rename or a move to a base class in the library would read 0 on that
callable's per-layer metrics instead of failing.  Its label functions read
further library names, and a rename there would break a traced run.  The
tracer module is loaded from its file, as it is, without installing it.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from steinclt import Ball, RngStream, SmoothFunction, rademacher_source

_LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("traced_layers", _LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_layers = _load_layers()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in _layers.FUNCTIONS],
    ids=[f"{module.__name__}.{attr}" for module, attr, _ in _layers.FUNCTIONS],
)
def test_traced_function_resolves_on_its_module(module, attr):
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize(
    "cls, attr",
    [(cls, attr) for cls, attr, _ in _layers.METHODS],
    ids=[f"{cls.__name__}.{attr}" for cls, attr, _ in _layers.METHODS],
)
def test_traced_method_is_defined_on_its_own_class(cls, attr):
    assert callable(cls.__dict__.get(attr))


def test_label_functions_resolve_the_library_names_they_read():
    # `_semigroup_apply` reads QuadratureSpec.inner_method, semigroup.DEFAULT_QUAD,
    # has_analytic_smoothing and GH_TENSOR_MAX_DIM on a smooth function; `_sample_sum`
    # reads sources.NonIIDSource and the law's name; `_gaussian_measure` the set classes
    counts = defaultdict(int)
    smooth = SmoothFunction(lambda X: np.ones(len(X)))
    label = _layers._semigroup_apply(counts, smooth, 0.5, np.zeros((3, 2)))
    assert label == "semigroup.semigroup_apply.gauss-hermite"
    assert counts["semigroup.semigroup_apply.gauss-hermite.points"] == 3
    label = _layers._sample_sum(counts, rademacher_source(2), 4, RngStream(0), size=8)
    assert label == "sources.sample_sum.rademacher"
    assert counts["sources.sample_sum.summands"] == 32
    label = _layers._gaussian_measure(counts, Ball(np.zeros(2), 1.0))
    assert label == "convex.gaussian_measure.analytic"
