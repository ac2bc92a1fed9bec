"""Every library name the benchmark tracer wraps still resolves.

`perfbench/layers.py` wraps module functions by attribute name and methods
found in their class's own `__dict__`, and skips any it cannot find, so a
rename or a move to a base class in the library would read 0 on that
callable's per-layer metrics instead of failing.  The tracer module is loaded
from its file, as it is, without installing it.
"""

import importlib.util
from pathlib import Path

import pytest

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
