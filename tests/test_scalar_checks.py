"""Finiteness of a scalar argument is decided in `errors.py` alone.

`errors.check_real` and `errors.check_count` are the library's checks of a
real scalar and of an integer count.  A module that calls `math.isfinite`
itself writes a check of its own, which is how NaN, inf, bool and string
arguments got past the bound formulas and set operations one site at a time.
Array checks (`np.isfinite`) are not scalar checks and stay where they are.
"""

import ast
from pathlib import Path

_LIBRARY = sorted((Path(__file__).resolve().parents[1] / "src" / "steinclt").glob("*.py"))


def _calls_math_isfinite(tree):
    """True when the module calls `math.isfinite`, by attribute or as an imported name."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names if alias.name == "isfinite"
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "isfinite" and (
            isinstance(func.value, ast.Name) and func.value.id == "math"
        ):
            return True
        if isinstance(func, ast.Name) and func.id in imported:
            return True
    return False


def test_only_errors_calls_math_isfinite():
    assert len(_LIBRARY) > 5  # the glob found the library
    callers = [p.name for p in _LIBRARY if _calls_math_isfinite(ast.parse(p.read_text()))]
    assert callers == ["errors.py"]
