"""Every module-level name of the library is used by the library, a demo or the benchmark.

A def, class or assignment at the top level of `src/steinclt/*.py` that only
the tests reach is dead code kept alive by its own tests.  A reference is a
name read in the code (an `ast.Name` that is not assigned, or an attribute),
an imported name, or a string that spells the identifier: `__all__` lists the
public names, and the benchmark tracer wraps callables by name.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_LIBRARY = sorted((_ROOT / "src" / "steinclt").glob("*.py"))
_USERS = [p for d in ("src", "demos", "perfbench") for p in sorted((_ROOT / d).rglob("*.py"))]


def _defined(tree):
    """The names bound by the module's top-level defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_library_name_is_referenced_outside_the_tests():
    referenced = {name for path in _USERS for name in _referenced(_parse(path))}
    defined = [(path.name, name) for path in _LIBRARY for name in _defined(_parse(path))]
    assert len(defined) > 200  # the walk found the library
    assert [d for d in defined if d[1] not in referenced] == []
