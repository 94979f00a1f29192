"""Every function the package exports must be one the package itself calls.

A public function that only tests call restates a case that a general path
already computes; such closed forms belong in tests/helpers.py as oracles of
that path. Classes are exempt: they are called by their users.
"""

import ast
import functools
import inspect
import os

import pytest

import firm

PACKAGE = os.path.dirname(firm.__file__)


def exported_functions():
    """The names firm/__init__.py exports (its __all__) that are functions."""
    return sorted(n for n in firm.__all__ if inspect.isfunction(getattr(firm, n)))


@functools.lru_cache(maxsize=None)
def called_names():
    """The names `f` of every `f(...)` and `obj.f(...)` call in src/firm."""
    called = set()
    for entry in sorted(os.listdir(PACKAGE)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, entry), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    called.add(node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    called.add(node.func.attr)
    return frozenset(called)


def test_exports_some_functions():
    assert {"load_tabular", "poim", "firm_binary_values"} <= set(exported_functions())


@pytest.mark.parametrize("name", exported_functions())
def test_exported_function_is_called_in_the_package(name):
    assert name in called_names(), (
        f"firm.{name} is exported but never called in src/firm; a closed form "
        "that only tests use belongs in tests/helpers.py")
