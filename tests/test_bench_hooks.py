"""The benchmark's tracing hooks must name functions the package still has
and still calls.

`bench/tracing.py` wraps each (module, attribute) in its HOOKS table where
the CLI and the experiments look the name up. A hook whose target was
renamed or removed, or is imported but no longer called there, would leave
its layer silently unmeasured.
"""

import ast
import functools
import importlib
import importlib.util
import os
import pkgutil

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("module_name, attr, layer", load_hooks())
def test_hook_target_is_callable(module_name, attr, layer):
    target = getattr(importlib.import_module(module_name), attr, None)
    assert callable(target), f"{module_name}.{attr} ({layer} layer) is missing"


@functools.lru_cache(maxsize=None)
def called_names(module_name):
    """The bare names `f` of `f(...)` calls and the pairs (alias, attr) of
    `alias.attr(...)` calls in a module's source."""
    path = importlib.util.find_spec(module_name).origin
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bare, dotted = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                bare.add(node.func.id)
            elif isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
                dotted.add((node.func.value.id, node.func.attr))
    return frozenset(bare), frozenset(dotted)


def firm_modules():
    firm = importlib.import_module("firm")
    return ["firm"] + [f"firm.{m.name}" for m in pkgutil.iter_modules(firm.__path__)]


@pytest.mark.parametrize("module_name, attr, layer", load_hooks())
def test_hook_target_is_called_where_hooked(module_name, attr, layer):
    """The module calls `attr(...)` itself, or some firm module calls it as
    `<module alias>.attr(...)`, the form `from . import _emit` gives."""
    if attr in called_names(module_name)[0]:
        return
    alias = module_name.rsplit(".", 1)[1]
    callers = [m for m in firm_modules() if (alias, attr) in called_names(m)[1]]
    assert callers, f"{module_name}.{attr} ({layer} layer) is never called there"
