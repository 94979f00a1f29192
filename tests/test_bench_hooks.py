"""The benchmark's tracing hooks must name functions the package still has.

`bench/tracing.py` wraps each (module, attribute) in its HOOKS table where
the CLI and the experiments look the name up. A hook whose target was
renamed or removed would leave its layer silently unmeasured.
"""

import importlib
import importlib.util
import os

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
