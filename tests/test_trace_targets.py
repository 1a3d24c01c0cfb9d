"""Every function and method the benchmark's tracer wraps still exists.

`perfbench/tracing.py` looks its targets up by name when it installs
its spans, so deleting or renaming one of them breaks traced runs.  This
guard turns that into a tier-1 failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("span, module, attr", tracing.FUNCTIONS)
def test_function_target_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(f"multidegree.{module}"), attr))


@pytest.mark.parametrize("span, module, cls_name, attrs", tracing.METHODS)
def test_method_target_resolves(span, module, cls_name, attrs):
    cls = getattr(importlib.import_module(f"multidegree.{module}"), cls_name)
    for attr in attrs:
        assert callable(getattr(cls, attr))
