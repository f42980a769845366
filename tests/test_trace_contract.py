"""The benchmark's tracer patches package functions by name; keep them there."""

import importlib
import importlib.util
import pathlib

import pytest


def _load_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TRACED = [f"{layer}.{name}"
          for layer, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("traced", TRACED)
def test_traced_name_is_a_callable_of_its_layer(traced):
    layer, name = traced.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
    assert callable(getattr(module, name, None))
