"""The benchmark tracer wraps varleb functions by name; every name it
wraps must still resolve, or a traced benchmark run fails at install."""

import importlib
import importlib.util
import pathlib

import pytest

from varleb.exponent import ExponentField

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, name) for module, name, _, _ in layers.TRACED]


@pytest.mark.parametrize("module, name", _traced())
def test_every_traced_name_resolves_in_varleb(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_the_traced_exponent_method_resolves():
    assert callable(getattr(ExponentField, "values_on", None))
