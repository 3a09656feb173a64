"""Every per-layer metric that BENCHMARK.json names exists in the code.

The traced benchmark reads ``<layer>.<function>.<stat>`` from the public
functions of ``gausslift.<layer>`` and ``fail.<Class>.count`` from the classes
of ``gausslift.errors``; a renamed or privatized function would leave its
metric silently empty.  This test only reads the file.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from gausslift import errors

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PER_LAYER = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]

FAIL_METRICS = [
    name for name in PER_LAYER if name.startswith("fail.") and name != "fail.other.count"
]
FUNCTION_METRICS = [
    name for name in PER_LAYER if name.count(".") == 2 and not name.startswith("fail.")
]


def test_metric_names_are_classified():
    assert len(FUNCTION_METRICS) >= 20
    assert len(FAIL_METRICS) >= 10


@pytest.mark.parametrize("metric", FUNCTION_METRICS)
def test_function_metric_names_a_public_function(metric):
    layer, function, _ = metric.split(".")
    module = importlib.import_module(f"gausslift.{layer}")
    obj = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj), f"{metric}: no function {function} in gausslift.{layer}"
    assert obj.__module__ == module.__name__, f"{metric}: {function} is defined elsewhere"


@pytest.mark.parametrize("metric", FAIL_METRICS)
def test_fail_metric_names_an_error_class(metric):
    _, cls, stat = metric.split(".")
    assert stat == "count"
    obj = getattr(errors, cls, None)
    assert inspect.isclass(obj) and issubclass(obj, Exception), f"{metric}: no class {cls}"
