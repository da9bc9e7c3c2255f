"""The traced benchmark names package functions in BENCHMARK.json; each
per-layer metric must still name a public function, so that a rename fails
here instead of leaving the traced bench unable to compute the metric."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SPAN_STATS = ("calls", "errors", "self_s", "total_s", "p50_us", "p90_us")
# Public methods the tracer wraps on their classes, named <module>.<method>.
TRACED_METHODS = {"profiles.jets": "ProfilePair", "report.to_json": "RunReport"}


def _per_layer_names() -> list[str]:
    return [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]


def test_every_traced_span_names_a_public_function():
    checked = 0
    for name in _per_layer_names():
        parts = name.split(".")
        if len(parts) != 3 or parts[2] not in SPAN_STATS:
            continue
        module_name, func_name, _ = parts
        if module_name == "layer":
            # layer.<module>.self_s sums every span of one module.
            importlib.import_module(f"finslergeo.{func_name}")
            continue
        checked += 1
        span = f"{module_name}.{func_name}"
        module = importlib.import_module(f"finslergeo.{module_name}")
        if span in TRACED_METHODS:
            owner = getattr(module, TRACED_METHODS[span])
            assert inspect.isfunction(vars(owner).get(func_name)), f"{name}: method missing"
            continue
        func = getattr(module, func_name, None)
        assert inspect.isfunction(func), f"{name}: finslergeo.{span} is not a function"
        # The tracer names a span after the function's own __module__ and __name__.
        assert (func.__module__, func.__name__) == (module.__name__, func_name), (
            f"{name}: finslergeo.{span} is traced as {func.__module__}.{func.__name__}"
        )
    assert checked > 0
