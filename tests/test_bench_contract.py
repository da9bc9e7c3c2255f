"""The benchmark's contract with the package, checked here so that a
change that breaks it fails the tests instead of every bench operation:

- the traced benchmark names package functions in BENCHMARK.json; each
  per-layer metric must still name a public function;
- bench/workloads.json lists the check names and sample counts each suite
  must report; every scenario shape there must still report exactly them.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from finslergeo import run
from finslergeo.scenario import scenario_from_sections

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = json.loads((ROOT / "bench" / "workloads.json").read_text())
# Tiny counts per sample kind; a check's count in the table is one of these.
COUNTS = {"points": 2, "fibers": 2, "radii": 2, "2*radii": 4}
# The N = 8 shapes run 20 fibers: two chunks (16 + 4) of a Finsler suite at
# either charge, so the contract also covers joining the chunks.
COUNTS_N8 = COUNTS | {"fibers": 20}
SHAPES = [
    (f"{workload}-{index}", entry)
    for workload, spec in WORKLOADS["workloads"].items()
    for index, entry in enumerate(spec["scenarios"])
]
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


@pytest.mark.parametrize("entry", [entry for _, entry in SHAPES], ids=[i for i, _ in SHAPES])
def test_every_workload_suite_reports_the_checks_the_bench_expects(entry):
    """Each suite of each workload scenario, run with tiny counts, passes
    and reports the check names and n_samples that bench/workloads.json
    lists for it (a charge-0 finsler-curvature run has its own table)."""
    counts = COUNTS_N8 if entry["dimension"] == 8 else COUNTS
    scenario = scenario_from_sections(
        {
            "scenario": {
                "dimension": entry["dimension"],
                "signature": entry["signature"],
                "charge": entry["charge"],
                "suites": entry["suites"],
            },
            "profile": WORKLOADS["profiles"][entry["profile"]],
            "samples": {
                "radii": WORKLOADS["radii"][: counts["radii"]],
                "points": counts["points"],
                "fibers": counts["fibers"],
            },
        }
    )
    report = run(scenario)
    assert [suite.name for suite in report.suites] == entry["suites"]
    for suite in report.suites:
        key = suite.name
        if key == "finsler-curvature" and entry["charge"] == 0.0:
            key += "@charge0"
        expected = {name: counts[base] for name, base in WORKLOADS["checks"][key].items()}
        assert suite.status == "pass", (suite.name, suite.reason)
        assert {check.name: check.n_samples for check in suite.checks} == expected
