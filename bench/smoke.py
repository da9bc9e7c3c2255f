"""Cheap smoke check of the benchmark harness (about 15 s).

    python3 bench/smoke.py

Checks that the scenario generator is a function of the seed, that the
tracer records spans and puts every original function back, that one short
untraced and one short traced run of ``riemann_sweep`` print a correct
result with exactly the metrics ``BENCHMARK.json`` names, and that the
benchmark refuses to run in a directory without ``src/``.  Exits nonzero
on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as harness  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def check_generator(spec: dict) -> None:
    with tempfile.TemporaryDirectory(dir=harness.WORK) as tmp:
        texts = []
        for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
            plans = harness.generate(spec, "riemann_sweep", seed, Path(tmp) / sub)
            texts.append([plan["path"].read_text(encoding="utf-8") for plan in plans])
    check(texts[0] == texts[1], "the same seed gave different scenario files")
    check(texts[0] != texts[2], "another seed gave the same scenario files")
    check(all("[tolerances]" not in text for text in texts[0]), "a scenario overrides tolerances")


def check_tracer() -> None:
    import finslergeo
    from finslergeo import profiles, riemann, suites
    from tracer import Tracer

    before = (riemann.build_metric, suites.build_metric, finslergeo.christoffel,
              suites._SUITE_FUNCS["vacuum"], profiles.ProfilePair.jets)
    tracer = Tracer()
    with tracer:
        check(suites.build_metric is riemann.build_metric, "one wrapper per function")
        check(suites._SUITE_FUNCS["vacuum"] is suites.suite_vacuum, "suite registry not wrapped")
        frame = riemann.Frame.standard(4, -1)
        state = riemann.build_metric(frame, profiles.ProfilePair.schwarzschild_isotropic(1.0),
                                     [0.1, 2.0, 0.5, 0.3])
        finslergeo.christoffel(state)
    after = (riemann.build_metric, suites.build_metric, finslergeo.christoffel,
             suites._SUITE_FUNCS["vacuum"], profiles.ProfilePair.jets)
    check(all(a is b for a, b in zip(before, after)), "uninstall left a wrapper behind")
    spans = tracer.summary()["spans"]
    for name in ("riemann.build_metric", "profiles.jets", "riemann.christoffel"):
        check(spans.get(name, {}).get("calls", 0) >= 1, f"no span for {name}")


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "riemann_sweep", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, trace)
        check(proc.returncode == 0, f"--trace {trace} exited {proc.returncode}: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(result["correct"] and result["failed"] == 0, f"--trace {trace}: {proc.stdout}")
        check(set(result["metrics"]) == {m["name"] for m in bench[key]},
              f"--trace {trace} metrics differ from BENCHMARK.json {key}")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=harness.WORK) as tmp:
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = run_bench(Path(tmp), 0)
    check(proc.returncode != 0, "ran without src/finslergeo")
    check(not proc.stdout.strip(), "printed a result without src/finslergeo")


def main() -> int:
    harness.WORK.mkdir(exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    check_generator(spec)
    check_tracer()
    check_runs(bench)
    check_refuses_without_source()
    print("bench smoke check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
