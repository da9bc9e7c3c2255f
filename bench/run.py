"""Seeded benchmark of the ``finslergeo run`` path.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, untraced then traced

Run from a checkout that holds ``src/finslergeo``.  The seed generates the
workload's scenario files (``bench/workloads.json`` describes them); the
program sees only those files.  Each measured operation is a child
process, a fresh interpreter that imports the package and runs every
scenario through ``finslergeo.cli.main(["run", FILE, "--report", PATH])``.
Children run one at a time (a closed loop with one client), with
BLAS/OpenMP threads pinned to 1, until ``--seconds`` have passed.

``--trace 0`` prints every end-to-end figure (medians over the children of
the run) and reports in its JSON line those ``BENCHMARK.json`` names.
Raw seconds drift with the shared machine's speed, so the bounded run
metrics are in ``ref`` units: multiples of a calibration kernel the child
times every 0.1 s while the scenarios run (see ``child.py``).  ``--trace 1`` alternates
untraced children with children that load ``bench/tracer.py`` and reports
the per-layer metrics from the traced ones.

Every child is checked: exit code 0, every suite ``pass``, the expected
check names and ``n_samples``, the scenario echo, and a report body
bit-identical to the first child's at this seed.  A suite execution that
misses any of these, or whose child crashes or times out, is failed.
The last line of standard output is one JSON object with ``correct``,
``attempted`` (suite executions), ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # a run must exit within 180 s, hangs included
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SUITE_NAMES = (
    "frame-identities",
    "christoffel-xcheck",
    "curvature-xcheck",
    "vacuum",
    "schwarzschild-reductions",
    "finsler-identities",
    "finsler-curvature",
)
# Suites that draw their samples by rejection, each try starting with one
# build_metric call of their own, and the function that runs each.
SAMPLED_SUITES = {
    "frame-identities": "suite_frame_identities",
    "christoffel-xcheck": "suite_christoffel_xcheck",
    "curvature-xcheck": "suite_curvature_xcheck",
    "finsler-identities": "suite_finsler_identities",
    "finsler-curvature": "suite_finsler_curvature",
}
# Kept at or below the silent caps in suite_curvature_xcheck and
# suite_finsler_curvature, so removing those caps leaves the work unchanged.
MAX_POINTS = 25
MAX_FIBERS = 100
# Every end-to-end figure the harness prints; BENCHMARK.json names the
# drift-cancelled ones that carry a bound.
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "run_ref": "ref",
    "wall_ref": "ref",
    "samples_per_ref": "1/ref",
    "ref_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("profiles", "riemann", "tensors", "vacuum", "finsler", "suites", "scenario", "report", "cli")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------


def _ini_list(values) -> str:
    return ", ".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


def scenario_text(entry: dict, profile: dict, radii: list, seed: int) -> str:
    lines = [
        "[scenario]",
        f"dimension = {entry['dimension']}",
        f"signature = {entry['signature']}",
        f"charge = {entry['charge']!r}",
        f"seed = {seed}",
        f"suites = {', '.join(entry['suites'])}",
        "",
        "[profile]",
    ]
    for key, value in profile.items():
        lines.append(f"{key} = {_ini_list(value) if isinstance(value, list) else value}")
    lines += [
        "",
        "[samples]",
        f"radii = {_ini_list(radii)}",
        f"points = {entry['points']}",
        f"fibers = {entry['fibers']}",
    ]
    return "\n".join(lines) + "\n"


def generate(spec: dict, workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's scenario files for ``seed``; return one plan per
    scenario with its path, sampling seed and expected suites."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    plans = []
    for index, entry in enumerate(spec["workloads"][workload]["scenarios"]):
        if entry["points"] > MAX_POINTS or entry["fibers"] > MAX_FIBERS:
            raise SetupError(f"{workload} scenario {index} exceeds points <= {MAX_POINTS}, "
                             f"fibers <= {MAX_FIBERS}")
        scenario_seed = rng.randrange(2**31)
        path = out_dir / f"scenario_{index}.ini"
        path.write_text(
            scenario_text(entry, spec["profiles"][entry["profile"]], spec["radii"], scenario_seed),
            encoding="utf-8",
        )
        plans.append(
            {
                "path": path,
                "seed": scenario_seed,
                "entry": entry,
                "expected": expected_checks(spec, entry),
            }
        )
    return plans


def expected_checks(spec: dict, entry: dict) -> dict[str, dict[str, int]]:
    counts = {
        "points": entry["points"],
        "fibers": entry["fibers"],
        "radii": len(spec["radii"]),
        "2*radii": 2 * len(spec["radii"]),
    }
    out = {}
    for suite in entry["suites"]:
        key = suite
        if suite == "finsler-curvature" and entry["charge"] == 0.0:
            key = "finsler-curvature@charge0"
        out[suite] = {name: counts[base] for name, base in spec["checks"][key].items()}
    return out


def sample_base(plans: list[dict]) -> int:
    """Sum over executed suites of the largest n_samples among its checks."""
    return sum(max(checks.values()) for plan in plans for checks in plan["expected"].values())


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(work: Path, tag: str, plans: list[dict], trace: bool, deadline: float) -> dict:
    """Spawn one child and wait for it; return its measurements and outputs."""
    result_path = work / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), str(ROOT), str(result_path)]
    if trace:
        cmd += ["--trace", str(work / "spans.tsv")]
    reports = []
    for index, plan in enumerate(plans):
        report = work / f"{tag}.report_{index}.json"
        report.unlink(missing_ok=True)
        reports.append(report)
        cmd += [str(plan["path"]), str(report)]
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.perf_counter()))
    out = {"tag": tag, "trace": trace, "reports": reports, "timed_out": False}
    with open(work / f"{tag}.stdout", "wb") as stdout, open(work / f"{tag}.stderr", "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
        try:
            out["returncode"] = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            out["timed_out"] = True
        finally:
            # Also on an interrupt of the harness: leave no child running.
            if proc.poll() is None:
                proc.kill()
            out["returncode"] = proc.wait()
        out["wall_s"] = time.perf_counter() - started
    if result_path.exists() and not out["timed_out"]:
        out["result"] = json.loads(result_path.read_text(encoding="utf-8"))
        # What a CLI user waits excludes the child's calibration kernel.
        out["wall_s"] -= out["result"].get("kernel_total_s", 0.0)
    return out


def body_hash(report: dict) -> str:
    body = {key: value for key, value in report.items() if key != "timings"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def check_child(child: dict, plans: list[dict], bodies: dict[int, str]) -> list[str]:
    """Failures of each suite execution of one child, as messages; fills
    ``child['suite_ok']`` with one flag per (scenario, suite)."""
    problems: list[str] = []
    flags = [[False] * len(plan["entry"]["suites"]) for plan in plans]
    child["suite_ok"] = flags
    if child["timed_out"]:
        return [f"{child['tag']}: timed out after {child['wall_s']:.1f} s"]
    if child["returncode"] != 0 or "result" not in child:
        return [f"{child['tag']}: exit code {child['returncode']}"]
    child["timings"] = {}
    for index, (plan, report_path) in enumerate(zip(plans, child["reports"])):
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{child['tag']} scenario {index}: unreadable report ({exc})")
            continue
        entry = plan["entry"]
        echo = report.get("scenario", {})
        wanted = {
            "dimension": entry["dimension"],
            "signature": entry["signature"],
            "charge": entry["charge"],
            "seed": plan["seed"],
            "suites": entry["suites"],
        }
        if any(echo.get(key) != value for key, value in wanted.items()):
            problems.append(f"{child['tag']} scenario {index}: echo differs from the file")
            continue
        digest = body_hash(report)
        if bodies.setdefault(index, digest) != digest:
            problems.append(f"{child['tag']} scenario {index}: report body differs across runs")
            continue
        suites = report.get("suites", [])
        names = [suite.get("name") for suite in suites]
        for pos, name in enumerate(entry["suites"]):
            if name not in names:
                problems.append(f"{child['tag']} scenario {index}: suite {name} missing")
                continue
            suite = suites[names.index(name)]
            checks = {c.get("name"): c.get("n_samples") for c in suite.get("checks", [])}
            if suite.get("status") != "pass":
                problems.append(
                    f"{child['tag']} scenario {index}: {name} is {suite.get('status')} "
                    f"({suite.get('reason')})"
                )
            elif checks != plan["expected"][name]:
                problems.append(f"{child['tag']} scenario {index}: {name} checks {checks}")
            else:
                flags[index][pos] = True
        for name, seconds in report.get("timings", {}).items():
            child["timings"][name] = child["timings"].get(name, 0.0) + seconds
    return problems


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + seconds
    hard_deadline = started + RUN_LIMIT_S
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    plans = generate(spec, workload, seed, work / "scenarios")

    problems: list[str] = []
    # Untimed warm-up: compiles bytecode and fills the file cache, which a
    # user pays once, not on every run.
    warm = run_child(work, "warmup", [], False, hard_deadline)
    if warm["returncode"] != 0 or "result" not in warm:
        stderr = (work / "warmup.stderr").read_text(encoding="utf-8", errors="replace")
        raise SetupError(f"the child cannot import finslergeo:\n{stderr.strip()}")

    probes: list[dict] = []
    bodies: dict[int, str] = {}
    children: list[dict] = []
    cycles: list[float] = []
    while True:
        cycle_started = time.perf_counter()
        if not trace:
            # Set-up probes are spread over the run, one before each child,
            # so their median sees the same machine as the children's.
            probe = run_child(work, f"probe{len(children)}", [], False, hard_deadline)
            if probe["returncode"] != 0 or "result" not in probe:
                problems.append(f"probe{len(children)}: exit code {probe['returncode']}")
            else:
                probes.append(probe)
        traced = trace and len(children) % 2 == 1
        child = run_child(work, f"child{len(children)}", plans, traced, hard_deadline)
        problems += check_child(child, plans, bodies)
        children.append(child)
        cycles.append(time.perf_counter() - cycle_started)
        if child["timed_out"] or time.perf_counter() > hard_deadline:
            break
        enough = len(children) >= (4 if trace else 1)
        if enough and time.perf_counter() + 1.1 * max(cycles[-2:]) > deadline:
            break

    attempted = sum(len(flags) for child in children for flags in child["suite_ok"])
    failed = sum(flags.count(False) for child in children for flags in child["suite_ok"])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "plans": plans,
        "probes": probes,
        "children": children,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "elapsed_s": time.perf_counter() - started,
    }


def _ok(child: dict) -> bool:
    return "result" in child and all(all(flags) for flags in child["suite_ok"])


def end_to_end_samples(run: dict) -> dict[str, list[float]]:
    """One value per passing untraced child (and per set-up probe)."""
    plain = [c for c in run["children"] if not c["trace"] and _ok(c)]
    return {
        "setup_s": [p["result"]["setup_s"] for p in run["probes"]]
        + [c["result"]["setup_s"] for c in plain],
        "run_s": [c["result"]["run_s"] for c in plain],
        "wall_s": [c["wall_s"] for c in plain],
        "run_ref": [c["result"]["run_ref"] for c in plain],
        # The part of the wall time outside the scenarios (interpreter start,
        # import, exit) in units of the child's median kernel time.
        "wall_ref": [
            c["result"]["run_ref"] + (c["wall_s"] - c["result"]["run_s"]) / c["result"]["ref_s"]
            for c in plain
        ],
        "ref_s": [c["result"]["ref_s"] for c in plain],
        "peak_rss_mb": [c["result"]["peak_rss_mb"] for c in plain],
    }


def end_to_end_metrics(run: dict) -> dict[str, float]:
    samples = end_to_end_samples(run)
    if not samples["run_s"]:
        return {}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    base = sample_base(run["plans"])
    metrics["samples_per_s"] = base / metrics["run_s"]
    metrics["samples_per_ref"] = base / metrics["run_ref"]
    return {name: metrics[name] for name in E2E_UNITS}


def per_layer_metrics(run: dict) -> tuple[dict[str, float], list[str]]:
    """Medians over the traced children; call and error counts must repeat
    exactly across them."""
    traced = [c for c in run["children"] if c["trace"] and _ok(c)]
    plain = [c for c in run["children"] if not c["trace"] and _ok(c)]
    if not traced or not plain:
        return {}, ["no passing traced and untraced children to compare"]
    per_child = [_layer_values(c["result"]["trace"], run["plans"]) for c in traced]
    problems = []
    metrics = {}
    for name in per_child[0]:
        values = [values[name] for values in per_child]
        exact = name.endswith(
            (".calls", ".errors", "stencil_misses", "sample_attempts", "samples_accepted", ".spans")
        )
        if exact and len(set(values)) != 1:
            problems.append(f"{name} differs across traced runs at one seed: {values}")
        metrics[name] = values[0] if exact else statistics.median(values)
    for suite in SUITE_NAMES:
        metrics[f"suites.{suite}.busy_s"] = statistics.median(
            c["timings"].get(suite, 0.0) for c in plain
        )
    metrics["trace.overhead_ratio"] = statistics.median(
        c["result"]["run_ref"] for c in traced
    ) / statistics.median(c["result"]["run_ref"] for c in plain)
    return metrics, problems


def _layer_values(trace: dict, plans: list[dict]) -> dict[str, float]:
    """Every field of every traced function as ``<module>.<function>.<field>``
    (zero for a function never called), plus the derived counters."""
    spans = trace["spans"]
    empty = {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0, "p50_us": 0.0, "p90_us": 0.0}
    out: dict[str, float] = {}
    for name in trace["names"]:
        for field, value in spans.get(name, empty).items():
            out[f"{name}.{field}"] = value
    samples = sample_base(plans)
    out["riemann.christoffel.calls_per_sample"] = out["riemann.christoffel.calls"] / samples
    out["riemann.build_metric.calls_per_sample"] = out["riemann.build_metric.calls"] / samples
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in spans.items() if name.split(".", 1)[0] == layer
        )
    accepted = sum(
        max(checks.values())
        for plan in plans
        for suite, checks in plan["expected"].items()
        if suite in SAMPLED_SUITES
    )
    attempts = sum(
        trace["suite_direct_build_metric"].get(f"suites.{func}", 0)
        for func in SAMPLED_SUITES.values()
    )
    out["suites.sample_attempts"] = attempts
    out["suites.samples_accepted"] = accepted
    out["suites.sample_accept_ratio"] = accepted / attempts if attempts else 0.0
    out["finsler.stencil_misses"] = trace["stencil_misses"]
    out["trace.spans"] = trace["n_spans"]
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def provenance(run: dict) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "finslergeo").rglob("*.py"))
    )
    first = next((c["result"] for c in run["children"] if "result" in c), {})
    return {
        "git_sha": sha,
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "threads_pinned": {var: "1" for var in THREAD_VARS},
    }


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g}"


def print_run(run: dict, metrics: dict[str, float], units: dict[str, str],
              bounded: set[str]) -> None:
    plain = [c for c in run["children"] if not c["trace"] and _ok(c)]
    traced = [c for c in run["children"] if c["trace"] and _ok(c)]
    print(
        f"workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}  "
        f"children {len(plain)} untraced + {len(traced)} traced + {len(run['probes'])} set-up "
        f"probes  elapsed {run['elapsed_s']:.1f} s"
    )
    print(f"  sample base: {sample_base(run['plans'])} samples per child (sum over suites of "
          "the largest n_samples among each suite's checks)")
    spreads = end_to_end_samples(run)
    for name, value in metrics.items():
        samples = spreads.get(name, [])
        extra = f"  (median of {len(samples)}; {_quartiles(samples)})" if samples else ""
        tag = "" if name in bounded else "  [not in BENCHMARK.json]"
        print(f"  {name:<46} {value:>14.6g} {units.get(name, ''):<6}{extra}{tag}")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else float("nan")
    print(f"  {'failed_ratio':<46} {ratio:>14.6g} ratio  "
          f"({run['failed']} failed of {run['attempted']} suite executions)")
    if run["trace"]:
        print("  No layer queues or waits on another: the run is single-threaded, "
              "so there is no wait metric.")
    for problem in run["problems"]:
        print(f"  FAILED: {problem}")


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise SetupError(f"{path.name} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def run_workload(bench: dict, spec: dict, workload: str, seed: int, seconds: float, trace: bool):
    run = measure(spec, workload, seed, seconds, trace)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        computed, problems = per_layer_metrics(run)
        run["problems"] += problems
    else:
        computed = end_to_end_metrics(run)
    metrics = {m["name"]: computed[m["name"]] for m in wanted if m["name"] in computed}
    if len(metrics) != len(wanted):
        run["problems"].append("some metrics could not be computed")
    units = {**E2E_UNITS, **{m["name"]: m["unit"] for m in wanted}}
    print_run(run, metrics if trace else computed, units, set(metrics))
    print("provenance " + json.dumps(provenance(run), sort_keys=True))
    correct = not run["problems"] and run["failed"] == 0 and len(metrics) == len(wanted)
    return {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default with "
                        "'all': both)")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "finslergeo" / "__init__.py").is_file():
            raise SetupError(f"no src/finslergeo package under {ROOT}")
        bench = load_benchmark()
        spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
        names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
        for name in names:
            if name not in spec["workloads"]:
                raise SetupError(f"unknown workload {name!r}; known: {list(spec['workloads'])}")
        modes = [bool(args.trace)] if args.trace is not None else [False, True]
        results = [
            run_workload(bench, spec, name, args.seed, args.seconds, trace)
            for name in names
            for trace in modes
        ]
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
