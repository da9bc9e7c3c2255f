"""Outside-in span tracer for finslergeo.

The tracer wraps the package's public functions from outside; nothing in
``src/`` knows about it.  Modules import each other by name (``from
.riemann import christoffel``), so one wrapper per function is bound into
every ``finslergeo`` module namespace that holds the function, and into
module-level dicts that hold it (the suite registry in ``suites``).
``ProfilePair.jets`` and ``RunReport.to_json`` are wrapped on their
classes.  ``uninstall`` puts every original back.

Each call records one span ``[name, start_ns, end_ns, parent, run, error,
outermost]`` in memory: ``parent`` is the index of the enclosing span (-1
at the top), ``run`` the scenario index set by the caller, ``outermost``
is 1 when no enclosing span has the same name.  Spans are written out
only at the end, by ``write_spans``.

Everything runs on one thread, so no layer queues or waits on another;
a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types

PACKAGE = "finslergeo"
# Spans under which an admissibility error means an FD stencil left the cone.
STENCIL_SPANS = ("finsler.hh_curvature", "finsler.spray_derivatives")
# Extra public methods wrapped on their classes: (module, class, method).
METHODS = (("profiles", "ProfilePair", "jets"), ("report", "RunReport", "to_json"))

NAME, START, END, PARENT, RUN, ERROR, OUTER = range(7)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.run_id = 0
        self.stencil_misses = 0
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple[object, object, object, bool]] = []
        self._stencil_ids: set[int] = set()
        self._admissibility_error: type = ()
        self._last_error: BaseException | None = None

    # -- installation ------------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self._active.append(0)
        if name in STENCIL_SPANS:
            self._stencil_ids.add(len(self.names) - 1)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1, tracer.run_id, 0, active[nid] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[nid] += 1
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = 1
                tracer._on_error(exc)
                raise
            finally:
                rec[END] = clock()
                active[nid] -= 1
                stack.pop()

        return wrapper

    def _on_error(self, exc: BaseException) -> None:
        # One exception passes through every enclosing span; count it once.
        if exc is self._last_error:
            return
        self._last_error = exc
        if isinstance(exc, self._admissibility_error) and any(
            self.spans[i][NAME] in self._stencil_ids for i in self._stack
        ):
            self.stencil_misses += 1

    def _patch(self, owner, key, value, is_dict: bool) -> None:
        original = owner[key] if is_dict else getattr(owner, key)
        self._patches.append((owner, key, original, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        if not modules:
            raise RuntimeError(f"{PACKAGE} is not imported")
        finsler = sys.modules.get(PACKAGE + ".finsler")
        self._admissibility_error = getattr(finsler, "AdmissibilityError", ())

        wrappers: dict[int, object] = {}
        for mod in modules:
            for value in vars(mod).values():
                if (
                    isinstance(value, types.FunctionType)
                    and not value.__name__.startswith("_")
                    and (value.__module__ or "").startswith(PACKAGE + ".")
                    and id(value) not in wrappers
                ):
                    wrappers[id(value)] = self._wrap(
                        value, f"{_short(value.__module__)}.{value.__name__}"
                    )
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)], is_dict=False)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, wrappers[id(item)], is_dict=True)
        for module, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
            self._patch(cls, method, self._wrap(vars(cls)[method], f"{module}.{method}"), False)

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, errors, self and total time, and call-duration
        percentiles, plus the counters the benchmark reports."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        per: dict[str, dict] = {}
        durations: dict[str, list[int]] = {}
        suite_ids = {i for i, n in enumerate(self.names) if n.startswith("suites.suite_")}
        direct_build: dict[str, int] = {}
        for i, rec in enumerate(spans):
            name = self.names[rec[NAME]]
            dur = rec[END] - rec[START]
            entry = per.setdefault(name, {"calls": 0, "errors": 0, "self_ns": 0, "total_ns": 0})
            entry["calls"] += 1
            entry["errors"] += rec[ERROR]
            entry["self_ns"] += dur - child_ns[i]
            if rec[OUTER]:
                entry["total_ns"] += dur
            durations.setdefault(name, []).append(dur)
            if name == "riemann.build_metric" and rec[PARENT] >= 0:
                parent_id = spans[rec[PARENT]][NAME]
                if parent_id in suite_ids:
                    suite = self.names[parent_id]
                    direct_build[suite] = direct_build.get(suite, 0) + 1
        out = {}
        for name, entry in per.items():
            cuts = _percentiles(durations[name])
            out[name] = {
                "calls": entry["calls"],
                "errors": entry["errors"],
                "self_s": entry["self_ns"] * 1e-9,
                "total_s": entry["total_ns"] * 1e-9,
                "p50_us": cuts[0] * 1e-3,
                "p90_us": cuts[1] * 1e-3,
            }
        return {
            "names": sorted(set(self.names)),
            "spans": out,
            "n_spans": len(spans),
            "stencil_misses": self.stencil_misses,
            # build_metric calls made by a suite function itself, by suite:
            # each rejection-sampling try starts with one.
            "suite_direct_build_metric": direct_build,
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: run, name, start_ns, end_ns,
        parent index, error flag."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tname\tstart_ns\tend_ns\tparent\terror\n")
            for rec in self.spans:
                fh.write(
                    f"{rec[RUN]}\t{self.names[rec[NAME]]}\t{rec[START]}\t{rec[END]}"
                    f"\t{rec[PARENT]}\t{rec[ERROR]}\n"
                )


def _percentiles(values: list[int]) -> tuple[float, float]:
    if len(values) == 1:
        return float(values[0]), float(values[0])
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), cuts[8]
