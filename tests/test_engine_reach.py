"""The engine computes only what a run reads: the two all-suite runs of
test_readme (Schwarzschild, signature -1, charge 0.3 and 0) call every
module-level function of riemann, finsler, tensors and vacuum, and every
method, property and cached property of their classes, and they read each
cached property of a state at least twice on one state.  Exception classes
are exempt.  An oracle that only the tests call lives in tests/conftest.py."""

import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

from finslergeo import finsler, riemann, tensors, vacuum

MODULES = (riemann, finsler, tensors, vacuum)
TESTS = Path(__file__).resolve().parent


def _written_functions(module) -> dict[str, object]:
    """Name -> code object of each function written in ``module``'s source:
    its module-level functions (through any cache wrapper) and the
    methods, properties and cached properties of its classes, but not the
    methods a dataclass generates."""
    found = {}
    for name, obj in vars(module).items():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            if issubclass(obj, BaseException):
                continue
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                elif isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    found[f"{name}.{attr}"] = member
        elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            func = inspect.unwrap(obj)
            if inspect.isfunction(func):
                found[name] = func
    return {
        name: func.__code__
        for name, func in found.items()
        if func.__code__.co_filename == module.__file__
    }


def unreached() -> list[str]:
    """The written functions that the two all-suite runs never call, as
    ``module.name``, under a profiler that records every Python call."""
    from test_readme import _every_check_name

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _every_check_name()
    finally:
        sys.setprofile(None)
    return sorted(
        f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        for module in MODULES
        for name, code in _written_functions(module).items()
        if code not in called
    )


def test_every_engine_function_is_reached_by_a_run():
    """In a fresh interpreter, so that the shared standard frame that
    earlier tests cached cannot hide Frame's construction."""
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import json, test_engine_reach as t; print(json.dumps(t.unreached()))"],
        cwd=TESTS,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    names = json.loads(out.stdout)
    assert not names, f"never called by a run: {', '.join(names)}"


def test_the_guard_sees_every_kind_of_member():
    """The enumeration covers what it claims: a cached function, a static
    method, a property, a cached property and a plain method, and no
    exception class or dataclass-generated method."""
    names = set(_written_functions(riemann)) | set(_written_functions(finsler))
    assert {
        "_standard_frame",
        "Frame.standard",
        "Frame.identities",
        "Frame.__post_init__",
        "Frame.radius",
        "MetricState.a_low",
        "FinsleroidState.r_mix",
        "kinematics",
    } <= names
    assert not any(name.startswith(("FrameError", "AdmissibilityError")) for name in names)
    assert "FinsleroidState.__init__" not in names


def cache_reads(monkeypatch) -> dict[str, int]:
    """``Class.member`` -> the most reads of that cached property of
    MetricState or FinsleroidState on one instance during the two all-suite
    runs.  Each is wrapped in a property, which, unlike the cached property,
    sees the reads that the instance's cache serves."""
    from test_readme import _every_check_name

    reads, alive = {}, []  # the instances stay alive, so each id stays its own
    for cls in (riemann.MetricState, finsler.FinsleroidState):
        for attr, member in list(vars(cls).items()):
            if isinstance(member, cached_property):
                counts = reads[f"{cls.__name__}.{attr}"] = Counter()

                def counted(instance, _member=member, _counts=counts):
                    alive.append(instance)
                    _counts[id(instance)] += 1
                    return _member.__get__(instance, type(instance))

                monkeypatch.setattr(cls, attr, property(counted))
    _every_check_name()
    return {name: max(counts.values(), default=0) for name, counts in reads.items()}


def test_every_cached_member_is_read_twice_on_one_state(monkeypatch):
    """A state caches only what a run reads again: a member computed on
    every read is a function, not a cache."""
    reads = cache_reads(monkeypatch)
    assert reads, "no cached property found"
    once = sorted(name for name, count in reads.items() if count < 2)
    assert not once, f"never read twice on one state: {', '.join(once)}"
