"""Chunk memory stays resident: ``cli.main`` keeps freed heap memory in the
process (glibc's mallopt), so a second pass over the same scenario faults
almost no page in again.  With glibc's default thresholds every chunk's
freed temporaries went back to the kernel, and the second pass of the N = 8
scenario below took about 7,400 minor page faults."""

import ctypes
import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from finslergeo import cli

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIO = """
[scenario]
dimension = 8
signature = 1
charge = 0.3
suites = curvature-xcheck, finsler-curvature
[profile]
kind = rational
c_coeffs = 0.8, 0.1
m_coeffs = 1.0, 0.2
"""
TWO_PASSES = """
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1])
from finslergeo.cli import main
faults, codes = [], []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(["run", sys.argv[2]]))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"codes": codes, "faults": faults}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_a_second_pass_faults_no_chunk_memory_in_again(tmp_path):
    path = tmp_path / "n8.ini"
    path.write_text(SCENARIO, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-I", "-c", TWO_PASSES, str(SRC), str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["faults"][1] <= 300, result


def test_keeping_freed_memory_is_a_no_op_without_mallopt(monkeypatch):
    """A C library without mallopt (musl, macOS) leaves the allocator as it is."""
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert cli._keep_freed_memory.__wrapped__() is None
