"""One benchmark child: a fresh interpreter that imports finslergeo and runs
a workload's scenarios through the real CLI entry point.

    python3 -I bench/child.py ROOT RESULT.json [--trace SPANS.tsv]
                              [SCENARIO REPORT]...

With no scenarios it only times the import (a set-up probe).  It writes
its measurements to RESULT.json and exits with the first nonzero CLI exit
code, or 0.  The tracer is imported only with ``--trace``.

The speed of a shared machine drifts by tens of percent within seconds.
So while the scenarios run, a ``Speedometer`` times a fixed calibration
kernel every ``PERIOD_S`` seconds from a timer signal, and the child reports
the program's time in units of that kernel, interval by interval
(``run_ref``), which cancels most of the drift.  The time spent in the
kernel is taken out of ``run_s``.
"""

import time

_started = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

PERIOD_S = 0.1
KERNEL_SIZE = 500


class Speedometer:
    """Times the calibration kernel on every SIGALRM and adds the program
    time since the previous sample, divided by this kernel time, to
    ``ref_units``.

    The kernel is what the program spends its time on: einsum, outer
    products and float conversions on many distinct 4x4 arrays inside a
    Python loop.  Of the kernels tried, it tracked the program's own
    slow-downs most closely."""

    def __init__(self, numpy):
        rng = numpy.random.default_rng(0)
        self.numpy = numpy
        self.matrices = list(rng.normal(size=(KERNEL_SIZE, 4, 4)))
        self.vectors = list(rng.normal(size=(KERNEL_SIZE + 1, 4)))
        self.samples: list[float] = []
        self.ref_units = 0.0
        self.kernel_total_s = 0.0
        self._mark = 0.0
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a Python signal handler can be re-entered
            return
        self._busy = True
        entered = time.perf_counter()
        np, vectors, acc = self.numpy, self.vectors, 0.0
        for i, matrix in enumerate(self.matrices):
            acc += float(np.einsum("ij,j->i", matrix, vectors[i])[1])
            acc += float(np.outer(vectors[i], vectors[i + 1])[0, 1])
        left = time.perf_counter()
        sample = left - entered
        self.samples.append(sample)
        self.ref_units += (entered - self._mark) / sample
        self.kernel_total_s += left - entered
        self._mark = left
        self._busy = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # closes the last interval


def main(argv: list[str]) -> int:
    root, result_path, rest = os.path.abspath(argv[0]), argv[1], argv[2:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    pairs = list(zip(rest[0::2], rest[1::2]))

    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import finslergeo
    import finslergeo.cli

    setup_s = time.perf_counter() - _started
    if not os.path.abspath(finslergeo.__file__).startswith(src + os.sep):
        print(f"finslergeo imported from {finslergeo.__file__}, not {src}", file=sys.stderr)
        return 3
    import numpy

    result = {
        "setup_s": setup_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "exit_codes": [],
    }
    if pairs:
        tracer = None
        if spans_path is not None:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        speed = Speedometer(numpy)
        started = time.perf_counter()
        try:
            with speed:
                for index, (scenario, report) in enumerate(pairs):
                    if tracer is not None:
                        tracer.run_id = index
                    result["exit_codes"].append(
                        finslergeo.cli.main(["run", scenario, "--report", report])
                    )
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
        sys.stdout.flush()
        result.update(
            run_s=elapsed - speed.kernel_total_s,
            run_ref=speed.ref_units,
            ref_s=sorted(speed.samples)[len(speed.samples) // 2],
            kernel_total_s=speed.kernel_total_s,
        )
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(spans_path)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return next((code for code in result["exit_codes"] if code != 0), 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
