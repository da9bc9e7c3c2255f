"""What a run imports: a fresh interpreter that runs every suite through
``finslergeo run`` must not load ``numpy.ma`` or ``numpy.polynomial``,
which nothing in the engine needs.  ``numpy.ma`` takes about 17 ms of each
run (median under ``-X importtime``, Python 3.11, numpy 2.4, 2-core
machine), and ``np.median`` loaded it through its NaN check;
``numpy.polynomial`` takes 3-8 ms (cumulative, three runs), and the
rational profile's derivatives are one Horner loop instead."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALL_SUITES = (
    "frame-identities, christoffel-xcheck, curvature-xcheck, vacuum, "
    "schwarzschild-reductions, finsler-identities, finsler-curvature"
)
SCHWARZSCHILD = "signature = -1\n[profile]\nkind = schwarzschild_isotropic\nxi = 1.0\n"
RATIONAL = "signature = 1\n[profile]\nkind = rational\nc_coeffs = 0.8, 0.1\nm_coeffs = 1.0, 0.2\n"
SCENARIOS = {
    # Every suite on the isotropic Schwarzschild pair, the Finsler suites at
    # charge 0.3 (signature -1, where the charged cone is admissible), and
    # the rational pair's Horner derivatives through the curvature suites.
    "charged": ("0.3", ALL_SUITES, SCHWARZSCHILD),
    "charge_zero": ("0.0", "finsler-identities, finsler-curvature", SCHWARZSCHILD),
    "rational": ("0.3", "christoffel-xcheck, curvature-xcheck, finsler-curvature", RATIONAL),
}
RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from finslergeo.cli import main
codes = [main(["run", path, "--report", report]) for path, report in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes} | {name: name in sys.modules for name in sys.argv[3:]}))
"""


UNUSED = ("numpy.ma", "numpy.polynomial")


def test_a_run_of_every_suite_does_not_import_numpy_ma(tmp_path):
    runs = []
    for name, (charge, suites, profile) in SCENARIOS.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(
            f"[scenario]\ncharge = {charge}\nseed = 3\nsuites = {suites}\n{profile}"
            "[samples]\nradii = 1, 2\npoints = 3\nfibers = 3\n",
            encoding="utf-8",
        )
        runs.append((str(path), str(tmp_path / f"{name}.json")))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", RUN, str(SRC), json.dumps(runs), *UNUSED],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(runs)
    ran = set()
    for _, report in runs:
        body = json.loads(Path(report).read_text(encoding="utf-8"))
        assert all(suite["status"] == "pass" for suite in body["suites"])
        ran |= {(suite["name"], body["scenario"]["charge"]) for suite in body["suites"]}
    assert {name for name, _ in ran} == {s.strip() for s in ALL_SUITES.split(",")}
    assert {charge for name, charge in ran if name.startswith("finsler")} == {0.0, 0.3}
    assert not any(result[name] for name in UNUSED)
