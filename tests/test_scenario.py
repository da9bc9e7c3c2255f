"""Scenario parsing and validation, report determinism, exit codes, CLI."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finslergeo import Scenario, ScenarioError, parse_scenario, run
from finslergeo import suites
from finslergeo.cli import main
from finslergeo.scenario import DEFAULT_RADII, scenario_from_sections
from finslergeo.suites import write_tensor_csv

MINIMAL_VACUUM = """
[scenario]
suites = vacuum

[profile]
kind = schwarzschild_isotropic
xi = 1.0
"""

PD_FINSLER = """
[scenario]
signature = 1
charge = 0.3
seed = 42
suites = finsler-curvature

[profile]
kind = rational
c_coeffs = 0.8, 0.1
m_coeffs = 1.0, 0.2

[samples]
fibers = 8
"""


class TestParsing:
    def test_minimal_file_fills_defaults(self):
        """A file selecting only the vacuum suite gets N = 4 and the preset radii."""
        scenario = parse_scenario(MINIMAL_VACUUM)
        assert scenario.n_dim == 4
        assert scenario.epsilon == -1
        assert scenario.suites == ("vacuum",)
        assert scenario.radii == DEFAULT_RADII
        assert scenario.profile.kind == "schwarzschild_isotropic"
        assert scenario.charge == 0.0
        assert scenario.n_points == 100
        assert scenario.n_fibers == 100

    def test_dimension_constraint_message(self):
        with pytest.raises(ScenarioError, match=r"N must be in \[2,8\]"):
            parse_scenario("[scenario]\ndimension = 9\n")

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ScenarioError, match="line 3") as err:
            parse_scenario("[scenario]\nseed = 1\nwibble = 2\n")
        assert "wibble" in str(err.value)

    def test_unknown_section_and_suite(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario("[nonsense]\n")
        with pytest.raises(ScenarioError, match="unknown suite"):
            parse_scenario("[scenario]\nsuites = bogus-suite\n")

    def test_key_outside_section(self):
        with pytest.raises(ScenarioError, match="outside any"):
            parse_scenario("seed = 1\n")

    def test_malformed_line(self):
        with pytest.raises(ScenarioError, match="key = value"):
            parse_scenario("[scenario]\njust some words\n")

    def test_profile_constraints(self):
        with pytest.raises(ScenarioError, match="xi must be > 0"):
            parse_scenario("[profile]\nkind = schwarzschild_isotropic\nxi = -1\n")
        with pytest.raises(ScenarioError, match="unknown profile kind"):
            parse_scenario("[profile]\nkind = weird\n")
        with pytest.raises(ScenarioError, match="c_coeffs"):
            parse_scenario("[profile]\nkind = rational\n")

    def test_tolerance_override_validation(self):
        scenario = parse_scenario("[tolerances]\nfinite_difference = 1e-7\n")
        assert scenario.tolerances["finite_difference"] == 1e-7
        with pytest.raises(ScenarioError, match="must be > 0"):
            parse_scenario("[tolerances]\nexact = -1e-12\n")

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"scenario": {"dimenson": 5}}, "unknown key 'dimenson' in section [scenario]"),
            ({"tolerances": {"bogus": 1e-3}}, "unknown key 'bogus' in section [tolerances]"),
            ({"weird": {}}, "unknown section [weird]"),
        ],
        ids=["key", "tolerance-class", "section"],
    )
    def test_sections_refuse_what_the_grammar_refuses(self, sections, message):
        """Sections built in code meet the parser's section and key rule:
        a misspelt key is refused, not replaced by its default, and an
        unknown tolerance class never reaches the report echo."""
        with pytest.raises(ScenarioError) as err:
            scenario_from_sections(sections)
        assert message in str(err.value)
        assert err.value.line is None

    def test_comments_and_blank_lines_ignored(self):
        scenario = parse_scenario("# header\n\n[scenario]\nseed = 7 # trailing\n")
        assert scenario.seed == 7
        scenario = parse_scenario("  # indented\n[scenario]\nseed = 8\t# after a tab\n")
        assert scenario.seed == 8


class TestRun:
    def test_empty_suite_list_is_valid(self):
        """A Scenario with no suites builds and runs, but verifies nothing,
        so the run does not pass."""
        report = run(Scenario(suites=()))
        assert not report.passed
        assert report.suites == ()
        assert report.exit_code == 1
        assert "nothing was verified" in report.human_summary()

    def test_report_body_is_deterministic(self):
        """Identical scenario + seed give a bit-identical report body."""
        body1 = run(parse_scenario(PD_FINSLER)).body_json()
        body2 = run(parse_scenario(PD_FINSLER)).body_json()
        assert body1 == body2

    def test_vacuum_scenario_passes(self):
        report = run(parse_scenario(MINIMAL_VACUUM))
        assert report.passed
        vac = report.suites[0]
        assert vac.status == "pass"
        ricci = next(c for c in vac.checks if c.name == "ricci_scaled")
        assert ricci.residual_max < 1e-9

    def test_dimension_five_vacuum_fails(self):
        scenario = parse_scenario(MINIMAL_VACUUM.replace("suites = vacuum", "suites = vacuum") + "\n")
        scenario = parse_scenario("[scenario]\ndimension = 5\nsuites = vacuum\n")
        report = run(scenario)
        assert not report.passed
        assert report.exit_code == 1

    def test_precondition_failure_skips_and_continues(self):
        scenario = parse_scenario(
            "[scenario]\nsuites = vacuum, frame-identities\n"
            "[profile]\nkind = constant\nc0 = 1.0\nm0 = -1.0\n"
            "[samples]\npoints = 5\n"
        )
        report = run(scenario)
        statuses = {s.name: s.status for s in report.suites}
        assert statuses["vacuum"] == "skipped"
        assert statuses["frame-identities"] == "pass"
        assert report.passed  # skipped suites do not fail the run

    def test_points_are_not_capped(self):
        """curvature-xcheck draws exactly the points the scenario asks for."""
        scenario = parse_scenario(
            "[scenario]\nsuites = curvature-xcheck\n[samples]\npoints = 30\n"
        )
        suite = run(scenario).suites[0]
        assert suite.status == "pass"
        assert {check.n_samples for check in suite.checks} == {30}

    @pytest.mark.parametrize("n_dim", [4, 8])
    def test_pseudo_finsleroid_schwarzschild_passes_every_toleranced_check(self, n_dim):
        """The default scenario (signature -1 Schwarzschild, xi 1) at charge
        0.3 runs both Finsler suites in the q^2 = b^2 - S^2 convention and
        passes; every check but the informational bundle_magnitude carries
        a tolerance from its class."""
        scenario = parse_scenario(
            f"[scenario]\ndimension = {n_dim}\ncharge = 0.3\n"
            "suites = finsler-identities, finsler-curvature\n"
        )
        assert scenario.epsilon == -1 and scenario.profile.kind == "schwarzschild_isotropic"
        report = run(scenario)
        assert report.passed, report.human_summary()
        for suite in report.suites:
            for check in suite.checks:
                assert check.n_samples == 100
                if check.name != "bundle_magnitude":
                    assert check.tolerance is not None, check.name
                    assert check.tolerance_class in scenario.tolerances, check.name

    def test_signature_without_admissible_fibers_fails_with_its_rejections(self):
        """The positive-definite rational pair at signature -1 has q^2 =
        b^2 - S^2 < 0 for every fiber vector: both Finsler suites fail with
        the sampler's q^2 <= 0 count, and the run does not pass."""
        scenario = parse_scenario(
            "[scenario]\nsignature = -1\ncharge = 0.3\n"
            "suites = finsler-identities, finsler-curvature\n"
            "[profile]\nkind = rational\nc_coeffs = 0.8, 0.1\nm_coeffs = 1.0, 0.2\n"
            "[samples]\nfibers = 5\n"
        )
        report = run(scenario)
        assert [s.status for s in report.suites] == ["fail", "fail"]
        for suite in report.suites:
            assert "only 0 of 5 fiber vectors" in suite.reason
            assert "in 300 tries (rejected: 0 outside the domain, 300 with q^2 <= 0" in suite.reason
        assert report.exit_code == 1

    def test_run_with_every_suite_skipped_fails(self):
        """A run in which every suite skipped exits 1, and its summary says
        nothing was verified."""
        scenario = parse_scenario(
            "[scenario]\nsignature = 1\nsuites = vacuum, schwarzschild-reductions\n"
            "[profile]\nkind = constant\nc0 = 0.9\nm0 = 1.0\n"
        )
        report = run(scenario)
        assert [s.status for s in report.suites] == ["skipped", "skipped"]
        assert not report.passed
        assert report.exit_code == 1
        summary = report.human_summary()
        assert "nothing was verified" in summary
        assert summary.endswith("overall: FAIL")


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        good = tmp_path / "vacuum.ini"
        good.write_text(MINIMAL_VACUUM, encoding="utf-8")
        assert main(["run", str(good)]) == 0

        bad_dim = tmp_path / "vacuum5.ini"
        bad_dim.write_text("[scenario]\ndimension = 5\nsuites = vacuum\n", encoding="utf-8")
        assert main(["run", str(bad_dim)]) == 1

        assert main(["run", str(tmp_path / "missing.ini")]) == 2
        broken = tmp_path / "broken.ini"
        broken.write_text("[scenario]\ndimension = 9\n", encoding="utf-8")
        assert main(["run", str(broken)]) == 2

    def test_report_written_and_seed_override(self, tmp_path):
        good = tmp_path / "vacuum.ini"
        good.write_text(MINIMAL_VACUUM, encoding="utf-8")
        report_path = tmp_path / "out" / "report.json"
        assert main(["run", str(good), "--seed", "9", "--report", str(report_path)]) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["scenario"]["seed"] == 9
        assert payload["passed"] is True
        assert "timings" in payload

    def test_unwritable_report_path_is_a_configuration_error(self, tmp_path, capsys):
        """A --report path under a regular file cannot be written: exit 2
        with a message, not a traceback."""
        blocker = tmp_path / "FILE"
        blocker.write_text("", encoding="utf-8")
        argv = ["verify-vacuum", "--radii", "1,2", "--report", str(blocker / "r.json")]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_dump_dir_is_a_configuration_error(self, tmp_path, capsys):
        """A --dump-tensors directory that is a regular file: exit 2 with a
        message, not a traceback."""
        blocker = tmp_path / "FILE"
        blocker.write_text("", encoding="utf-8")
        assert main(["verify-vacuum", "--radii", "1,2", "--dump-tensors", str(blocker)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, target",
        [("--report", "FILE/r.json"), ("--dump-tensors", "FILE"), ("--report", ".")],
        ids=["--report", "--dump-tensors", "--report-directory"],
    )
    def test_unwritable_output_fails_before_any_suite_runs(
        self, tmp_path, monkeypatch, capsys, option, target
    ):
        """The output directories are created and the report file opened
        before the first suite runs, so an unwritable path (below a regular
        file, or a report path that is a directory) exits 2 with a message
        without running the vacuum suite."""
        calls = []
        vacuum = suites._SUITE_FUNCS["vacuum"]
        monkeypatch.setitem(
            suites._SUITE_FUNCS, "vacuum", lambda *args: calls.append(args) or vacuum(*args)
        )
        (tmp_path / "FILE").write_text("", encoding="utf-8")
        assert main(["verify-vacuum", "--radii", "1,2", option, str(tmp_path / target)]) == 2
        assert calls == []
        assert "configuration error" in capsys.readouterr().err

    def test_an_interrupted_run_leaves_no_new_report(self, tmp_path, monkeypatch):
        """The report file opened before the first suite runs is removed
        again when the run stops before writing it; an existing report is
        left as it was."""

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setitem(suites._SUITE_FUNCS, "vacuum", interrupted)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_text("previous\n", encoding="utf-8")
        for path in (new, old):
            with pytest.raises(KeyboardInterrupt):
                main(["verify-vacuum", "--radii", "1,2", "--report", str(path)])
        assert not new.exists()
        assert old.read_text(encoding="utf-8") == "previous\n"

    def test_unknown_tolerance_class_has_one_rule(self, tmp_path, capsys):
        """--tolerance-class and a file's [tolerances] entry are refused by
        the same rule, with the same message."""
        message = "unknown key 'nope' in section [tolerances]"
        good = tmp_path / "vacuum.ini"
        good.write_text(MINIMAL_VACUUM, encoding="utf-8")
        assert main(["run", str(good), "--tolerance-class", "nope=1e-3"]) == 2
        assert message in capsys.readouterr().err
        bad = tmp_path / "nope.ini"
        bad.write_text(MINIMAL_VACUUM + "[tolerances]\nnope = 1e-3\n", encoding="utf-8")
        assert main(["run", str(bad)]) == 2
        assert message in capsys.readouterr().err

    def test_options_are_the_entries_of_a_file(self, tmp_path):
        """run FILE --seed 9 --tolerance-class exact=1e-13 reports the body
        of a file that holds those entries."""
        plain = tmp_path / "plain.ini"
        plain.write_text(PD_FINSLER, encoding="utf-8")
        held = tmp_path / "held.ini"
        held.write_text(
            PD_FINSLER.replace("seed = 42", "seed = 9") + "[tolerances]\nexact = 1e-13\n",
            encoding="utf-8",
        )
        options = ["--seed", "9", "--tolerance-class", "exact=1e-13"]
        bodies = []
        for argv in (["run", str(plain), *options], ["run", str(held)]):
            report = tmp_path / f"{len(bodies)}.json"
            assert main(argv + ["--report", str(report)]) == 0
            payload = json.loads(report.read_text(encoding="utf-8"))
            del payload["timings"]
            bodies.append(payload)
        assert bodies[0]["scenario"]["seed"] == 9
        assert bodies[0]["scenario"]["tolerances"]["exact"] == 1e-13
        assert bodies[0] == bodies[1]

    def test_two_main_calls_build_one_parser(self, tmp_path, monkeypatch):
        """main builds the argparse parser at most once per process, not once
        per call (a caller running many scenarios pays for it once)."""
        good = tmp_path / "vacuum.ini"
        good.write_text(MINIMAL_VACUUM, encoding="utf-8")
        built = []
        init = argparse.ArgumentParser.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "finslergeo":
                built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        assert main(["run", str(good)]) == 0
        assert main(["run", str(good)]) == 0
        assert len(built) <= 1

    def test_a_tolerance_option_does_not_leak_into_the_next_call(self, tmp_path):
        """run FILE --tolerance-class exact=1e-13 and then run FILE in one
        process: the second call echoes the default tolerances."""
        good = tmp_path / "vacuum.ini"
        good.write_text(MINIMAL_VACUUM, encoding="utf-8")
        echoes = []
        for options in (["--tolerance-class", "exact=1e-13"], []):
            report = tmp_path / f"{len(echoes)}.json"
            assert main(["run", str(good), *options, "--report", str(report)]) == 0
            echoes.append(json.loads(report.read_text(encoding="utf-8"))["scenario"])
        assert echoes[0]["tolerances"]["exact"] == 1e-13
        assert echoes[1]["tolerances"] == Scenario().echo()["tolerances"]

    @pytest.mark.parametrize("command", ["verify-vacuum", "finsler-curvature"])
    def test_subcommands_without_options_echo_the_scenario_defaults(self, command, tmp_path):
        """An option that is not given takes the Scenario default: the echo
        differs from Scenario()'s only in what the subcommand chooses."""
        report = tmp_path / "report.json"
        assert main([command, "--report", str(report)]) == 0
        echo = json.loads(report.read_text(encoding="utf-8"))["scenario"]
        expected = Scenario().echo()
        if command == "verify-vacuum":
            expected["suites"] = ["vacuum"]
        else:
            assert echo["profile"]["kind"] == "rational"
            expected.update(suites=["finsler-curvature"], signature=1, profile=echo["profile"])
        assert echo == expected

    def test_output_paths_are_taken_verbatim(self, tmp_path, monkeypatch):
        """An [output] path that reads as a number or a list names that file."""
        monkeypatch.chdir(tmp_path)
        scn = tmp_path / "scn.ini"
        output = "[output]\nreport = 1e3\ndump_tensors = a,b\n"
        scn.write_text(MINIMAL_VACUUM + output, encoding="utf-8")
        assert main(["run", str(scn)]) == 0
        assert (tmp_path / "1e3").is_file()
        assert (tmp_path / "a,b").is_dir()

    def test_hash_inside_an_output_path_is_part_of_it(self, tmp_path, monkeypatch):
        """'#' starts a comment only at line start or after whitespace, so
        report = out#1.json names that file instead of 'out'."""
        monkeypatch.chdir(tmp_path)
        scn = tmp_path / "scn.ini"
        output = "[output]\nreport = out#1.json  # the report\ndump_tensors = d#2\n"
        scn.write_text(MINIMAL_VACUUM + output, encoding="utf-8")
        assert main(["run", str(scn)]) == 0
        assert (tmp_path / "out#1.json").is_file()
        assert (tmp_path / "d#2").is_dir()
        assert not (tmp_path / "out").exists() and not (tmp_path / "d").exists()

    def test_tolerance_class_override_can_force_failure(self, tmp_path):
        good = tmp_path / "vacuum.ini"
        good.write_text(MINIMAL_VACUUM, encoding="utf-8")
        code = main(["run", str(good), "--tolerance-class", "finite_difference=1e-16"])
        assert code == 1
        assert main(["run", str(good), "--tolerance-class", "bogus=1"]) == 2
        assert main(["run", str(good), "--tolerance-class", "exact"]) == 2

    def test_profile_without_domain_fails_with_reason(self, tmp_path):
        """c = -1 is never positive, so no point is admissible: the point, the
        charge-0 and the admissible-fiber rejection loops stop after 60 tries
        per sample and fail their suite with a reason instead of hanging or
        passing with nothing verified."""
        src = Path(__file__).resolve().parents[1] / "src"
        for scenario_head in (
            "signature = 1\nsuites = frame-identities, finsler-curvature\n",
            "signature = 1\ncharge = 0.3\nsuites = finsler-identities, finsler-curvature\n",
        ):
            scn = tmp_path / "empty_domain.ini"
            scn.write_text(
                "[scenario]\n" + scenario_head
                + "[profile]\nkind = rational\nc_coeffs = -1\nm_coeffs = 1\n",
                encoding="utf-8",
            )
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from finslergeo.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "run", str(scn)],
                env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                timeout=20,
            )
            assert proc.returncode == 1, scenario_head
            assert proc.stdout.count("nothing was verified") == 2, scenario_head
            # Each failure counts its rejected tries: all 6000 left the domain.
            assert proc.stdout.count("in 6000 tries (rejected: 6000 outside the domain") == 2

    @pytest.mark.parametrize(
        "case, message",
        [
            ("[scenario]\ndimension = true\n", "dimension must be an integer"),
            ("[scenario]\ndimension = 4.7\n", "dimension must be an integer"),
            ("[scenario]\ncharge = nan\n", "charge must be a finite number"),
            ("[scenario]\nseed = 1\nseed = 2\n", "line 3: duplicate key 'seed'"),
            ("[scenario]\nsuites = vacuum, vacuum\n", "listed twice"),
            ("[scenario]\nseed = -1\n", "seed must be an integer >= 0"),
            ("[scenario]\nseed = 7#8\nsuites = vacuum\n", "seed must be an integer"),
            (["verify-vacuum", "--dimension", "9"], r"N must be in [2,8]"),
            (["verify-vacuum", "--radii", "0.25,1"], "radii > 0.25"),
            (["finsler-curvature", "--samples", "0"], "must be >= 1"),
            ("[scenario]\nsuites = vacuum\n[samples]\npoints = 1" + "0" * 400 + "\n",
             "must be <= 10000"),
            (["finsler-curvature", "--samples", "10001"], "must be <= 10000"),
            ("[scenario]\nsuites = vacuum\n[samples]\nradii = " + ", ".join(["1"] * 10001) + "\n",
             "must be <= 10000"),
            (["verify-vacuum", "--radii", ",".join(["1"] * 10001)], "must be <= 10000"),
            (
                ["verify-vacuum", "--tolerance-class", "exact=1e-12",
                 "--tolerance-class", "exact=1e-3"],
                "duplicate --tolerance-class 'exact'",
            ),
            ("[scenario]\nseed = 3\n", "no suites listed"),
            ("[scenario]\nsuites = vacuum\n[output]\nreport =\n",
             "[output] report must be a nonempty path"),
            (["verify-vacuum", "--radii", "1,2", "--report", ""],
             "[output] report must be a nonempty path"),
            (["verify-vacuum", "--radii", "1,2", "--dump-tensors", ""],
             "[output] dump_tensors must be a nonempty path"),
            ("[scenario]\nsuites = frame-identities\n[profile]\nkind = constant\nxi = 2\n",
             "key 'xi' does not apply to profile kind 'constant'"),
            ("[scenario]\nsuites = vacuum\n[profile]\nc0 = 3\n",
             "key 'c0' does not apply to profile kind 'schwarzschild_isotropic'"),
            (["finsler-curvature", "--profile", "constant", "--xi", "7", "--samples", "3"],
             "key 'xi' does not apply to profile kind 'constant'"),
            (
                "[scenario]\nallow_indefinite_finsler = true\nsuites = vacuum\n",
                "line 2: unknown key 'allow_indefinite_finsler'",
            ),
        ],
        ids=[
            "boolean", "integer", "finite", "duplicate-key", "duplicate-suite", "seed",
            "hash-inside-a-number",
            "vacuum-dimension", "vacuum-pole", "curvature-samples", "huge-points",
            "curvature-samples-cap", "huge-radii", "vacuum-radii-cap",
            "duplicate-tolerance-class", "no-suites",
            "empty-report-entry", "empty-report-option", "empty-dump-option",
            "xi-of-constant", "c0-of-schwarzschild", "xi-option-of-constant",
            "removed-indefinite-key",
        ],
    )
    def test_every_input_runs_or_exits_2(self, case, message, tmp_path, capsys):
        """Input the grammar would once reinterpret, or that a subcommand took
        without validation, is a configuration error naming the rule."""
        if isinstance(case, str):
            scn = tmp_path / "case.ini"
            scn.write_text(case, encoding="utf-8")
            case = ["run", str(scn)]
        assert main(case) == 2
        assert message in capsys.readouterr().err

    def test_verify_vacuum_subcommand(self):
        assert main(["verify-vacuum", "--xi", "1.0", "--radii", "0.5,1,2"]) == 0
        assert main(["verify-vacuum", "--dimension", "5"]) == 1
        assert main(["verify-vacuum", "--radii", "0,-1"]) == 2

    def test_finsler_curvature_subcommand(self):
        assert main(["finsler-curvature", "--charge", "0.3", "--samples", "5"]) == 0
        assert main(["finsler-curvature", "--profile", "schwarzschild", "--samples", "3"]) == 0

    def test_charged_schwarzschild_subcommand_runs(self, capsys):
        """The Schwarzschild profile runs at signature -1, so a charge takes
        the pseudo-Finsleroid convention instead of a configuration error."""
        argv = ["finsler-curvature", "--profile", "schwarzschild", "--charge", "0.3"]
        assert main(argv + ["--samples", "10"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("overall: PASS")

    def test_vacuum_dumps_one_file_per_radius(self, tmp_path):
        """Radii that agree to six significant digits still get one dump
        each: the file name holds the radius's repr."""
        radii = (1.0000001, 1.0000002, 2.0)
        argv = ["verify-vacuum", "--radii", ",".join(map(repr, radii))]
        assert main(argv + ["--dump-tensors", str(tmp_path)]) == 0
        names = {path.name for path in tmp_path.glob("*.csv")}
        assert names == {f"vacuum_curvature_r{r!r}.csv" for r in radii}

    def test_dump_tensors(self, tmp_path):
        scn = tmp_path / "scn.ini"
        scn.write_text(PD_FINSLER, encoding="utf-8")
        dump_dir = tmp_path / "dumps"
        assert main(["run", str(scn), "--dump-tensors", str(dump_dir)]) == 0
        files = list(dump_dir.glob("*.csv"))
        assert files
        lines = files[0].read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 1 + 16  # header + one row per component


class TestTensorCsv:
    def test_full_precision_roundtrip(self, tmp_path):
        array = np.array([[1.0 / 3.0, -2.123456789012345e-7], [5.0, 0.0]])
        path = tmp_path / "t.csv"
        write_tensor_csv(path, array)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "i,j,value"
        for line in lines[1:]:
            i, j, value = line.split(",")
            assert float(value) == array[int(i), int(j)]
