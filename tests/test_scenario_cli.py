"""Scenario schema, builtins, CLI exit codes and report determinism."""

import csv
import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import crorbit
from crorbit.cli import _build_parser, cmd_analyze, cmd_orbit, cmd_transport, cmd_verify, main
from crorbit.expr import MAX_DEPTH
from crorbit.scenario import (
    BUILTIN_SCENARIOS,
    SCENARIO_SCHEMA,
    ScenarioError,
    builtin_scenario,
    load_scenario,
)


class TestScenarioLoading:
    def test_builtins_resolve(self):
        for name in BUILTIN_SCENARIOS:
            sc = builtin_scenario(name)
            assert sc.name == name
            assert sc.digest
            if sc.kind == "embedded":
                assert sc.manifold is not None
                assert sc.frames
            else:
                assert sc.model_chart is not None

    def test_builtin_resolved_once(self):
        assert builtin_scenario("lewy") is builtin_scenario("lewy")
        assert load_scenario("tube3") is builtin_scenario("tube3")

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError, match="neither a builtin"):
            load_scenario("does-not-exist")

    def test_schema_violation_reported_with_path(self, tmp_path):
        bad = dict(BUILTIN_SCENARIOS["lewy"])
        bad = json.loads(json.dumps(bad))
        bad["manifold"] = {"type": "embedded", "complex_dim": 2}  # rho missing
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ScenarioError, match="schema violation"):
            load_scenario(str(path))

    def test_expression_errors_surface(self, tmp_path):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["manifold"]["rho"] = ["v - x^2 - w^2"]  # unknown identifier w
        path = tmp_path / "bad_expr.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match="expression error"):
            load_scenario(str(path))

    @pytest.mark.parametrize(
        "section, index, path",
        [
            (("frames", "cr", 0), 2, "frames['cr'][0][2]"),
            (("manifold", "rho"), 0, "manifold['rho'][0]"),
        ],
        ids=["frame-coefficient", "rho"],
    )
    def test_expression_error_names_its_path(self, section, index, path, tmp_path):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        entries = raw
        for key in section:
            entries = entries[key]
        entries[index] = "2*y +"
        bad = tmp_path / "truncated.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(bad))
        assert str(err.value) == (
            f"expression error at {path}: unexpected end of input (at position 5)"
        )

    def test_builtins_satisfy_the_schema(self):
        for raw in BUILTIN_SCENARIOS.values():
            jsonschema.validate(raw, SCENARIO_SCHEMA)

    def test_resolving_builtins_leaves_jsonschema_unimported(self):
        code = (
            "import sys, crorbit.cli\n"
            "from crorbit.scenario import BUILTIN_SCENARIOS, load_scenario\n"
            "for name in BUILTIN_SCENARIOS:\n"
            "    load_scenario(name)\n"
            "print('jsonschema' in sys.modules)\n"
        )
        src = str(Path(crorbit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("name", ["tube3", "lewy"])
    def test_orbit_leaves_numpy_ma_unimported(self, name):
        """Lockstep flows group words with a set, not np.unique, which imports numpy.ma."""
        code = (
            "import sys\n"
            "from crorbit.cli import cmd_orbit\n"
            "from crorbit.scenario import builtin_scenario\n"
            f"cmd_orbit(builtin_scenario({name!r}), 'origin', budget=8, seed=0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(crorbit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_point_dimension_checked(self, tmp_path):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["points"]["origin"] = [0.0, 0.0]
        path = tmp_path / "bad_pt.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ScenarioError, match="coordinates"):
            load_scenario(str(path))

    def test_custom_file_round_trip(self, tmp_path):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["flat"]))
        raw["name"] = "flat-copy"
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(raw))
        sc = load_scenario(str(path))
        assert sc.name == "flat-copy"
        assert sc.manifold.d == 1

    def test_point_resolution(self):
        sc = builtin_scenario("lewy")
        assert np.array_equal(sc.point("origin"), np.zeros(4))
        assert np.array_equal(sc.point("0.1,0,0,0.01"), [0.1, 0, 0, 0.01])
        with pytest.raises(ScenarioError, match="unknown point"):
            sc.point("nowhere")


class TestCommands:
    def test_analyze_lewy(self):
        report = cmd_analyze(builtin_scenario("lewy"), "origin")
        assert report.passed
        by_name = {r.name: r for r in report.results}
        assert by_name["genericity"].details["complex_rank"] == 1
        assert by_name["tangent-dimensions"].details["cr_dim"] == 1
        assert by_name["minimality"].details["minimal"] is True

    def test_analyze_flat_not_minimal(self):
        report = cmd_analyze(builtin_scenario("flat"), "origin")
        assert report.passed  # analysis succeeded; non-minimality is a finding
        by_name = {r.name: r for r in report.results}
        assert by_name["minimality"].details["minimal"] is False

    def test_analyze_tube3_codimension_two(self):
        report = cmd_analyze(builtin_scenario("tube3"), "origin")
        assert report.passed
        spot = {r.name: r for r in report.results}["lemma21-spot"]
        assert spot.value <= 1e-12

    def test_analyze_chart_scenario(self):
        report = cmd_analyze(builtin_scenario("expchart"), "origin")
        assert report.passed
        assert report.results[0].name == "chart-validation"

    def test_transport_expchart(self, tmp_path):
        report = cmd_transport(
            builtin_scenario("expchart"),
            eta0=np.array([1.0]),
            xi0=np.array([1.0]),
            out_dir=tmp_path,
        )
        assert report.passed
        by_name = {r.name: r for r in report.results}
        assert by_name["horizontal-vs-flow"].value <= 1e-8
        assert by_name["duality-pairing"].value <= 1e-8
        eta_csv = (tmp_path / "transport_eta.csv").read_text().splitlines()
        assert eta_csv[0] == "t,xp1,eta1"
        assert len(eta_csv) > 2

    def test_transport_word(self):
        report = cmd_transport(
            builtin_scenario("expchart"),
            word=__import__("crorbit.flow", fromlist=["FlowWord"]).FlowWord.of(
                (1, 0.5), (1, 0.5)
            ),
        )
        assert report.passed

    def test_transport_word_csv_time_runs_over_the_whole_word(self, tmp_path):
        code = main([
            "transport", "--scenario", "expchart", "--word", "[[1, 0.5], [1, -0.25]]",
            "--out", str(tmp_path),
        ])
        assert code == 0
        for name in ("transport_eta.csv", "transport_xi.csv"):
            with open(tmp_path / name, newline="") as fh:
                rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
            times = [row[0] for row in rows]
            assert times.count(0.0) == 1 and times[0] == 0.0
            assert all(a <= b for a, b in zip(times, times[1:]))
            assert times[-1] == 0.75
            assert all(a != b for a, b in zip(rows, rows[1:]))  # no repeated junction row

    def test_orbit_lewy_with_certificate(self, tmp_path):
        report = cmd_orbit(builtin_scenario("lewy"), "origin", budget=32, seed=7, out_dir=tmp_path)
        assert report.passed
        by_name = {r.name: r for r in report.results}
        assert by_name["lie-hull"].details["minimal"] is True
        assert by_name["global-minimality-certificate"].details["words"] <= 3
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["smallest_singular_value"] >= 1e-3
        cloud_lines = (tmp_path / "orbit_cloud.csv").read_text().splitlines()
        assert cloud_lines[0].startswith("word,")

    def test_orbit_certificate_below_tau_fails(self, monkeypatch):
        """Re-verification needs only tau / 2; the certificate itself must clear tau."""
        import crorbit.cli as cli

        def below_tau(*args, real=cli.global_minimality_certificate):
            rep = real(*args)
            rep.certificate = dataclasses.replace(
                rep.certificate, smallest_singular_value=0.9 * cli.TAU_CERT
            )
            return rep

        monkeypatch.setattr(cli, "global_minimality_certificate", below_tau)
        report = cmd_orbit(builtin_scenario("lewy"), "origin", budget=32, seed=7)
        cert = {r.name: r for r in report.results}["global-minimality-certificate"]
        assert cert.details["reverified_sigma"] >= cli.TAU_CERT / 2
        assert not cert.passed and not report.passed

    def test_orbit_flat_no_certificate_in_band(self):
        report = cmd_orbit(builtin_scenario("flat"), "origin", budget=12, seed=7)
        assert report.passed
        by_name = {r.name: r for r in report.results}
        detail = by_name["global-minimality-certificate"].details
        assert detail["found"] is False
        assert detail["budget_exhausted"] is True
        assert detail["best_span_dimension"] == 2

    def test_orbit_flows_use_scenario_integrator(self, tmp_path, monkeypatch):
        import crorbit.orbit as orbit

        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["integrator"] = {"rtol": 1e-8}
        path = tmp_path / "lewy_rtol.json"
        path.write_text(json.dumps(raw))
        scenario = load_scenario(path)
        seen = []

        def recorder(frame, words, x0s, cfg, *args, real=orbit.composed_flows, **kwargs):
            seen.append(cfg)
            return real(frame, words, x0s, cfg, *args, **kwargs)

        monkeypatch.setattr(orbit, "composed_flows", recorder)
        cmd_orbit(scenario, "origin", budget=8, seed=1)
        assert seen and all(cfg == scenario.integrator for cfg in seen)

    def test_orbit_without_integrator_block_matches_builtin(self, tmp_path):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["integrator"] = {}  # the defaults, which the builtin omits
        path = tmp_path / "lewy_default.json"
        path.write_text(json.dumps(raw))
        a = cmd_orbit(load_scenario(path), "origin", budget=8, seed=1)
        b = cmd_orbit(builtin_scenario("lewy"), "origin", budget=8, seed=1)
        assert a.scenario_digest != b.scenario_digest
        assert [r.to_dict() for r in a.results] == [r.to_dict() for r in b.results]


def _right_nested_sum(levels):
    """x4 + (x1*0.0 + (... + (x1*0.0))): levels + 2 nodes deep, equal to x4."""
    return "x4" + "+(x1*0.0" * levels + ")" * levels


class TestExitCodes:
    def test_analyze_success(self, capsys):
        assert main(["analyze", "--scenario", "lewy", "--point", "origin"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_point_off_manifold_is_input_error(self, capsys):
        code = main(["analyze", "--scenario", "lewy", "--point", "1,0,0,0.5"])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "orbit"])
    def test_non_finite_point_exit_2(self, command, capsys):
        code = main([command, "--scenario", "lewy", "--point", "nan,0,0,0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'nan,0,0,0'" in err and "non-finite" in err

    @pytest.mark.parametrize(
        "command, scenario, point, expected",
        [
            ("analyze", "lewy", "1,2", 4),
            ("orbit", "lewy", "0,0", 4),
            ("analyze", "expchart", "1,2", 1),
        ],
        ids=["analyze-embedded", "orbit-embedded", "analyze-chart"],
    )
    def test_point_with_wrong_coordinate_count_exit_2(
        self, command, scenario, point, expected, capsys
    ):
        code = main([command, "--scenario", scenario, "--point", point])
        assert code == 2
        err = capsys.readouterr().err
        assert f"point {point!r} has 2 coordinates, expected {expected}" in err

    def test_non_finite_scenario_point_exit_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["points"]["bad"] = [float("nan"), 0.0, 0.0, 0.0]
        path = tmp_path / "nan_point.json"
        path.write_text(json.dumps(raw))  # written as the JSON extension NaN
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'bad'" in err and "non-finite" in err

    @pytest.mark.parametrize(
        "key, value", [("rtol", float("nan")), ("atol", float("inf"))], ids=["rtol-nan", "atol-inf"]
    )
    def test_non_finite_scenario_setting_exit_2(self, key, value, tmp_path, capsys):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["integrator"] = {key: value}
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(raw))  # NaN / Infinity JSON extensions
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        assert f"integrator[{key!r}] is non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("retract", False), ("max_step", 0.1), ("retract_tol", 1e-10), ("drift_bound", 1e-6)],
        ids=["retract", "max_step", "retract_tol", "drift_bound"],
    )
    def test_integrator_setting_that_is_a_constant_exit_2(self, key, value, tmp_path, capsys):
        """Only rtol and atol are settable: retraction and its bounds are fixed."""
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["integrator"] = {key: value}
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(raw))
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema violation at integrator" in err and f"'{key}' was unexpected" in err

    def test_rank_threshold_is_not_a_scenario_setting_exit_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["tolerances"] = {"rank_rtol": 1e-6}
        path = tmp_path / "tolerances.json"
        path.write_text(json.dumps(raw))
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema violation at <root>" in err and "'tolerances' was unexpected" in err

    @pytest.mark.parametrize(
        "builtin, key, value",
        [
            ("expchart", "charts", {"main": {"l": 1, "m": 1, "frame": [["1", "x2"]]}}),
            (
                "flat",
                "adapted_charts",
                {
                    "complex_line": {
                        "l": 2, "m": 1, "psi": ["x1", "x2", "x3", "0"],
                        "frame": [["1", "0", "0"], ["0", "1", "0"]],
                    }
                },
            ),
        ],
        ids=["charts", "adapted_charts"],
    )
    def test_removed_chart_key_exit_2(self, builtin, key, value, tmp_path, capsys):
        """The chart model is the one chart; no scenario key is parsed and left unread."""
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS[builtin]))
        raw[key] = value
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(raw))
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema violation at <root>" in err and f"'{key}' was unexpected" in err

    @pytest.mark.parametrize(
        "rho, named",
        [
            ("v - 1e400*x^2", "number literal '1e400' is not finite"),
            ("v - 1e308*10*x^2", "constant subexpression 1e+308*10.0 is not finite"),
            ("v - exp(1000)*x^2", "constant subexpression exp(1000.0) is not finite"),
        ],
        ids=["literal", "product", "exp"],
    )
    def test_non_finite_constant_exit_2(self, rho, named, tmp_path, capsys):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["manifold"]["rho"] = [rho]
        path = tmp_path / "non_finite_constant.json"
        path.write_text(json.dumps(raw))
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rho, named",
        [
            ("(" * 3000 + "v" + ")" * 3000, "too many nested parentheses"),
            ("-" * 5000 + "v", f"nested more than {MAX_DEPTH} levels deep"),
            (_right_nested_sum(MAX_DEPTH - 1), f"nested more than {MAX_DEPTH} levels deep"),
        ],
        ids=["parentheses", "minus", "right-nested-sum"],
    )
    def test_too_deep_expression_exit_2(self, rho, named, tmp_path, capsys):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["flat"]))
        raw["manifold"]["rho"] = [rho]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(raw))
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_expression_at_depth_bound_runs(self, tmp_path):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["flat"]))
        raw["manifold"]["rho"] = [_right_nested_sum(MAX_DEPTH - 2)]
        path = tmp_path / "at_bound.json"
        path.write_text(json.dumps(raw))
        report = cmd_analyze(load_scenario(str(path)), "origin")
        assert report.passed

    @pytest.mark.parametrize("command", ["analyze", "orbit"])
    def test_frame_undefined_at_point_exit_2(self, command, tmp_path, capsys):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["lewy"]))
        raw["frames"]["cr"][0][0] = "1/x"
        path = tmp_path / "singular_frame.json"
        path.write_text(json.dumps(raw))
        code = main([command, "--scenario", str(path), "--point", "origin"])
        assert code == 2
        assert capsys.readouterr().err == "error: float division by zero\n"

    def test_chart_frame_undefined_at_point_exit_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["expchart"]))
        raw["manifold"]["frame"] = [["1", "x2/x1"]]
        path = tmp_path / "singular_chart.json"
        path.write_text(json.dumps(raw))
        code = main(["transport", "--scenario", str(path)])  # at x' = 0
        assert code == 2
        assert capsys.readouterr().err == "error: float division by zero\n"

    def test_non_finite_eta_exit_2(self, capsys):
        code = main(["transport", "--scenario", "expchart", "--eta", "inf"])
        assert code == 2
        assert "--eta 'inf'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, text", [("--eta", "abc"), ("--xi", "1,,2")], ids=["eta", "xi"]
    )
    def test_malformed_vector_names_its_option(self, option, text, capsys):
        code = main(["transport", "--scenario", "expchart", option, text])
        assert code == 2
        assert f"{option} {text!r} must be comma-separated numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--word", "{}"], "--word '{}' must be a JSON list of [field index, time] steps"),
            (["--word", "[]"], "--word [] has no steps"),
            (["--word", '["12"]'], '--word step 0 "12" must be [field index, time]'),
            (["--word", "[[1, 0.5], [1.9, 0.5]]"], "--word step 1 [1.9, 0.5] must be"),
            (["--word", "[[true, 0.5]]"], "--word step 0 [true, 0.5] must be"),
            (["--word", '[[1, "0.5"]]'], '--word step 0 [1, "0.5"] must be'),
            (["--word", f"[[1, 1{'0' * 400}]]"], "--word time: int too large to convert"),
            (["--word", "[[2, 1.0]]"], "field index 2 outside frame of size 1"),
        ],
        ids=[
            "object", "empty", "string-step", "float-index", "bool-index", "string-time", "huge-time",
            "field",
        ],
    )
    def test_malformed_word_or_field_exit_2(self, args, named, capsys):
        code = main(["transport", "--scenario", "expchart", *args])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_frames_of_chart_model_exit_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BUILTIN_SCENARIOS["expchart"]))
        raw["frames"] = {"cr": [["1", "x2"]]}
        path = tmp_path / "chart_frames.json"
        path.write_text(json.dumps(raw))
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        assert "frames need an embedded manifold" in capsys.readouterr().err

    def test_transport_on_embedded_scenario_exit_2(self, capsys):
        code = main(["transport", "--scenario", "lewy"])
        assert code == 2
        assert capsys.readouterr().err == "error: transport needs a chart-model scenario\n"

    @pytest.mark.parametrize(
        "args", [["--field", "1"], ["--t", "1"], ["--chart", "main"]], ids=["field", "t", "chart"]
    )
    def test_removed_transport_option_exit_2(self, args, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["transport", "--scenario", "expchart", *args])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err

    def test_transport_default_word_is_field_one_for_time_one(self, capsys):
        reports = []
        for extra in ([], ["--word", "[[1, 1]]"]):
            assert main(["transport", "--scenario", "expchart", "--format", "json", *extra]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0]["arguments"] == {"word": [[1, 1.0]], "eta0": [1.0], "xi0": [1.0]}
        assert reports[0]["results"] == reports[1]["results"]

    @pytest.mark.parametrize(
        "command",
        [
            ["verify", "--suite", "lemma21"],
            ["orbit", "--scenario", "lewy", "--point", "origin"],
            ["analyze", "--scenario", "lewy", "--point", "origin"],
        ],
        ids=["verify", "orbit", "analyze"],
    )
    def test_negative_seed_names_the_option(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "argument --seed: '-1' is not a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--word", "[[1, NaN]]"]], ids=["word"])
    def test_non_finite_time_exit_2(self, args, capsys):
        code = main(["transport", "--scenario", "expchart", *args])
        assert code == 2
        assert "integration time nan is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-3", "0"])
    def test_non_positive_budget_exit_2(self, budget, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("orbit work started before the budget was checked")

        for name in ("lie_hull", "global_minimality_certificate", "pushforward_span",
                     "reachable_samples"):
            monkeypatch.setattr(sys.modules["crorbit.cli"], name, no_work)
        code = main(["orbit", "--scenario", "lewy", "--point", "origin", "--budget", budget])
        assert code == 2
        assert "--budget" in capsys.readouterr().err

    def test_malformed_scenario_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "broken"}))
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        assert "schema" in capsys.readouterr().err

    def test_scenario_directory_exit_2(self, tmp_path, capsys):
        code = main(["analyze", "--scenario", str(tmp_path), "--point", "origin"])
        assert code == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_scenario_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        code = main(["analyze", "--scenario", str(path), "--point", "origin"])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_out_is_existing_file_exit_2(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(sys.modules["crorbit.cli"], "cmd_analyze", no_work)
        path = tmp_path / "taken"
        path.write_text("")
        code = main(["analyze", "--scenario", "lewy", "--point", "origin", "--out", str(path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nonsense.json"
        path.write_text("{not json")
        assert main(["analyze", "--scenario", str(path), "--point", "origin"]) == 2

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "nonexistent"]) == 2

    def test_verify_single_suite_exit_0(self, capsys):
        assert main(["verify", "--suite", "lemma21", "--seed", "5"]) == 0

    def test_injected_sign_error_fails_named_check(self, monkeypatch, capsys):
        """A sign flip in the conormal transport field must fail the hamiltonian suite."""
        import crorbit.connection as connection
        import crorbit.verify as verify

        original = connection.xhat_field

        def flipped(c, x_field, p):
            out = original(c, x_field, p)
            out[c.l:] = -out[c.l:]
            return out

        monkeypatch.setattr(verify, "xhat_field", flipped)
        code = main(["verify", "--suite", "hamiltonian", "--seed", "5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] xhat-hamiltonian-identification" in out

    def test_csv_format_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--scenario", "lewy", "--point", "origin",
                  "--format", "csv", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_json_format_emits_report(self, capsys):
        assert main(["verify", "--suite", "lemma21", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "verify"
        assert doc["passed"] is True

    def test_suite_crash_reported_as_failed_check(self, monkeypatch, capsys, tmp_path):
        """A flow blow-up inside one check fails that check; the others still run."""
        import functools

        import crorbit.verify as verify
        from crorbit.flow import FlowBlowupError

        @functools.wraps(verify._check_linearity)
        def explode(seed):
            raise FlowBlowupError("synthetic blow-up")

        monkeypatch.setattr(verify, "_check_linearity", explode)
        code = main(["verify", "--suite", "duality", "--out", str(tmp_path)])
        assert code == 1
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        aborted = [r for r in results if r["check"] == "linearity-aborted"]
        assert len(aborted) == 1 and not aborted[0]["passed"]
        assert aborted[0]["details"] == {"error": "synthetic blow-up", "seed": 1}
        out = capsys.readouterr().out
        assert "[FAIL] linearity-aborted" in out
        for name in (
            "duality-expchart", "duality-random", "transport-reversibility", "theta-duality"
        ):
            assert f"[PASS] {name}:" in out


def _readme_commands():
    """The argument lists of the README lines that start with ``crorbit``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.split("#")[0] for line in readme.read_text().splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("crorbit ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_cli_example_parses(argv):
    """Every documented invocation uses options the parser still has (parsing only)."""
    _build_parser().parse_args(argv)


class TestDeterminism:
    def test_verify_reports_identical_modulo_timings(self):
        a = cmd_verify("lemma21", seed=9)
        b = cmd_verify("lemma21", seed=9)
        a.timings = {"total_seconds": 1.0}
        b.timings = {"total_seconds": 2.0}
        assert a.comparable_json() == b.comparable_json()
        assert a.to_json() != b.to_json()

    def test_orbit_reports_deterministic(self):
        a = cmd_orbit(builtin_scenario("lewy"), "origin", budget=16, seed=4)
        b = cmd_orbit(builtin_scenario("lewy"), "origin", budget=16, seed=4)
        assert a.comparable_json() == b.comparable_json()

    def test_report_written_to_out_dir(self, tmp_path):
        assert main([
            "verify", "--suite", "lemma21", "--seed", "2", "--out", str(tmp_path)
        ]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["arguments"] == {"suite": "lemma21"}
        assert "timings" in doc
