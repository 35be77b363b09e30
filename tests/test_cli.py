import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from stochcert import certificate, cli, dp, expr, regions, synth
from stochcert.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_VALIDATION,
    ScenarioError,
    load_scenario,
    main,
    run,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _walk_doc() -> dict:
    return yaml.safe_load((SCENARIOS / "symmetric_walk.yaml").read_text())


def _two_starts_doc() -> dict:
    """The symmetric walk from x0 = 3 and x0 = 1, where RA(1) = 0.1 < epsilon2."""
    doc = _walk_doc()
    del doc["initial_state"]
    doc["initial_states"] = [[3.0], [1.0]]
    return doc


def _write(tmp_path: Path, doc: dict, name="scenario.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


@pytest.fixture()
def identity_file(tmp_path):
    doc = _walk_doc()
    doc["name"] = "identity"
    doc["system"]["dynamics"] = ["x1 + 0*th1"]
    doc["system"]["disturbance"] = {"kind": "finite", "atoms": [[0.0]], "probs": [1.0]}
    doc["mc"]["horizon"] = 50
    doc["mc"]["trials"] = 200
    return _write(tmp_path, doc, "identity.yaml")


class TestLoading:
    def test_bundled_scenarios_load(self):
        for name in ("symmetric_walk", "biased_walk", "invariant_contraction"):
            sc = load_scenario(SCENARIOS / f"{name}.yaml")
            assert sc.system.n == 1
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        assert sc.grid.cells.tolist() == [12]

    @pytest.mark.parametrize("name, content, message", [
        ("absent.yaml", None, "scenario file not found: "),
        ("", None, "cannot read scenario file "),  # the directory itself
        ("utf16.yaml", b"\xff\xfe\x00", "cannot read scenario file "),
    ], ids=["missing", "directory", "not_utf8"])
    def test_missing_file(self, tmp_path, capsys, name, content, message):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)
        assert main(["--scenario", str(path), "--command", "solve"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}{path}")

    def test_bad_probs_reported(self, tmp_path):
        doc = _walk_doc()
        doc["system"]["disturbance"]["probs"] = [0.5, 0.4]
        with pytest.raises(ScenarioError, match="sum"):
            load_scenario(_write(tmp_path, doc))

    def test_target_outside_safe_names_witness(self, tmp_path):
        doc = _walk_doc()
        doc["regions"]["target"] = "x1 >= 11.2 && x1 < 11.4"
        with pytest.raises(ScenarioError, match="witness"):
            load_scenario(_write(tmp_path, doc))

    def test_bad_expression_located(self, tmp_path):
        doc = _walk_doc()
        doc["system"]["dynamics"] = ["x1 +"]
        with pytest.raises(ScenarioError, match="dynamics\\[0\\]"):
            load_scenario(_write(tmp_path, doc))

    def test_all_errors_collected(self, tmp_path):
        doc = _walk_doc()
        doc["system"]["dynamics"] = ["x1 +"]
        doc["thresholds"]["epsilon2"] = 2.0
        doc["mc"]["trials"] = 0
        with pytest.raises(ScenarioError) as err:
            load_scenario(_write(tmp_path, doc))
        assert len(err.value.errors) >= 3

    def test_empty_safe_set_rejected(self, tmp_path, capsys):
        doc = _walk_doc()
        doc["regions"] = {"safe": "x1 > 100", "target": "x1 > 200"}
        path = _write(tmp_path, doc)
        with pytest.raises(ScenarioError, match="safe set is empty over the sampled box"):
            load_scenario(path)
        assert main(["--scenario", str(path), "--command", "extract"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: safe set is empty over the sampled box\n"

    def test_safe_set_outside_grid_box(self, tmp_path):
        doc = _walk_doc()
        doc["grid"] = {"lower": [-0.5], "upper": [8.5], "cells": [9]}
        with pytest.raises(ScenarioError, match="grid box"):
            load_scenario(_write(tmp_path, doc))

    def test_initial_states_list(self, tmp_path):
        doc = _walk_doc()
        del doc["initial_state"]
        doc["initial_states"] = [[3.0], [5.0]]
        doc["mc"]["trials"] = 2000
        sc = load_scenario(_write(tmp_path, doc))
        assert sc.x0s.shape == (2, 1)
        report = run("solve", sc)
        values = report.sections["values"]
        assert len(values) == 2
        assert values[1]["reach_avoid"]["value"] == pytest.approx(0.5, abs=1e-6)

    def test_report_all_truncation_slack_per_initial_state(self, tmp_path):
        # one stay-probability field per kernel serves every initial state
        doc = _walk_doc()
        del doc["initial_state"]
        doc["mc"]["trials"] = 2000
        slacks = []
        for x0s in ([[3.0], [5.0]], [[3.0]], [[5.0]]):
            doc["initial_states"] = x0s
            report = run("report-all", load_scenario(_write(tmp_path, doc)))
            slacks += [(e["reach_avoid"]["truncation_slack"], e["liveness"]["truncation_slack"])
                       for e in report.sections["dp_vs_mc"]]
        assert slacks[:2] == slacks[2:]
        assert slacks[0] != slacks[1]

    @pytest.mark.parametrize("block, key, value, message", [
        ("system", "n", "one", "system.n must be an integer"),
        ("system", "m", 1.5, "system.m must be an integer"),
        ("mc", "horizon", "long", "mc.horizon must be an integer"),
        ("mc", "trials", [100], "mc.trials must be an integer"),
        ("mc", "seed", "abc", "mc.seed must be an integer"),
        ("check", "extra_points", "many", "check.extra_points must be an integer"),
        ("check", "point_seed", 2.5, "check.point_seed must be an integer"),
        (None, "initial_state", ["three"], "initial_state must give"),
        (None, "thresholds", [0.1, 0.2], "malformed block: thresholds"),
        ("mc", "seed", -1, "mc.seed must lie in [0, 2^64)"),
        ("check", "point_seed", 2 ** 64, "check.point_seed must lie in [0, 2^64)"),
        ("system", "disturbance", [[-1.0], [1.0]], "system.disturbance must be a mapping"),
        ("grid", "cells", [12.5], "grid: cells must be integers"),
        (None, "gamma", 2.0, "gamma must lie in [0, 1)"),
        ("grid", "upper", ["x"], "grid.upper must be a list of numbers"),
        ("system", "disturbance", {"kind": "finite", "atoms": [["a"], [1.0]], "probs": [0.5, 0.5]},
         "system.disturbance.atoms must be a list of numbers"),
        ("system", "disturbance", {"kind": "uniform", "lo": -1.0, "hi": 1.0, "atoms": 2.5},
         "system.disturbance.atoms must be an integer"),
        ("mc", "horizon", True, "mc.horizon must be an integer"),
        ("system", "n", True, "system.n must be an integer"),
        (None, "initial_state", [True], "initial_state must give"),
    ])
    def test_malformed_value_exits_with_validation_error(self, tmp_path, capsys,
                                                         block, key, value, message):
        doc = _walk_doc()
        (doc[block] if block else doc)[key] = value
        doc["mc"]["delta"] = 2.0  # a second error, to show all are collected
        code = main(["--scenario", str(_write(tmp_path, doc)), "--command", "solve",
                     "--quiet"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err
        assert err.count(message.split(" must ")[0]) == 1  # one error names the field
        assert "mc.delta must lie in (0, 1)" in err
        assert err.count("mc.delta") == 1
        assert "Traceback" not in err
        assert "np." not in err and "could not convert" not in err

    @pytest.mark.parametrize("row", cli._FIELDS, ids=lambda row: ".".join(filter(None, row[:2])))
    def test_field_table_row(self, tmp_path, row):
        block, key, attr, typ, default, (text, lo, hi, lo_in, hi_in) = row
        name = f"{block}.{key}" if block else key
        vector = typ == cli._NUMS

        def load(value):
            doc = _walk_doc()
            (doc[block] if block else doc)[key] = [value] if vector else value
            return load_scenario(_write(tmp_path, doc))

        def errors(value):
            with pytest.raises(ScenarioError) as err:
                load(value)
            return err.value.errors

        assert errors("x") == [f"{name} must be {typ}"]
        integer = typ == cli._INT
        outside = [(lo - 1 if integer else float(np.nextafter(lo, -np.inf))) if lo_in else lo,
                   (hi + 1 if integer else float(np.nextafter(hi, np.inf))) if hi_in else hi]
        for value in outside:
            if not (integer and abs(value) == np.inf):  # no integer lies beyond inf
                assert errors(value) == [f"{name} must lie in {text}"], value
        for end, closed in ((lo, lo_in), (hi, hi_in)):
            if closed:
                load(end)
        if default is not None:
            doc = _walk_doc()
            del (doc[block] if block else doc)[key]
            value = getattr(load_scenario(_write(tmp_path, doc)), attr)
            assert value == default and type(value) is type(default)

    def test_readme_lists_every_field(self):
        readme = (SCENARIOS.parent / "README.md").read_text()
        for block, key, _, typ, default, (text, *_) in cli._FIELDS:
            name = f"{block}.{key}" if block else key
            shown = "required" if default is None else repr(default)
            assert f"| `{name}` | {typ.split(' ', 1)[1]} | {shown} | `{text}` |" in readme

    def test_gaussian_disturbance_block(self, tmp_path):
        doc = _walk_doc()
        doc["system"]["dynamics"] = ["0.5*x1 + th1"]
        doc["system"]["disturbance"] = {"kind": "gaussian", "mean": 0.0,
                                        "std": 0.4, "atoms": 8}
        doc["regions"] = {"safe": "x1 > -6 && x1 < 6", "target": "x1 >= 4 && x1 < 6"}
        doc["grid"] = {"lower": [-8.0], "upper": [8.0], "cells": [64]}
        sc = load_scenario(_write(tmp_path, doc))
        assert sc.system.dist.atoms.shape == (8, 1)


class TestCommands:
    def test_simulate_writes_csv(self, tmp_path):
        sc = load_scenario(SCENARIOS / "invariant_contraction.yaml")
        report = run("simulate", sc, out_dir=tmp_path)
        assert report.passed
        rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == sc.mc_horizon + 2  # header + states

    def test_solve_reports_values_and_csv(self, tmp_path):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        report = run("solve", sc, out_dir=tmp_path)
        values = report.sections["values"][0]
        assert values["reach_avoid"]["value"] == pytest.approx(0.3, abs=1e-6)
        assert values["reach_avoid"]["method"] == "dp"
        assert (tmp_path / "field_reach_avoid.csv").exists()
        assert report.sections["cross_check"]["exact_vs_iterative_sup_gap"] < 1e-6
        verdicts = report.sections["thresholds"]
        assert verdicts["reach_avoid"]["certified"]  # 0.3 >= epsilon2 = 0.29
        assert verdicts["liveness"]["certified"]  # 0 >= epsilon1 = 0

    def test_solve_reports_solver_bounds(self):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        report = run("solve", sc)
        solver = report.sections["solver"]
        assert set(solver) == {"reach_avoid", "safety_exit", "discounted", "discounted_exit"}
        for entry in solver.values():
            assert entry["method"] == "prob0+bicgstab"
            assert isinstance(entry["iterations"], int)
            assert 0.0 <= entry["error_bound"] <= 1e-9
        assert not any("solver error bound" in c for c in report.caveats)

    def test_solve_caveat_quotes_bound_when_not_converged(self, monkeypatch):
        solve_exit = cli.dp.solve_safety_exit
        monkeypatch.setattr(cli.dp, "solve_safety_exit",
                            lambda kernel: solve_exit(kernel, max_iter=1))
        report = run("solve", load_scenario(SCENARIOS / "symmetric_walk.yaml"))
        bound = report.sections["solver"]["safety_exit"]["error_bound"]
        assert bound > 1e-9
        assert [c for c in report.caveats if "solver error bound" in c] == [
            f"safety_exit: solver error bound {bound:.3g} exceeds the requested "
            "tolerance; values are within that bound"]

    def test_report_all_fails_uncertified_threshold(self, tmp_path):
        doc = _walk_doc()
        doc["thresholds"]["epsilon2"] = 0.35  # above the true value 0.3
        doc["mc"]["trials"] = 2000
        sc = load_scenario(_write(tmp_path, doc))
        report = run("report-all", sc)
        assert not report.passed
        assert not report.sections["thresholds"]["reach_avoid"]["certified"]

    def test_estimate(self):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        report = run("estimate", sc)
        est = report.sections["estimates"][0]
        assert abs(est["reach_avoid"]["value"] - 0.3) < 0.02
        assert est["liveness"]["direction"] == "upper_biased_for_liveness"

    def test_estimate_deterministic(self):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        a = run("estimate", sc).to_json()
        b = run("estimate", sc).to_json()
        assert a == b

    def test_assumption1_gambler_holds(self):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        report = run("assumption1", sc)
        sect = report.sections["assumption1"]
        assert sect["holds"] and sect["sup_stay_probability"] < 1e-9

    def test_assumption1_identity_fails(self, identity_file):
        sc = load_scenario(identity_file)
        report = run("assumption1", sc)
        sect = report.sections["assumption1"]
        assert not sect["holds"]
        assert sect["sup_stay_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_solve_survives_singular_exact_oracle(self, identity_file):
        # the iterative least fixed point is still valid when the exact
        # solve is singular (mass never absorbs)
        sc = load_scenario(identity_file)
        report = run("solve", sc)
        assert report.passed
        assert "unavailable" in str(report.sections["cross_check"])
        assert report.sections["values"][0]["reach_avoid"]["value"] == 0.0

    def test_extract_then_verify_round_trip(self, tmp_path):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        report = run("extract", sc, out_dir=tmp_path)
        assert report.passed
        cert_file = tmp_path / "certificate_ra_lower_a1.yaml"
        assert cert_file.exists()
        verify = run("verify", sc, certificate=str(cert_file))
        assert verify.passed
        assert verify.sections["verify"]["kind"] == "ra_lower_a1"

    def test_every_extracted_kind_verifies_from_file(self, tmp_path):
        # extract passes, so verify must accept every file it wrote: also with
        # several initial states, where the worst one sets each threshold
        for path in [*sorted(SCENARIOS.glob("*.yaml")), _write(tmp_path, _two_starts_doc())]:
            sc = load_scenario(path)
            out = tmp_path / path.stem
            assert run("extract", sc, out_dir=out).passed
            for cert_file in sorted(out.glob("certificate_*.yaml")):
                verify = run("verify", sc, certificate=str(cert_file))
                assert verify.passed, f"{path.name} {cert_file.name}: {verify.to_text()}"

    def test_threshold_verdicts_take_the_worst_initial_state(self, tmp_path):
        sc = load_scenario(_write(tmp_path, _two_starts_doc()))
        verdict = run("solve", sc).sections["thresholds"]
        assert verdict["reach_avoid"]["value"] == pytest.approx(0.1, abs=1e-9)
        assert not verdict["reach_avoid"]["certified"]  # RA(1.0) = 0.1 < epsilon2 = 0.29

    def test_synthesized_threshold_holds_at_every_initial_state(self, tmp_path):
        # RA(1.0) is far below RA(3.0): a threshold set from x0 = 3 alone
        # fails the initial clause at x0 = 1
        sc = load_scenario(_write(tmp_path, _two_starts_doc()))
        out = tmp_path / "d"
        run("synthesize", sc, condition="ra_lower_a1", out_dir=out)
        verify = run("verify", sc, certificate=str(out / "synthesized_ra_lower_a1.yaml"))
        clauses = {c["clause"]: c for c in verify.sections["verify"]["clauses"]}
        initial = clauses["initial: v(x0) >= eps"]
        assert initial["points"] == 2
        assert initial["min_slack"] >= -sc.tolerance

    def test_verify_rejects_corrupted_certificate(self, tmp_path):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        run("extract", sc, out_dir=tmp_path)
        cert_file = tmp_path / "certificate_ra_lower_a1.yaml"
        doc = yaml.safe_load(cert_file.read_text())
        doc["function"]["values"] = [v + 0.05 for v in doc["function"]["values"]]
        doc["function"]["region_pins"] = None
        cert_file.write_text(yaml.safe_dump(doc))
        verify = run("verify", sc, certificate=str(cert_file))
        assert not verify.passed
        assert verify.sections["verify"]["witnesses"]

    def test_synthesize(self, tmp_path):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        report = run("synthesize", sc, out_dir=tmp_path)
        sect = report.sections["synthesis"]
        assert sect["status"] == "validated"
        assert sect["threshold"] >= 0.25
        # the dump holds the objective, one line per row and one per bound
        dump = (tmp_path / "synthesis.lp.txt").read_text().splitlines()
        assert sect["lp_cols"] == 2
        assert sect["lp_rows"] == len(dump) - 1 - sect["lp_cols"]

    def test_target_covering_safe_set_skips_synthesis(self, tmp_path, capsys):
        # with X_r = X no sample falls in X \ X_r, where synthesis samples
        doc = _walk_doc()
        doc["regions"]["target"] = doc["regions"]["safe"]
        scenario = str(_write(tmp_path, doc))
        message = "synthesize ra_lower_a1: no sample point falls in X \\ X_r"
        code = main(["--scenario", scenario, "--command", "synthesize", "--quiet"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        out = tmp_path / "out"
        code = main(["--scenario", scenario, "--command", "report-all",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        sections = json.loads((out / "report.json").read_text())["sections"]
        assert sections["synthesis"] == {"status": "skipped", "detail": message}
        assert list(sections) == ["dp_vs_mc", "thresholds", "assumption1",
                                  "certificates", "synthesis"]

    def test_report_all_survives_stalled_lp(self, monkeypatch, tmp_path):
        def stall(problem, max_iter=None):
            raise synth.SimplexStalledError(7)

        monkeypatch.setattr(synth, "simplex_solve", stall)
        scenario = SCENARIOS / "symmetric_walk.yaml"
        code = main(["--scenario", str(scenario), "--command", "report-all",
                     "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_NUMERIC
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["passed"]
        sections = report["sections"]
        assert sections["synthesis"] == {
            "status": "stalled",
            "detail": "simplex numerically stalled after 7 iterations",
        }
        assert list(sections) == ["dp_vs_mc", "thresholds", "assumption1",
                                  "certificates", "synthesis"]
        assert len(sections["certificates"]) == 6
        assert all(entry["check"] == "pass" for entry in sections["certificates"].values())

    def test_extract_refused_kind(self, identity_file):
        sc = load_scenario(identity_file)
        with pytest.raises(cli.CertificateError):
            run("extract", sc, condition="ra_lower_a1")

    def test_report_all_bundled(self, tmp_path):
        for name in ("symmetric_walk", "biased_walk", "invariant_contraction"):
            sc = load_scenario(SCENARIOS / f"{name}.yaml")
            report = run("report-all", sc, out_dir=tmp_path / name)
            assert report.passed, f"{name}: {report.to_text()}"
            for entry in report.sections["dp_vs_mc"]:
                assert entry["reach_avoid"]["agree"] and entry["liveness"]["agree"]

    def test_report_all_builds_omega_and_check_points_once(self, monkeypatch):
        calls = {"compute_omega": 0, "build_check_points": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(regions, "compute_omega")
        counting(certificate, "build_check_points")
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        report = run("report-all", sc)
        assert len(report.sections["certificates"]) == 6
        # one omega for the certificate checks, one for the synthesis samples
        assert calls["compute_omega"] <= 2
        assert calls["build_check_points"] == 1

    @pytest.mark.parametrize("name", ["symmetric_walk", "biased_walk",
                                      "invariant_contraction"])
    def test_extract_and_report_all_agree(self, tmp_path, name):
        sc = load_scenario(SCENARIOS / f"{name}.yaml")
        extract = run("extract", sc, out_dir=tmp_path / "extract").sections
        full = run("report-all", sc, out_dir=tmp_path / "report").sections["certificates"]
        assert list(extract) == list(full)
        for kind, entry in extract.items():
            assert entry["threshold"] == full[kind]["threshold"]
            assert entry["min_slack"] == full[kind]["min_slack"]
            assert (Path(entry["file"]).read_bytes()
                    == Path(full[kind]["file"]).read_bytes())

    def test_unknown_condition_kind(self):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        with pytest.raises(ScenarioError, match="unknown condition"):
            run("verify", sc, certificate="x", condition="nonsense")

    def test_report_all_quantized_gaussian(self, tmp_path):
        # noisy contraction with an eight-atom gaussian quantization: the
        # invariant region keeps everything alive and the target absorbs
        doc = {
            "name": "noisy-contraction",
            "system": {
                "n": 1, "m": 1, "dynamics": ["0.5*x1 + th1"],
                "disturbance": {"kind": "gaussian", "mean": 0.0, "std": 0.4,
                                "atoms": 8},
            },
            "regions": {"safe": "x1 > -6 && x1 < 6",
                        "target": "x1 >= -0.5 && x1 < 0.5"},
            "initial_state": [3.0],
            "thresholds": {"epsilon1": 0.95, "epsilon2": 0.95},
            "grid": {"lower": [-8.0], "upper": [8.0], "cells": [64]},
            "gamma": 0.9,
            "mc": {"horizon": 300, "trials": 5000, "delta": 0.05, "seed": 99},
            "check": {"tolerance": 1.0e-6, "extra_points": 100, "point_seed": 3},
        }
        sc = load_scenario(_write(tmp_path, doc, "gaussian.yaml"))
        report = run("report-all", sc)
        assert report.passed, report.to_text()
        assert report.sections["thresholds"]["reach_avoid"]["certified"]
        assert report.sections["thresholds"]["liveness"]["certified"]


class TestMain:
    def test_ok_exit(self, tmp_path, capsys):
        code = main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"),
                     "--command", "solve", "--quiet"])
        assert code == EXIT_OK

    def test_report_written(self, tmp_path):
        code = main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"),
                     "--command", "assumption1", "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        assert (tmp_path / "report.txt").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["command"] == "assumption1"

    def test_validation_exit(self, tmp_path, capsys):
        doc = _walk_doc()
        doc["system"]["disturbance"]["probs"] = [0.5, 0.4]
        path = _write(tmp_path, doc)
        code = main(["--scenario", str(path), "--command", "solve", "--quiet"])
        assert code == EXIT_VALIDATION
        assert "sum" in capsys.readouterr().err

    def test_out_naming_a_file_exits_before_any_work(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("kept")
        monkeypatch.setattr(cli, "_cmd_solve", lambda *args: pytest.fail("solve ran"))
        code = main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"),
                     "--command", "solve", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: --out {out}: ")
        assert out.read_text() == "kept"

    def test_records_copy_list_defaults_and_replace_keeps_fields(self):
        first, second = cli.Report("solve", "walk", {}), cli.Report("solve", "walk", {})
        first.caveats.append("note")
        assert second.caveats == [] and first.passed and second.passed
        with pytest.raises(TypeError):
            hash(first)
        cond = certificate.Condition("ra_lower_discounted", 0.4, gamma=0.5)
        changed = cond.replace(kind="liveness_upper_discounted")
        assert changed == certificate.Condition("liveness_upper_discounted", 0.4, gamma=0.5)
        assert cond.kind == "ra_lower_discounted"

    def test_verify_failure_exit(self, tmp_path):
        main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"),
              "--command", "extract", "--out", str(tmp_path), "--quiet"])
        cert_file = tmp_path / "certificate_ra_lower_a1.yaml"
        doc = yaml.safe_load(cert_file.read_text())
        doc["epsilon"] = 0.9  # claims more than the field value at x0
        cert_file.write_text(yaml.safe_dump(doc))
        code = main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"),
                     "--command", "verify", "--certificate", str(cert_file),
                     "--quiet"])
        assert code == EXIT_REJECTED

    def test_synthesize_refuses_pair_kind(self, tmp_path, capsys):
        code = main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"),
                     "--command", "synthesize", "--condition", "ra_lower_pair",
                     "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ra_lower_pair" in err
        assert all(kind in err for kind in synth.SYNTH_KINDS)

    @pytest.mark.parametrize("condition, edit, message", [
        ("ra_lower_discounted", None, "needs gamma"),
        ("liveness_upper_discounted", None, "needs gamma"),
        (None, lambda d: d.pop("function"), "missing field(s) function"),
        (None, lambda d: d.pop("kind"), "missing field(s) kind"),
        (None, lambda d: d.pop("epsilon"), "missing field(s) epsilon"),
        (None, lambda d: d.update(kind="bogus"), "unknown condition kind"),
        (None, lambda d: d["function"].update(representation="spline"), "representation"),
        (None, lambda d: d.update(function=[1, 2]), "function must be a mapping"),
        (None, lambda d: d.update(pair_w=7), "function must be a mapping"),
        (None, lambda d: d.update(function={"representation": "polynomial",
                                            "exponents": [[0], [1, 0]], "coefficients": [1, 2]}),
         "exponent rows must have equal length"),
        (None, lambda d: d.update(function={"representation": "polynomial",
                                            "exponents": [[0, 0], [1, 0]],
                                            "coefficients": [1, 2]}),
         "function has dimension 2, but the scenario has system.n = 1"),
        (None, lambda d: d.update(function={"representation": "grid", "lower": [0, 0],
                                            "upper": [1, 1], "cells": [2, 2],
                                            "values": [0, 0, 0, 0]}),
         "function has dimension 2"),
        (None, lambda d: d.update(pair_w={"representation": "polynomial",
                                          "exponents": [[0, 0]], "coefficients": [0]}),
         "pair_w has dimension 2"),
        ("ra_lower_pair", lambda d: d.update(omega={"lower": [0, 0], "upper": [11, 11]},
                                             pair_w={"representation": "constant", "value": 0}),
         "omega has dimension 2"),
    ], ids=["ra_discounted_without_gamma", "liveness_discounted_without_gamma", "no_function",
            "no_kind", "no_epsilon", "unknown_kind", "unknown_representation",
            "function_not_mapping", "pair_w_not_mapping", "ragged_exponents",
            "polynomial_of_other_dimension", "grid_of_other_dimension",
            "pair_w_of_other_dimension", "omega_of_other_dimension"])
    def test_malformed_certificate_exits_with_validation_error(
            self, tmp_path, capsys, condition, edit, message):
        walk = str(SCENARIOS / "symmetric_walk.yaml")
        main(["--scenario", walk, "--command", "extract", "--out", str(tmp_path), "--quiet"])
        cert_file = tmp_path / "certificate_ra_lower_a1.yaml"  # saved without gamma
        if edit:
            doc = yaml.safe_load(cert_file.read_text())
            edit(doc)
            cert_file.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        argv = ["--scenario", walk, "--command", "verify", "--certificate", str(cert_file),
                "--quiet"] + (["--condition", condition] if condition else [])
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_commands_import_no_scipy(self, tmp_path):
        # scipy costs start-up time and memory in every process; no command needs it.
        # The first call freezes the start-up heap; later calls freeze nothing new
        # and the collector stays on.
        walk = str(SCENARIOS / "symmetric_walk.yaml")
        cert = str(tmp_path / "certificate_ra_lower_discounted.yaml")
        code = (
            "import gc, json, sys; from stochcert import cli\n"
            "codes, frozen = [], []\n"
            "for cmd in ('simulate', 'solve', 'estimate', 'assumption1', 'extract', 'verify',"
            " 'synthesize', 'report-all'):\n"
            "    codes.append(cli.main(['--scenario', %r, '--command', cmd, '--out', %r,"
            " '--certificate', %r, '--quiet']))\n"
            "    frozen.append(gc.get_freeze_count() if gc.isenabled() else None)\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(json.dumps([codes, scipy, frozen]))\n"
        ) % (walk, str(tmp_path), cert)
        codes, scipy, frozen = json.loads(_fresh_interpreter(code))
        assert codes == [0] * 8
        assert scipy == []
        assert frozen[0] > 0
        assert frozen == [frozen[0]] * 8

    @pytest.mark.parametrize("cls, base", [
        (dp.GridTooSmallError, RuntimeError),
        (dp.SingularSystemError, RuntimeError),
        (expr.EvalError, ArithmeticError),
        (certificate.CertificateError, RuntimeError),
        (synth.SimplexStalledError, RuntimeError),
        (synth.SynthesisInfeasibleError, RuntimeError),
    ])
    def test_numeric_failures_share_one_base(self, cls, base):
        # main maps NumericError to exit 4; the old base keeps other handlers matching
        assert issubclass(cls, expr.NumericError) and issubclass(cls, base)

    def test_numeric_failure_exit(self, tmp_path, capsys):
        doc = _walk_doc()
        # dynamics blow up at the node x1 = 1 when the kernel is built
        doc["system"]["dynamics"] = ["1/(x1 - 1) + 0*th1"]
        path = _write(tmp_path, doc)
        code = main(["--scenario", str(path), "--command", "solve", "--quiet"])
        assert code == EXIT_NUMERIC
        assert "division" in capsys.readouterr().err


def _fresh_interpreter(code: str) -> str:
    """stdout of ``python -c code`` run against this checkout's stochcert."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


_LOADED = "sorted(m for m in sys.modules if m.startswith('stochcert'))"
_CORE = ["stochcert", "stochcert.certificate", "stochcert.cli", "stochcert.dp",
         "stochcert.expr", "stochcert.model", "stochcert.regions"]

# the names the package exports, by submodule
_PUBLIC = {
    "certificate": ["ALL_KINDS", "Condition", "ConstCert", "GridCert", "PolyCert",
                    "best_threshold", "check_condition", "eval_cert", "extract_certificate",
                    "load_certificate", "save_certificate"],
    "dp": ["Grid", "TransitionKernel", "ValueField", "build_grid", "build_kernel",
           "check_assumption1", "eval_field", "solve_discounted", "solve_exact_small",
           "solve_reach_avoid", "solve_safety_exit"],
    "expr": ["parse_expr", "parse_predicate"],
    "mc": ["McEstimate", "estimate"],
    "model": ["DisturbanceDist", "SystemModel", "Trajectory", "quantize_gaussian",
              "quantize_uniform", "simulate", "step_batch"],
    "regions": ["Box", "RegionSpec", "StateClass", "classify_batch", "compute_omega",
                "validate_nesting"],
    "synth": ["LpProblem", "LpSolution", "Template", "simplex_solve", "synthesize"],
}


class TestStartUp:
    """Every command is a fresh process, so each imports only what it runs."""

    @pytest.mark.parametrize("command, extra", [
        ("simulate", []),
        ("solve", []),
        ("estimate", ["stochcert.mc"]),
        ("assumption1", []),
        ("extract", []),
        ("verify", []),
        ("synthesize", ["stochcert.synth"]),
        ("report-all", ["stochcert.mc", "stochcert.synth"]),
    ])
    def test_command_imports_only_its_modules(self, tmp_path, command, extra):
        walk = str(SCENARIOS / "symmetric_walk.yaml")
        cert = tmp_path / "certificate_ra_lower_discounted.yaml"
        if command == "verify":
            assert main(["--scenario", walk, "--command", "extract", "--out", str(tmp_path),
                         "--quiet"]) == EXIT_OK
        code = (
            "import json, sys; from stochcert import cli\n"
            "code = cli.main(['--scenario', %r, '--command', %r, '--out', %r,"
            " '--certificate', %r, '--quiet'])\n"
            "print(json.dumps([code, %s, 'dataclasses' in sys.modules]))\n"
        ) % (walk, command, str(tmp_path), str(cert), _LOADED)
        # records derive from expr.Record: dataclasses costs ~27 ms of start-up
        assert json.loads(_fresh_interpreter(code)) == [EXIT_OK, sorted(_CORE + extra), False]

    def test_bare_import_loads_no_submodule(self):
        code = "import json, sys, stochcert\nprint(json.dumps(%s))\n" % _LOADED
        assert json.loads(_fresh_interpreter(code)) == ["stochcert"]

    def test_public_names_resolve_to_submodule_objects(self):
        import importlib

        import stochcert

        assert sorted(stochcert.__all__) == sorted(n for names in _PUBLIC.values() for n in names)
        for sub, names in _PUBLIC.items():
            mod = importlib.import_module(f"stochcert.{sub}")
            for name in names:
                assert getattr(stochcert, name) is getattr(mod, name), name
        assert stochcert.__version__ == "0.1.0"
        with pytest.raises(AttributeError):
            stochcert.no_such_name
