import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from stochcert import certificate, cli, dp, expr, mc, regions, synth
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
TWO_STARTS_DISC = Path(__file__).resolve().parent / "disc_walk_two_starts.yaml"
# the finite-time-exit assumption fails there: the state never moves
STUCK_WALK = Path(__file__).resolve().parent / "stuck_walk.yaml"
A1_CAVEAT = certificate.KINDS["ra_lower_a1"]["assumption1"]


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
        (None, "gamma", 2.0, "gamma must lie in (0, 1)"),
        ("grid", "upper", ["x"], "grid.upper must be a list of numbers"),
        ("system", "disturbance", {"kind": "finite", "atoms": [["a"], [1.0]], "probs": [0.5, 0.5]},
         "system.disturbance.atoms must be a list of numbers"),
        ("system", "disturbance", {"kind": "uniform", "lo": -1.0, "hi": 1.0, "atoms": 2.5},
         "system.disturbance.atoms must be an integer"),
        ("mc", "horizon", True, "mc.horizon must be an integer"),
        ("system", "n", True, "system.n must be an integer"),
        (None, "initial_state", [True], "initial_state must give"),
        (None, "check", 0, "malformed block: check"),
        (None, "gamma", 0.0, "gamma must lie in (0, 1)"),
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
        assert report.sections["cross_check"]["within_error_bound"] is True
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

    @pytest.mark.parametrize("path", [*sorted(SCENARIOS.glob("*.yaml")), TWO_STARTS_DISC],
                             ids=lambda path: path.stem)
    def test_every_synthesized_file_verifies(self, tmp_path, path):
        # synthesize re-validates on the points verify checks, so every file
        # it writes as validated passes verify
        sc = load_scenario(path)
        for kind in synth.SYNTH_KINDS:
            out = tmp_path / kind
            try:
                synthesized = run("synthesize", sc, condition=kind, out_dir=out)
            except synth.SynthesisInfeasibleError:
                continue
            if synthesized.passed:
                verify = run("verify", sc, certificate=str(out / f"synthesized_{kind}.yaml"))
                assert verify.passed, f"{path.name} {kind}: {verify.to_text()}"

    def test_verify_checks_the_scenario_omega_not_the_file_one(self, tmp_path):
        # the file's Omega box holds no check point; on the scenario's Omega
        # v = 1 exceeds E[w o f] - w = 0 on X \ X_r, and the claimed
        # reach-avoid 0.99 from x0 = 3 is far above the DP value 0.3
        cert_file = tmp_path / "pair.yaml"
        cert_file.write_text(
            "kind: ra_lower_pair\n"
            "epsilon: 0.99\n"
            "gamma: null\n"
            "function: {representation: constant, value: 1.0}\n"
            "omega: {lower: [3.2], upper: [3.2000001]}\n"
            "pair_w: {representation: constant, value: 0.0}\n")
        code = main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"), "--command",
                     "verify", "--certificate", str(cert_file), "--quiet"])
        assert code == EXIT_REJECTED

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

    def test_target_covering_safe_set_synthesizes_on_x(self, tmp_path):
        # with X_r = X, X \ X_r is empty and the reach-avoid Omega is X: every
        # start is in the target, so the constant 0.99 is validated
        doc = _walk_doc()
        doc["regions"]["target"] = doc["regions"]["safe"]
        scenario = str(_write(tmp_path, doc))
        out = tmp_path / "synth"
        code = main(["--scenario", scenario, "--command", "synthesize",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        synthesis = json.loads((out / "report.json").read_text())["sections"]["synthesis"]
        assert synthesis["threshold"] == pytest.approx(0.99)
        assert main(["--scenario", scenario, "--command", "verify", "--certificate",
                     str(out / "synthesized_ra_lower_a1.yaml"), "--quiet"]) == EXIT_OK
        out = tmp_path / "out"
        code = main(["--scenario", scenario, "--command", "report-all",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        sections = json.loads((out / "report.json").read_text())["sections"]
        assert sections["synthesis"]["status"] == "validated"
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

    def test_a1_extraction_refused_without_assumption(self, capsys):
        code = main(["--scenario", str(STUCK_WALK), "--command", "extract",
                     "--condition", "ra_lower_a1", "--quiet"])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error: ra_lower_a1 skipped: the finite-time-exit assumption fails "
            "(sup stay-probability 1)\n")

    def test_report_all_bundled(self, tmp_path):
        for name in ("symmetric_walk", "biased_walk", "invariant_contraction"):
            sc = load_scenario(SCENARIOS / f"{name}.yaml")
            report = run("report-all", sc, out_dir=tmp_path / name)
            assert report.passed, f"{name}: {report.to_text()}"
            for entry in report.sections["dp_vs_mc"]:
                assert entry["reach_avoid"]["agree"] and entry["liveness"]["agree"]

    def test_report_all_never_agrees_with_a_failed_estimate(self, tmp_path):
        # the walk divides by zero on reaching 3.5, so every Monte Carlo pass
        # aborts, while the grid nodes never reach it and the DP values stand
        doc = _walk_doc()
        doc["system"]["dynamics"] = ["x1 + th1 + 0 * (1 / (x1 - 3.5))"]
        doc["initial_state"] = [0.5]
        sc = load_scenario(_write(tmp_path, doc))
        assert run("estimate", sc).sections["estimates"][0]["liveness"]["error"] == (
            "division by zero")
        report = run("report-all", sc)
        row = report.sections["dp_vs_mc"][0]
        # 6.7e-16 against the aborted pass's 0 once read as agreeing
        assert not row["liveness"]["agree"] and not row["reach_avoid"]["agree"]
        assert ("x0 [0.5]: Monte Carlo liveness estimate failed: division by zero"
                in report.caveats)

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
        # one omega for the certificate checks and the synthesis samples, and
        # one point set, whose node-form rows the grid certificates take
        assert calls["compute_omega"] == 1
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


class TestPrerequisites:
    """A kind whose KINDS entry names the finite-time-exit assumption is
    extracted and synthesized only where it holds, and every check of it
    carries the caveat."""

    def test_report_all_skips_synthesis_without_assumption(self, tmp_path):
        report = run("report-all", load_scenario(STUCK_WALK), out_dir=tmp_path)
        skip = ("ra_lower_a1 skipped: the finite-time-exit assumption fails "
                "(sup stay-probability 1)")
        assert report.sections["synthesis"] == {"status": "skipped", "detail": skip}
        assert "ra_lower_a1" not in report.sections["certificates"]
        assert not list(tmp_path.glob("*ra_lower_a1*"))
        assert report.passed
        assert report.caveats[0] == skip
        assert run("extract", load_scenario(STUCK_WALK)).caveats == [skip]

    def test_synthesize_and_verify_carry_the_caveat(self, tmp_path):
        # synthesize does not decide the assumption: its certificate is
        # validated on the sampled points, and both reports say what it rests on
        sc = load_scenario(STUCK_WALK)
        synthesized = run("synthesize", sc, condition="ra_lower_a1", out_dir=tmp_path)
        assert synthesized.sections["synthesis"]["status"] == "validated"
        assert synthesized.caveats.count(A1_CAVEAT) == 1
        verified = run("verify", sc, certificate=str(tmp_path / "synthesized_ra_lower_a1.yaml"))
        assert verified.passed
        assert verified.caveats.count(A1_CAVEAT) == 1

    def test_only_the_prerequisite_kind_carries_the_caveat(self, tmp_path):
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        run("extract", sc, out_dir=tmp_path)
        for path in sorted(tmp_path.glob("certificate_*.yaml")):
            caveats = run("verify", sc, certificate=str(path)).caveats
            assert (A1_CAVEAT in caveats) == (path.stem == "certificate_ra_lower_a1")


class TestScenarioWarnings:
    def test_every_command_reports_an_empty_target(self, tmp_path):
        doc = _walk_doc()
        doc["regions"]["target"] = "x1 > 20"
        doc["mc"].update(horizon=50, trials=200)
        sc = load_scenario(_write(tmp_path, doc))
        warning = "target predicate is empty over the sampled box"
        assert sc.warnings == [warning]
        run("extract", sc, out_dir=tmp_path / "extract")
        cert_file = str(tmp_path / "extract" / "certificate_safety_lower.yaml")
        for command in cli.COMMANDS:
            # the default kind's linear template is infeasible without a target
            condition = "unsafe_reach_upper" if command == "synthesize" else None
            report = run(command, sc, certificate=cert_file, condition=condition)
            assert report.caveats[-1] == warning, command
            assert report.caveats.count(warning) == 1, command


class TestStartStateError:
    @staticmethod
    def _run(tmp_path, command) -> tuple[int, dict]:
        # the safe predicate divides by zero at x0 = 3.5 alone, which no grid
        # node or sampled point hits
        doc = _walk_doc()
        doc["regions"]["safe"] = "x1 > 0 && x1 < 11 && 0 * (1 / (x1 - 3.5)) < 1"
        doc["initial_state"] = [3.5]
        doc["mc"].update(horizon=50, trials=200)
        out = tmp_path / command
        code = main(["--scenario", str(_write(tmp_path, doc)), "--command", command,
                     "--out", str(out), "--quiet"])
        return code, json.loads((out / "report.json").read_text())

    def test_synthesize_reports_the_error(self, tmp_path):
        code, report = self._run(tmp_path, "synthesize")
        assert code == EXIT_NUMERIC and not report["passed"]
        assert report["sections"] == {"synthesis": {"status": "error",
                                                    "detail": "division by zero"}}

    def test_estimate_fails_on_both_outcomes(self, tmp_path):
        code, report = self._run(tmp_path, "estimate")
        assert code == EXIT_NUMERIC
        est = report["sections"]["estimates"][0]
        assert est["liveness"]["error"] == est["reach_avoid"]["error"] == "division by zero"

    @pytest.mark.parametrize("command", ["extract", "report-all"])
    def test_certificates_fail_at_the_start_and_the_report_stands(self, tmp_path, command):
        code, report = self._run(tmp_path, command)
        assert code == EXIT_NUMERIC and not report["passed"]
        if command == "extract":
            verdicts = [entry["self_check"] for entry in report["sections"].values()]
        else:
            verdicts = [entry["check"] for entry in report["sections"]["certificates"].values()]
            assert report["sections"]["synthesis"] == {"status": "error",
                                                       "detail": "division by zero"}
        assert len(verdicts) == 6 and set(verdicts) == {"FAIL"}

    def test_report_all_row_does_not_agree(self, monkeypatch):
        # only the Monte Carlo start classification fails, so the row is seen
        # apart from the certificate checks, which classify x0 too
        from stochcert import mc

        classify = mc.classify_batch
        calls = []

        def failing_start(regions_, xs):
            calls.append(len(xs))
            if len(calls) == 1:
                raise expr.EvalError("division by zero")
            return classify(regions_, xs)

        monkeypatch.setattr(mc, "classify_batch", failing_start)
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml")
        sc = sc.replace(mc_trials=200, mc_horizon=50)
        report = run("report-all", sc)
        assert calls[0] == 1
        row = report.sections["dp_vs_mc"][0]
        assert not row["liveness"]["agree"] and not row["reach_avoid"]["agree"]
        assert not report.passed


class TestStages:
    """Each command computes each stage it reads once, and no stage it
    does not read."""

    COUNTED = ((dp, "step_operator"), (dp, "build_kernel"), (dp, "check_assumption1"),
               (regions, "compute_omega"), (certificate, "build_check_points"),
               (mc, "start_estimate"))
    # calls of each counted function on the symmetric walk from two initial
    # states: one Monte Carlo pass per state, and one step operator at the
    # nodes, from which both kernels are cut, and one at the grid check points
    CALLS = {
        "simulate": (0, 0, 0, 0, 0, 0),
        "solve": (1, 2, 0, 0, 0, 0),
        "estimate": (0, 0, 0, 0, 0, 2),
        "verify": (1, 0, 0, 1, 1, 0),
        "extract": (2, 2, 1, 1, 1, 0),
        "synthesize": (0, 0, 0, 1, 1, 0),
        "assumption1": (1, 1, 1, 0, 0, 0),
        "report-all": (2, 2, 1, 1, 1, 2),
    }

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_each_stage_runs_once(self, tmp_path, monkeypatch, command):
        sc = load_scenario(_write(tmp_path, _two_starts_doc())).replace(mc_trials=200,
                                                                          mc_horizon=50)
        run("extract", sc, out_dir=tmp_path)
        calls = []
        for module, name in self.COUNTED:
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        run(command, sc, certificate=str(tmp_path / "certificate_ra_lower_a1.yaml"))
        assert tuple(calls.count(name) for _, name in self.COUNTED) == self.CALLS[command]


class TestReportAllOverlap:
    """``report-all`` forks the first initial state's Monte Carlo blocks
    before its DP stage and leaves no child behind, whatever happens."""

    @staticmethod
    def record(monkeypatch, build_kernel=dp.build_kernel) -> list[str]:
        from stochcert import mc

        events, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                events.append("fork")
            return pid

        def recording(name, fn):
            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(mc, "MIN_BLOCK", 1)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(mc.os, "fork", recording_fork)
        # the DP stage starts with the step operator at the nodes
        monkeypatch.setattr(dp, "step_operator", recording("step_operator", dp.step_operator))
        monkeypatch.setattr(dp, "build_kernel", recording("build_kernel", build_kernel))
        return events

    def test_blocks_fork_before_the_dp_stage(self, monkeypatch):
        events = self.record(monkeypatch)
        sc = load_scenario(SCENARIOS / "symmetric_walk.yaml").replace(mc_trials=200,
                                                                      mc_horizon=50)
        report = run("report-all", sc)
        assert events[:4] == ["fork", "fork", "step_operator", "build_kernel"]
        assert events.count("fork") == 2
        assert report.sections["dp_vs_mc"][0]["reach_avoid"]["agree"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_left_when_the_dp_stage_raises(self, monkeypatch, capsys):
        def too_small(*args):
            raise dp.GridTooSmallError("safe image left the grid box")

        events = self.record(monkeypatch, too_small)
        code = main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"),
                     "--command", "report-all", "--quiet"])
        assert code == EXIT_NUMERIC
        assert "error: safe image left the grid box" in capsys.readouterr().err
        assert events == ["fork", "fork", "step_operator", "build_kernel"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
        monkeypatch.setattr(cli, "Run", lambda *args: pytest.fail("solve ran"))
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
    ], ids=["ra_discounted_without_gamma", "liveness_discounted_without_gamma", "no_function",
            "no_kind", "no_epsilon", "unknown_kind", "unknown_representation",
            "function_not_mapping", "pair_w_not_mapping", "ragged_exponents",
            "polynomial_of_other_dimension", "grid_of_other_dimension",
            "pair_w_of_other_dimension"])
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

    @pytest.mark.parametrize("command, flag, message", [
        ("solve", ["--certificate", "nothing.yaml"], "--certificate is read only by verify"),
        ("extract", ["--certificate", "nothing.yaml"], "--certificate is read only by verify"),
        ("report-all", ["--condition", "safety_lower"],
         "--condition is read only by extract, verify and synthesize"),
        ("estimate", ["--condition", "ra_lower_a1"],
         "--condition is read only by extract, verify and synthesize"),
    ])
    def test_flag_a_command_does_not_read_is_refused(self, tmp_path, capsys, command, flag,
                                                     message):
        argv = ["--scenario", str(SCENARIOS / "symmetric_walk.yaml"), "--command", command,
                "--out", str(tmp_path / "out"), "--quiet", *flag]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

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
            " '--quiet'] + (['--certificate', %r] if cmd == 'verify' else [])))\n"
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


def test_readme_library_example(capsys):
    readme = (SCENARIOS.parent / "README.md").read_text()
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) == pytest.approx(0.3, abs=1e-9)


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
                    "check_condition", "eval_cert_batch", "extract_certificate",
                    "load_certificate", "save_certificate"],
    "dp": ["Grid", "TransitionKernel", "ValueField", "build_kernel", "check_assumption1",
           "eval_field_batch", "solve_discounted", "solve_exact_small", "solve_reach_avoid",
           "solve_safety_exit"],
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
        argv = ["--scenario", walk, "--command", command, "--out", str(tmp_path), "--quiet"]
        if command == "verify":
            argv += ["--certificate", str(cert)]
        code = (
            "import json, sys; from stochcert import cli\n"
            "code = cli.main(%r)\n"
            "print(json.dumps([code, %s, 'dataclasses' in sys.modules]))\n"
        ) % (argv, _LOADED)
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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_outputs_independent_of_blas_threads_and_cpus(tmp_path):
    """``solve`` and ``report-all`` on the 150x150 disc walk write the same
    bytes with one BLAS thread pinned to one CPU as with two threads: from
    this size up, a threaded BLAS inner product would move the last bits.
    Fewer trials keep the run short; the Monte Carlo split is independent of
    the CPU count on its own (TestExactCounts)."""
    doc = yaml.safe_load(TWO_STARTS_DISC.read_text())
    doc["grid"]["cells"] = [150, 150]
    doc["mc"]["trials"] = 2000
    scenario = tmp_path / "disc150.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    cpu = min(os.sched_getaffinity(0))

    def outputs(threads: int, pin: bool) -> dict:
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": src}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        files = {}
        for command in ("solve", "report-all"):
            done = subprocess.run(
                [sys.executable, "-m", "stochcert.cli", "--scenario", str(scenario),
                 "--command", command, "--out", command], cwd=cwd, env=env,
                capture_output=True, timeout=300,
                preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None)
            files[command, "exit"] = done.returncode
            files[command, "stdout"], files[command, "stderr"] = done.stdout, done.stderr
            for path in sorted((cwd / command).iterdir()):
                files[command, path.name] = path.read_bytes()
        return files

    one, two = outputs(1, pin=True), outputs(2, pin=False)
    assert one[("solve", "exit")] == 0 and len(one) == len(two)
    for key in one:
        assert one[key] == two[key], key


class TestAbsorbingStart:
    """A start state in an absorbing class reads each field's fixed value
    there, as the kernel and the extracted certificates do: reach-avoid 1 on
    the target and 0 off X, exit 1 off X, and no truncation slack."""

    @pytest.mark.parametrize("path, x0, reach", [
        (SCENARIOS / "symmetric_walk.yaml", [10.5], 1.0),  # in the target
        (TWO_STARTS_DISC, [0.99, 0.2], 0.0),  # unsafe
        (TWO_STARTS_DISC, [0.1, 0.12], 1.0),  # in the target
    ])
    def test_report_all_reads_the_fixed_value(self, path, x0, reach):
        sc = load_scenario(path).replace(x0s=np.array([x0]), mc_trials=2000, mc_horizon=50)
        report = run("report-all", sc)
        row = report.sections["dp_vs_mc"][0]
        assert row["reach_avoid"]["dp"] == reach == row["reach_avoid"]["mc"]
        assert row["reach_avoid"]["truncation_slack"] == 0.0 and row["reach_avoid"]["agree"]
        if not reach:
            assert row["liveness"]["dp"] == 0.0 == row["liveness"]["truncation_slack"]
        checks = report.sections["certificates"]
        assert len(checks) == 6 and {entry["check"] for entry in checks.values()} == {"pass"}


def test_verify_on_a_finer_grid_keeps_its_verdicts(tmp_path):
    # a file is checked on its own 12-cell grid and pins, whatever the grid
    # of the scenario it is verified against
    assert main(["--scenario", str(SCENARIOS / "symmetric_walk.yaml"), "--command", "extract",
                 "--out", str(tmp_path), "--quiet"]) == EXIT_OK
    doc = _walk_doc()
    doc["grid"]["cells"] = [24]
    finer = _write(tmp_path, doc, "finer.yaml")
    codes = {kind: main(["--scenario", str(finer), "--command", "verify", "--quiet",
                         "--certificate", str(tmp_path / f"certificate_{kind}.yaml")])
             for kind in ("ra_lower_a1", "safety_lower")}
    assert codes == {"ra_lower_a1": EXIT_REJECTED, "safety_lower": EXIT_OK}
