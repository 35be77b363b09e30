"""Tests of the benchmark's own code: self-time arithmetic, the oracle's
closed forms, failure counting and the tracer's name patching.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import Invocation  # noqa: E402

SCENARIOS = HERE.parent / "scenarios"


def span(name, start, end, parent, info=None):
    return [name, start, end, parent, info]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("dp.build_kernel", 1.0, 4.0, 0),
        span("regions.classify_batch", 2.0, 3.0, 1),
        span("dp.solve_safety_exit", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_sum_self_time_and_count_mc_rows():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("mc.estimate_liveness", 1.0, 5.0, 0),
        span("model.step_batch", 2.0, 3.0, 1, {"rows": 100}),
        span("model.step_batch", 6.0, 7.0, 0, {"rows": 7}),  # not under mc
        span("dp.solve_safety_exit", 7.0, 9.0, 0, {"sweeps": 12}),
    ]
    m = tracing.layer_metrics(spans, untraced_s=9.5, traced_s=10.0)
    assert m["mc.estimate_s"] == pytest.approx(3.0)
    assert m["model.step_batch_s"] == pytest.approx(2.0)
    assert m["model.step_batch_rows"] == 107
    assert m["mc.trial_steps"] == 100
    assert m["mc.trial_steps_per_s"] == pytest.approx(100 / 4.0)
    assert m["dp.solve_safety_exit_s"] == pytest.approx(2.0)
    assert m["dp.sweeps"] == 12
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["trace_overhead_s"] == pytest.approx(0.5)


def test_unreported_helper_folds_into_caller_of_its_own_module():
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("dp.solve_safety_exit", 1.0, 9.0, 0),
        span("dp.apply_bellman", 2.0, 8.0, 1),  # folds into the solve
        span("dp.eval_field", 9.0, 9.5, 0),  # no dp caller: its own bucket
    ]
    owned = tracing.owned_times(spans)
    assert owned == pytest.approx({"cli.main": 1.5, "dp.solve_safety_exit": 8.0,
                                   "dp.eval_field": 0.5})
    m = tracing.layer_metrics(spans, untraced_s=10.0, traced_s=10.0)
    assert m["dp.solve_safety_exit_s"] == pytest.approx(8.0)
    assert m["cli.self_s"] == pytest.approx(1.5)


@pytest.mark.parametrize("name, reach_avoid, exit_value", [
    ("symmetric_walk", 3 / 10, 1.0),
    ("biased_walk", (1 - (2 / 3) ** 3) / (1 - (2 / 3) ** 10), 1.0),
    ("invariant_contraction", 1.0, 0.0),  # singular exit chain: nothing can leave X
])
def test_oracle_reproduces_closed_forms(name, reach_avoid, exit_value):
    ref = oracle.reference(oracle.load(SCENARIOS / f"{name}.yaml"))
    assert ref.dp["reach_avoid"] == pytest.approx(reach_avoid, abs=1e-12)
    assert ref.dp["exit"] == pytest.approx(exit_value, abs=1e-12)


def _solve_report(ref, tmp_path):
    values = {"reach_avoid": ref.dp["reach_avoid"], "exit": ref.dp["exit"],
              "liveness": 1.0 - ref.dp["exit"], "discounted(gamma=0.5)": ref.dp["discounted"]}
    report = {"sections": {
        "values": [{k: {"value": v, "method": "dp"} for k, v in values.items()}],
        "thresholds": {"liveness": {"certified": True}, "reach_avoid": {"certified": True}},
        "cross_check": {"exact_vs_iterative_sup_gap": 0.0},
    }}
    (tmp_path / "report.json").write_text(json.dumps(report))
    return report


def test_injected_wrong_value_is_one_failure(tmp_path):
    ref = oracle.reference(oracle.load(SCENARIOS / "symmetric_walk.yaml"))
    inv = Invocation("symmetric_walk/solve", "scenarios/symmetric_walk.yaml", "solve",
                     str(tmp_path))
    report = _solve_report(ref, tmp_path)
    recorded = checks.verdicts(inv, 0, report)
    assert all(c.ok for c in checks.check_invocation(inv, 0, ref, recorded))

    report["sections"]["values"][0]["reach_avoid"]["value"] += 2e-9
    (tmp_path / "report.json").write_text(json.dumps(report))
    failed = [c.name for c in checks.check_invocation(inv, 0, ref, recorded) if not c.ok]
    assert failed == ["values.reach_avoid"]

    failed = [c.name for c in checks.check_invocation(inv, 4, ref, recorded) if not c.ok]
    assert failed == ["values.reach_avoid", "exit_code"]


def test_known_miss_is_bounded_and_kept_apart_from_passes(tmp_path):
    ref = oracle.reference(oracle.load(SCENARIOS / "symmetric_walk.yaml"))
    inv = Invocation("symmetric_walk/solve", "scenarios/symmetric_walk.yaml", "solve",
                     str(tmp_path))
    report = _solve_report(ref, tmp_path)
    recorded = checks.verdicts(inv, 0, report)
    report["sections"]["values"][0]["liveness"]["value"] += 1.07e-8
    (tmp_path / "report.json").write_text(json.dumps(report))

    # on a scenario without a known miss the error fails as usual
    failed = [c.name for c in checks.check_invocation(inv, 0, ref, recorded) if not c.ok]
    assert failed == ["values.liveness"]

    disc = dataclasses.replace(ref, name="disc-walk-2d")
    results = {c.name: c for c in checks.check_invocation(inv, 0, disc, recorded)}
    assert all(c.ok for c in results.values())
    assert [n for n, c in results.items() if c.known] == ["values.liveness"]

    report["sections"]["values"][0]["liveness"]["value"] += 1e-9  # past the bound
    (tmp_path / "report.json").write_text(json.dumps(report))
    failed = [c.name for c in checks.check_invocation(inv, 0, disc, recorded) if not c.ok]
    assert failed == ["values.liveness"]


def test_missing_report_fails_every_value_check(tmp_path):
    ref = oracle.reference(oracle.load(SCENARIOS / "symmetric_walk.yaml"))
    inv = Invocation("symmetric_walk/solve", "scenarios/symmetric_walk.yaml", "solve",
                     str(tmp_path))
    results = checks.check_invocation(inv, 0, ref, None)
    assert results and not any(c.ok for c in results)


def test_install_patches_every_binding_and_uninstall_restores():
    import stochcert
    from stochcert import certificate, dp, mc, regions, synth

    original = regions.classify_batch
    spec = regions.RegionSpec(*_walk_predicates())
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, stochcert)
    try:
        for mod in (regions, dp, mc, certificate, synth):
            assert mod.classify_batch is not original
            assert mod.classify_batch.__wrapped__ is original
        dp.classify_batch(spec, [[3.0], [10.5], [12.0]])
    finally:
        tracing.uninstall(undo)
    assert all(m.classify_batch is original for m in (regions, dp, mc, certificate, synth))
    names = [s[0] for s in tracer.spans]
    assert names[0] == "regions.classify_batch"
    assert tracer.spans[0][4] == {"rows": 3}
    assert "expr.eval_predicate_batch" in names


def _walk_predicates():
    from stochcert.expr import parse_predicate

    return parse_predicate("x1 > 0 && x1 < 11", 1), parse_predicate("x1 >= 10 && x1 < 11", 1)


def test_benchmark_json_lists_every_traced_metric_and_workload():
    import run
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = tracing.layer_metrics([span("cli.main", 0.0, 1.0, -1)], 1.0, 1.0)
    assert set(listed) == set(traced) | {"dp.max_abs_err"}
    assert all(listed[name] == run.layer_unit(name) for name in listed)
