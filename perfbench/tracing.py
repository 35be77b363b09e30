"""Traced in-process run: spans around every public function of stochcert.

Each public function of the eight modules is wrapped, and the wrapper is
bound under every name that refers to the function in any stochcert module
(``classify_batch``, for one, is imported by name into dp, mc, certificate
and synth).  A span records (name, start, end, parent, info); spans stay in
memory and are written out when the run ends.  ``info`` holds the counts a
few functions report (rows stepped, sweeps, LP sizes, ...).

Run as a child of ``run.py``: a warm-up pass of ``cli.main`` calls, the
same pass untraced, then traced.  The difference of the last two wall times
is the tracing overhead; the outputs left on disk are the traced pass's.

    PYTHONPATH=src python3 perfbench/tracing.py --workload walks1d-all --seed 1 --work DIR
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import workloads

MODULES = ("cli", "dp", "mc", "certificate", "synth", "regions", "model", "expr")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span[4] = _run_hook(hook, sig, name, args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced


def _run_hook(hook, sig, name, args, kwargs, result):
    try:
        return hook(sig.bind(*args, **kwargs).arguments, result)
    except (AttributeError, KeyError, TypeError) as exc:
        print(f"trace: no counts from {name}: {exc}", file=sys.stderr)
        return None


def _rows(value) -> int:
    return int(np.atleast_2d(np.asarray(value)).shape[0])


# counts recorded per call: fn(bound arguments, result) -> info dict
HOOKS = {
    "dp.build_kernel": lambda a, r: {"transient": int(r.n_transient), "nnz": int(r.P.nnz)},
    "dp.solve_reach_avoid": lambda a, r: {"sweeps": int(r.iterations)},
    "dp.solve_safety_exit": lambda a, r: {"sweeps": int(r.iterations)},
    "dp.solve_discounted": lambda a, r: {"sweeps": int(r.iterations)},
    "dp.check_assumption1": lambda a, r: {"sweeps": int(r.iterations)},
    "model.step_batch": lambda a, r: {"rows": _rows(a["xs"])},
    "regions.classify_batch": lambda a, r: {"rows": _rows(a["xs"])},
    "certificate.check_condition": lambda a, r: {"points": _rows(a["points"]),
                                                 "passed": bool(r.passed)},
    "synth.simplex_solve": lambda a, r: {"rows": len(a["problem"].rows),
                                         "cols": int(a["problem"].n_vars),
                                         "iterations": int(r.iterations),
                                         "optimal": r.status == "optimal"},
}


def install(tracer: Tracer, package) -> list[tuple[object, str, object]]:
    """Wrap every public function of the traced modules under every name
    bound to it; returns (module, name, original) triples for ``uninstall``."""
    mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
    namespaces = [package, *mods.values()]
    undo = []
    for short, mod in mods.items():
        for fname, fn in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{fname}"
            wrapper = tracer.wrap(name, fn, HOOKS.get(name))
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        undo.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
    return undo


def uninstall(undo) -> None:
    for ns, attr, fn in reversed(undo):
        setattr(ns, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans are single-threaded and strictly nested, so the children of one
    span never overlap and their durations can simply be summed."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# time metrics and the functions whose self time they sum
TIME_METRICS = {
    "dp.solve_safety_exit_s": ("dp.solve_safety_exit",),
    "dp.solve_reach_avoid_s": ("dp.solve_reach_avoid",),
    "dp.solve_discounted_s": ("dp.solve_discounted",),
    "dp.check_assumption1_s": ("dp.check_assumption1",),
    "dp.build_kernel_s": ("dp.build_kernel",),
    "dp.solve_exact_small_s": ("dp.solve_exact_small",),
    "mc.estimate_s": ("mc.estimate_liveness", "mc.estimate_reach_avoid"),
    "synth.synthesize_s": ("synth.synthesize",),
    "synth.simplex_solve_s": ("synth.simplex_solve",),
    "certificate.check_condition_s": ("certificate.check_condition",),
    "certificate.extract_certificate_s": ("certificate.extract_certificate",),
    "certificate.build_check_points_s": ("certificate.build_check_points",),
    "certificate.save_certificate_s": ("certificate.save_certificate",),
    "certificate.load_certificate_s": ("certificate.load_certificate",),
    "regions.compute_omega_s": ("regions.compute_omega",),
    "regions.classify_batch_s": ("regions.classify_batch",),
    "regions.validate_nesting_s": ("regions.validate_nesting",),
    "model.step_batch_s": ("model.step_batch",),
    "expr.eval_expr_batch_s": ("expr.eval_expr_batch",),
    "expr.eval_predicate_batch_s": ("expr.eval_predicate_batch",),
    "expr.parse_s": ("expr.parse_expr", "expr.parse_predicate"),
    "cli.load_scenario_s": ("cli.load_scenario",),
    "cli.self_s": ("cli.main", "cli.run"),
}
_REPORTED = {fn for fns in TIME_METRICS.values() for fn in fns}


def owned_times(spans) -> dict[str, float]:
    """Self time per function, where a function that no metric names folds
    into its caller when both belong to one module (``dp.apply_bellman``
    into the solve that runs it, for one)."""
    own = self_times(spans)
    owner = [""] * len(spans)
    totals: dict[str, float] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        owner[i] = name
        if name not in _REPORTED and parent >= 0:
            up = owner[parent]
            if up.split(".", 1)[0] == name.split(".", 1)[0]:
                owner[i] = up
        totals[owner[i]] = totals.get(owner[i], 0.0) + own[i]
    return totals


def layer_metrics(spans, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    owned = owned_times(spans)
    calls: dict[str, int] = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1

    def info(name, key):
        return [s[4][key] for s in spans if s[0] == name and s[4]]

    # rows stepped under an mc span, and the inclusive time of outermost mc spans
    under_mc = [False] * len(spans)
    trial_steps, mc_wall = 0, 0.0
    for i, (name, start, end, parent, data) in enumerate(spans):
        in_mc = name.startswith("mc.")
        inherited = parent >= 0 and under_mc[parent]
        under_mc[i] = in_mc or inherited
        if in_mc and not inherited:
            mc_wall += end - start
        if name == "model.step_batch" and inherited and data:
            trial_steps += data["rows"]

    sweeps = sum(sum(info(n, "sweeps")) for n in (
        "dp.solve_reach_avoid", "dp.solve_safety_exit", "dp.solve_discounted",
        "dp.check_assumption1"))
    lp_calls = calls.get("synth.simplex_solve", 0)
    checks = calls.get("certificate.check_condition", 0)
    metrics = {name: sum(owned.get(fn, 0.0) for fn in fns)
               for name, fns in TIME_METRICS.items()}
    metrics.update({
        "dp.sweeps": sweeps,
        "dp.build_kernel_calls": calls.get("dp.build_kernel", 0),
        "dp.transient_nodes": max(info("dp.build_kernel", "transient"), default=0),
        "dp.P_nnz": max(info("dp.build_kernel", "nnz"), default=0),
        "mc.trial_steps": trial_steps,
        "mc.trial_steps_per_s": trial_steps / mc_wall if mc_wall else 0.0,
        "synth.lp_rows": sum(info("synth.simplex_solve", "rows")),
        "synth.lp_cols": sum(info("synth.simplex_solve", "cols")),
        "synth.lp_iterations": sum(info("synth.simplex_solve", "iterations")),
        "synth.lp_optimal_ratio": (sum(info("synth.simplex_solve", "optimal")) / lp_calls
                                   if lp_calls else 0.0),
        "certificate.check_points": sum(info("certificate.check_condition", "points")),
        "certificate.pass_ratio": (sum(info("certificate.check_condition", "passed")) / checks
                                   if checks else 0.0),
        "regions.compute_omega_calls": calls.get("regions.compute_omega", 0),
        "regions.classify_batch_rows": sum(info("regions.classify_batch", "rows")),
        "model.step_batch_rows": sum(info("model.step_batch", "rows")),
        "trace_overhead_s": traced_s - untraced_s,
    })
    return metrics


def run_pass(main, workload) -> tuple[float, list]:
    """Run one pass through ``main`` in-process; returns its wall time and
    the (invocation, exit code) pairs."""
    ran, wall = [], 0.0
    for inv in workload.passes():
        shutil.rmtree(inv.out, ignore_errors=True)
        start = time.perf_counter()
        code = main(inv.argv() + ["--quiet"])
        wall += time.perf_counter() - start
        ran.append((inv, code))
    return wall, ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced in-process pass of one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    import stochcert
    from stochcert import cli

    wl = workloads.prepare(args.workload, args.seed, Path(args.work))
    run_pass(cli.main, wl)  # warm-up: lazy imports, first-touch memory
    untraced_s, _ = run_pass(cli.main, wl)
    tracer = Tracer()
    undo = install(tracer, stochcert)
    try:
        traced_s, ran = run_pass(cli.main, wl)
    finally:
        uninstall(undo)

    work = Path(args.work)
    (work / "spans.json").write_text(json.dumps(tracer.spans))
    result = {
        "metrics": layer_metrics(tracer.spans, untraced_s, traced_s),
        "ran": [[asdict(inv), code] for inv, code in ran],
        "spans": len(tracer.spans),
    }
    (work / "trace.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
