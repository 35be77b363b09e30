"""Scenario loading, command dispatch, and report emission.

Scenarios are YAML files with nested blocks (system, regions, grid, mc,
check, thresholds); everything downstream is derived from them, seeds
included, so a command run twice produces identical output.  Each numeric
field is one row of the table ``_FIELDS``, which validation and the
construction of ``Scenario`` both read: a new setting is a new row there.
Exit codes: 0 success, 2 scenario validation error, 3 certificate rejected
by verify, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import certificate as cert_mod
# mc and synth are imported by the commands that run them, so others skip their import
from . import dp, model as model_mod, regions as regions_mod
from .certificate import (
    ALL_KINDS,
    KIND_RA_LOWER_A1,
    KINDS,
    YAML_LOADER,
    CertificateError,
    Condition,
    GridCert,
)
from .expr import ExprError, NumericError, Record, parse_expr, parse_predicate
from .model import DisturbanceDist, SystemModel
from .regions import RegionSpec, StateClass

__all__ = ["Scenario", "ScenarioError", "Report", "load_scenario", "run", "main"]

COMMANDS = (
    "simulate",
    "solve",
    "estimate",
    "verify",
    "extract",
    "synthesize",
    "assumption1",
    "report-all",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_REJECTED = 3
EXIT_NUMERIC = 4

_heap_frozen = False  # set by the first main() call of the process


class ScenarioError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class Scenario(Record):
    name: str
    system: SystemModel
    regions: RegionSpec
    x0s: np.ndarray  # (k, n)
    epsilon1: float
    epsilon2: float
    grid: dp.Grid
    gamma: float
    mc_horizon: int
    mc_trials: int
    mc_delta: float
    mc_seed: int
    tolerance: float
    extra_points: int
    point_seed: int
    warnings: list[str] = []


class Report(Record):
    command: str
    scenario: str
    sections: dict
    caveats: list[str] = []
    passed: bool = True

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "scenario": self.scenario,
                "passed": self.passed,
                "sections": self.sections,
                "caveats": self.caveats,
            },
            indent=2,
            default=_jsonable,
        )

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"scenario: {self.scenario}"]
        for title, body in self.sections.items():
            lines.append("")
            lines.append(f"[{title}]")
            lines.extend(_render(body, indent="  "))
        if self.caveats:
            lines.append("")
            lines.append("[caveats]")
            lines.extend(f"  - {c}" for c in self.caveats)
        lines.append("")
        lines.append(f"result: {'ok' if self.passed else 'FAILED'}")
        return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)


def _render(body, indent="") -> list[str]:
    lines = []
    if isinstance(body, dict):
        for key, val in body.items():
            if isinstance(val, (dict, list)) and val and not _is_scalar_list(val):
                lines.append(f"{indent}{key}:")
                lines.extend(_render(val, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_fmt(val)}")
    elif isinstance(body, list):
        for item in body:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_render(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_fmt(item)}")
    else:
        lines.append(f"{indent}{_fmt(body)}")
    return lines


def _is_scalar_list(val) -> bool:
    return isinstance(val, list) and all(not isinstance(x, (dict, list)) for x in val)


def _fmt(val) -> str:
    if isinstance(val, float):
        return f"{val:.9g}"
    if isinstance(val, np.ndarray):
        return np.array2string(val, precision=6)
    return str(val)


def _prob(value: float, method: str) -> dict:
    """A probability claim labeled with how it was obtained; values may carry
    solver noise of order 1e-12 which is clamped, anything worse is an error."""
    v = float(value)
    if not -1e-9 <= v <= 1.0 + 1e-9:
        raise ValueError(f"probability {v!r} outside [0, 1]")
    return {"value": min(max(v, 0.0), 1.0), "method": method}


# scenario loading -----------------------------------------------------


# a value's type, as its error message names it
_INT, _NUM, _NUMS = "an integer", "a number", "a list of numbers"


def _interval(text: str) -> tuple:
    """``"[lo, hi)"`` as (text, lo, hi, lo included, hi included)."""
    lo, hi = (2 ** int(end[2:]) if end[:2] == "2^" else float(end)
              for end in text[1:-1].split(", "))
    return text, lo, hi, text[0] == "[", text[-1] == "]"


_ANY, _COUNT = _interval("(-inf, inf)"), _interval("[1, inf)")

# One row per numeric scenario field: (block, key, attribute, type, default,
# allowed interval).  Block "" is the top level, None marks a required field,
# and the value fills the Scenario attribute (n, m and grid.* build the system
# and the grid).
_FIELDS = (
    ("system", "n", "n", _INT, None, _COUNT),
    ("system", "m", "m", _INT, None, _COUNT),
    ("grid", "lower", "lower", _NUMS, None, _ANY),
    ("grid", "upper", "upper", _NUMS, None, _ANY),
    ("grid", "cells", "cells", _NUMS, None, _COUNT),
    ("thresholds", "epsilon1", "epsilon1", _NUM, 0.0, _interval("[0, 1]")),
    ("thresholds", "epsilon2", "epsilon2", _NUM, 0.0, _interval("[0, 1]")),
    ("", "gamma", "gamma", _NUM, 0.5, _interval("[0, 1)")),
    ("mc", "horizon", "mc_horizon", _INT, None, _COUNT),
    ("mc", "trials", "mc_trials", _INT, None, _COUNT),
    ("mc", "delta", "mc_delta", _NUM, 0.05, _interval("(0, 1)")),
    ("mc", "seed", "mc_seed", _INT, 0, _interval("[0, 2^64)")),
    ("check", "tolerance", "tolerance", _NUM, 1e-6, _interval("(0, 1]")),
    ("check", "extra_points", "extra_points", _INT, 200, _interval("[0, inf)")),
    ("check", "point_seed", "point_seed", _INT, 1, _interval("[0, 2^64)")),
)

# system.disturbance kind -> (constructor, its required keys in argument
# order as (key, type, allowed interval)); finite atoms give one row per prob
# (one row when there is none, for DisturbanceDist to reject)
_DISTURBANCES = {
    "finite": (lambda atoms, probs: DisturbanceDist(atoms.reshape(len(probs) or 1, -1), probs),
               (("atoms", _NUMS, _ANY), ("probs", _NUMS, _interval("(0, 1]")))),
    "uniform": (model_mod.quantize_uniform,
                (("lo", _NUM, _ANY), ("hi", _NUM, _ANY), ("atoms", _INT, _COUNT))),
    "gaussian": (model_mod.quantize_gaussian,
                 (("mean", _NUM, _ANY), ("std", _NUM, _interval("(0, inf)")),
                  ("atoms", _INT, _COUNT))),
}


def _number(val, integer: bool):
    """``val`` as an int when ``integer``, else as a float; raises for a bool,
    for text that is no number and for a fraction where an integer is asked."""
    if isinstance(val, bool) or integer and not float(val).is_integer():
        raise ValueError(val)
    return (val if isinstance(val, int) else int(float(val))) if integer else float(val)


def _read(src: dict, key: str, desc: str, typ: str, default, interval, errors: list):
    """The field ``src[key]`` as ``typ``, or None after appending its one error;
    a list may also be given as rows of numbers, or as one number."""
    val = src.get(key, default)
    try:
        rows = val if typ == _NUMS and isinstance(val, list) else [val]
        nums = [_number(x, typ == _INT) for row in rows
                for x in (row if typ == _NUMS and isinstance(row, list) else [row])]
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{desc} must be {typ}")
        return None
    text, lo, hi, lo_in, hi_in = interval
    if not all((lo < v or lo_in and v == lo) and (v < hi or hi_in and v == hi) for v in nums):
        errors.append(f"{desc} must lie in {text}")
        return None
    return np.array(nums) if typ == _NUMS else nums[0]


def load_scenario(path) -> Scenario:
    """Parse and fully cross-validate a scenario file; raises ScenarioError
    carrying every problem found, at most one per field."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError([f"scenario file not found: {path}"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"cannot read scenario file {path}: {exc}"])
    try:
        raw = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"scenario parse error: {exc}"])
    if not isinstance(raw, dict):
        raise ScenarioError(["scenario file must contain a mapping"])

    errors: list[str] = []
    blocks = {"": raw}
    for block in ("system", "regions", "grid", "mc", "check", "thresholds"):
        blocks[block] = raw.get(block) or {}  # a block left out reports its required fields
        if not isinstance(blocks[block], dict):
            errors.append(f"malformed block: {block}")
            blocks[block] = {}
    values = {attr: _read(blocks[block], key, f"{block}.{key}" if block else key,
                          typ, default, interval, errors)
              for block, key, attr, typ, default, interval in _FIELDS}
    n, m = values.pop("n"), values.pop("m")
    box = values.pop("lower"), values.pop("upper"), values.pop("cells")

    dist, grid = None, None
    dist_block = blocks["system"].get("disturbance") or {}
    if not isinstance(dist_block, dict):
        errors.append("system.disturbance must be a mapping")
    elif dist_block.get("kind") not in _DISTURBANCES:
        errors.append(f"disturbance.kind must be {'/'.join(_DISTURBANCES)}, "
                      f"got {dist_block.get('kind')!r}")
    else:
        make, keys = _DISTURBANCES[dist_block["kind"]]
        args = [_read(dist_block, key, f"system.disturbance.{key}", typ, None, interval, errors)
                for key, typ, interval in keys]
        try:
            dist = make(*args) if all(arg is not None for arg in args) else None
        except ValueError as exc:
            errors.append(f"disturbance: {exc}")
    try:
        grid = dp.build_grid(*box) if all(v is not None for v in box) else None
    except ValueError as exc:
        errors.append(f"grid: {exc}")
    if n is None or m is None:  # every check below reads the dimensions
        raise ScenarioError(errors)

    if dist is not None and dist.m != m:
        errors.append(f"disturbance dimension {dist.m} != system.m = {m}")
    if grid is not None and grid.n != n:
        errors.append(f"grid dimension {grid.n} != system.n = {n}")
    dynamics = []
    dyn_src = blocks["system"].get("dynamics", [])
    if not isinstance(dyn_src, list) or len(dyn_src) != n:
        errors.append(f"system.dynamics must list {n} expressions")
    else:
        for i, text in enumerate(dyn_src):
            try:
                dynamics.append(parse_expr(str(text), n, m))
            except ExprError as exc:
                errors.append(f"dynamics[{i}]: {exc}")
    try:
        reg = RegionSpec(safe=parse_predicate(str(blocks["regions"].get("safe", "")), n),
                         target=parse_predicate(str(blocks["regions"].get("target", "")), n))
    except ExprError as exc:
        errors.append(f"regions: {exc}")
    try:  # each coordinate read like a table field's number
        coords = np.atleast_2d(np.asarray(
            raw.get("initial_states", raw.get("initial_state", [])), dtype=object))
        x0s = np.array([_number(x, False) for x in coords.ravel()]).reshape(coords.shape)
    except (TypeError, ValueError):
        x0s = np.empty((0, 0))
    if x0s.ndim != 2 or x0s.size == 0 or x0s.shape[1] != n or not np.isfinite(x0s).all():
        errors.append("initial_state must give one (or more) length-n state(s)")

    warnings: list[str] = []
    if not errors:
        system = SystemModel(n=n, m=m, dynamics=tuple(dynamics), dist=dist)
        rng = np.random.default_rng(values["point_seed"])
        samples = np.vstack([grid.nodes(), grid.box.inflate(0.2).sample(4000, rng)])
        nesting = regions_mod.validate_nesting(reg, samples)
        if not nesting.safe_seen:
            errors.append("safe set is empty over the sampled box")
        elif not nesting.passed:
            witness = nesting.witnesses[0].tolist()
            errors.append(f"target set not contained in safe set, witness {witness}")
        elif nesting.vacuous:
            warnings.append("target predicate is empty over the sampled box")
        outside = grid.box.inflate(0.5).sample(4000, rng)
        in_x = regions_mod.classify_batch(reg, outside) != int(StateClass.UNSAFE)
        stray = in_x & ~grid.box.contains(outside)
        if stray.any():
            witness = outside[stray][0].tolist()
            errors.append(f"safe set not contained in the grid box, witness {witness}")

    if errors:
        raise ScenarioError(errors)
    return Scenario(name=str(raw.get("name", path.stem)), system=system, regions=reg,
                    x0s=x0s, grid=grid, warnings=warnings, **values)


# shared pipeline pieces ------------------------------------------------


def _kernels(sc: Scenario):
    reach = dp.build_kernel(sc.system, sc.grid, sc.regions, dp.MODE_REACH_AVOID)
    safety = dp.build_kernel(sc.system, sc.grid, sc.regions, dp.MODE_SAFETY)
    return reach, safety


def _solve_fields(sc: Scenario, reach_kernel, safety_kernel) -> dict:
    return {
        "reach_avoid": dp.solve_reach_avoid(reach_kernel),
        "safety_exit": dp.solve_safety_exit(safety_kernel),
        "discounted": dp.solve_discounted(reach_kernel, sc.gamma),
        "discounted_exit": dp.solve_discounted(safety_kernel, sc.gamma),
        "gamma": sc.gamma,
        "regions": sc.regions,
        "assumption1": dp.check_assumption1(reach_kernel),
    }


def _omega(sc: Scenario, transient_only: bool) -> regions_mod.Box:
    """The sampled reachable-superset box; see regions.compute_omega."""
    rng = np.random.default_rng(sc.point_seed)
    samples = np.vstack([sc.grid.nodes(), sc.grid.box.sample(2000, rng)])
    return regions_mod.compute_omega(sc.system, sc.regions, samples,
                                     transient_only=transient_only)


def _threshold_verdicts(sc: Scenario, fields: dict) -> dict:
    """The scenario's verification questions answered from the DP fields at
    the worst initial state: a threshold is certified when every one clears it."""
    live = float(np.min(1.0 - dp.eval_field_batch(fields["safety_exit"], sc.x0s)))
    reach = float(np.min(dp.eval_field_batch(fields["reach_avoid"], sc.x0s)))
    return {
        "liveness": {"value": live, "epsilon1": sc.epsilon1,
                     "certified": bool(live >= sc.epsilon1), "method": "dp"},
        "reach_avoid": {"value": reach, "epsilon2": sc.epsilon2,
                        "certified": bool(reach >= sc.epsilon2), "method": "dp"},
    }


# commands --------------------------------------------------------------


def _cmd_simulate(sc: Scenario, out_dir: Path | None) -> Report:
    x0 = sc.x0s[0]
    traj = model_mod.simulate(sc.system, x0, sc.mc_horizon, sc.mc_seed)
    final_class = StateClass(regions_mod.classify_batch(sc.regions, traj.states[-1:])[0])
    section = {
        "x0": x0.tolist(),
        "steps": int(traj.states.shape[0] - 1),
        "final_state": traj.states[-1].tolist(),
        "final_class": final_class.name,
        "error": traj.error,
    }
    if out_dir:
        path = out_dir / "trajectory.csv"
        header = "step," + ",".join(f"x{d + 1}" for d in range(sc.system.n))
        data = np.column_stack([np.arange(traj.states.shape[0]), traj.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="")
        section["csv"] = str(path)
    return Report("simulate", sc.name, {"trajectory": section}, passed=not traj.error)


def _cmd_solve(sc: Scenario, out_dir: Path | None) -> Report:
    reach_kernel, safety_kernel = _kernels(sc)
    fields = _solve_fields(sc, reach_kernel, safety_kernel)
    sections: dict = {}
    caveats = [
        f"grid {sc.grid.cells.tolist()} cells over "
        f"[{sc.grid.lower.tolist()}, {sc.grid.upper.tolist()}]; values are for "
        "the discretized chain, fidelity is empirical"
    ]
    exact_ok = reach_kernel.n_transient <= dp.EXACT_NODE_LIMIT
    per_x0 = []
    for x0 in sc.x0s:
        per_x0.append({
            "x0": x0.tolist(),
            "reach_avoid": _prob(dp.eval_field(fields["reach_avoid"], x0), "dp"),
            "exit": _prob(dp.eval_field(fields["safety_exit"], x0), "dp"),
            "liveness": _prob(1.0 - dp.eval_field(fields["safety_exit"], x0), "dp"),
            f"discounted(gamma={sc.gamma:g})": _prob(
                dp.eval_field(fields["discounted"], x0), "dp"
            ),
        })
    sections["values"] = per_x0
    sections["thresholds"] = _threshold_verdicts(sc, fields)
    if exact_ok:
        try:
            exact = dp.solve_exact_small(reach_kernel)
            gap = float(np.max(np.abs(exact.values - fields["reach_avoid"].values)))
            sections["cross_check"] = {
                "exact_vs_iterative_sup_gap": gap,
                "iterations": fields["reach_avoid"].iterations,
            }
        except dp.SingularSystemError as exc:
            # mass can stay transient forever; the iterative least fixed
            # point is still the value function, only the oracle is unusable
            sections["cross_check"] = {"exact_solve": f"unavailable: {exc}"}
    sections["solver"] = {}
    for name in ("reach_avoid", "safety_exit", "discounted", "discounted_exit"):
        fld = fields[name]
        sections["solver"][name] = {"method": "prob0+bicgstab", "iterations": fld.iterations,
                                    "error_bound": fld.error_bound}
        if not fld.converged:
            caveats.append(f"{name}: solver error bound {fld.error_bound:.3g} "
                           "exceeds the requested tolerance; values are within that bound")
    if out_dir:
        for name in ("reach_avoid", "safety_exit", "discounted"):
            path = out_dir / f"field_{name}.csv"
            dp.field_to_csv(fields[name], path)
            sections.setdefault("csv", {})[name] = str(path)
    return Report("solve", sc.name, sections, caveats)


def _cmd_estimate(sc: Scenario) -> Report:
    from . import mc

    per_x0 = []
    for x0 in sc.x0s:
        live, reach = mc.estimate(sc.system, sc.regions, x0, sc.mc_horizon,
                                  sc.mc_trials, sc.mc_delta, sc.mc_seed)
        per_x0.append({
            "x0": x0.tolist(),
            "liveness": {**_prob(live.p_hat, "mc"), "half_width": live.half_width,
                         "direction": live.direction, "error": live.error},
            "reach_avoid": {**_prob(reach.p_hat, "mc"), "half_width": reach.half_width,
                            "direction": reach.direction, "error": reach.error},
        })
    caveats = [
        f"{sc.mc_trials} trials, horizon {sc.mc_horizon}, delta {sc.mc_delta:g}; "
        "finite-horizon estimates bracket the infinite-horizon probabilities "
        "(see direction notes)"
    ]
    return Report("estimate", sc.name, {"estimates": per_x0}, caveats, passed=not any(
        e["liveness"]["error"] or e["reach_avoid"]["error"] for e in per_x0))


def _cmd_assumption1(sc: Scenario) -> Report:
    reach_kernel = dp.build_kernel(sc.system, sc.grid, sc.regions, dp.MODE_REACH_AVOID)
    res = dp.check_assumption1(reach_kernel)
    section = {
        "holds": res.holds,
        "sup_stay_probability": res.sup_stay_prob,
        "iterations": res.iterations,
        "converged": res.converged,
    }
    return Report("assumption1", sc.name, {"assumption1": section})


def _extract_and_check(sc: Scenario, fields: dict, out_dir: Path | None,
                       only_kind: str | None) -> dict:
    """Extract a certificate per condition kind at its tight threshold, check
    it pointwise and, with ``out_dir``, save it.

    The undiscounted reach-avoid kind is skipped when the finite-time-exit
    check fails.  Omega and the check points are built once: every extracted
    certificate is a GridCert, so all share the node-plus-exterior point set.
    Returns kind -> (condition, check report, saved path or None).
    """
    kinds = [k for k in ([only_kind] if only_kind else ALL_KINDS)
             if k != KIND_RA_LOWER_A1 or fields["assumption1"].holds]
    if not kinds:
        raise CertificateError(
            f"extraction for {only_kind} unavailable "
            "(finite-time-exit assumption may have failed)"
        )
    omega = _omega(sc, transient_only=False)
    points = cert_mod.build_check_points(sc.grid, omega, sc.extra_points, sc.point_seed,
                                         interior_random=False)
    results = {}
    for kind in kinds:
        # the value function meets its condition with equality, so its values
        # at the initial states give the tightest threshold it supports at
        # all of them; kinds read from a discounted field carry the scenario's gamma
        name = KINDS[kind]["source"][0]
        tight = cert_mod.tight_threshold(kind, dp.eval_field_batch(fields[name], sc.x0s))
        gamma = sc.gamma if name.startswith("discounted") else None
        cert, w = cert_mod.extract_certificate(fields, kind), None
        if isinstance(cert, tuple):  # the pair kind's (v, w)
            cert, w = cert
        cond = Condition(kind, tight, gamma=gamma, omega=None if w is None else omega, w=w)
        rep = cert_mod.check_condition(sc.system, sc.regions, cert, cond,
                                       sc.x0s, points, sc.tolerance)
        path = None
        if out_dir:
            path = out_dir / f"certificate_{kind}.yaml"
            cert_mod.save_certificate(path, cond, cert)
        results[kind] = (cond, rep, path)
    return results


def _cmd_extract(sc: Scenario, out_dir: Path | None, only_kind: str | None) -> Report:
    reach_kernel, safety_kernel = _kernels(sc)
    fields = _solve_fields(sc, reach_kernel, safety_kernel)
    sections: dict = {}
    caveats = []
    if not fields["assumption1"].holds:
        caveats.append(
            "undiscounted reach-avoid extraction skipped: sup stay-probability "
            f"{fields['assumption1'].sup_stay_prob:.3g}"
        )
    for kind, (cond, rep, path) in _extract_and_check(sc, fields, out_dir, only_kind).items():
        sections[kind] = {
            "threshold": cond.epsilon,
            "gamma": cond.gamma,
            "self_check": "pass" if rep.passed else "FAIL",
            "min_slack": rep.min_slack,
            "method": "pointwise-check",
        }
        if path:
            sections[kind]["file"] = str(path)
    return Report("extract", sc.name, sections, caveats,
                  passed=all(v["self_check"] == "pass" for v in sections.values()))


def _cmd_verify(sc: Scenario, certificate_path: str | None, only_kind: str | None) -> Report:
    if not certificate_path:
        raise ScenarioError(["verify needs --certificate <file>"])
    try:
        cond, cert = cert_mod.load_certificate(certificate_path)
        if only_kind and only_kind != cond.kind:
            cond = cond.replace(kind=only_kind)
        for part, obj in (("function", cert), ("pair_w", cond.w), ("omega", cond.omega)):
            if obj is not None and obj.n not in (None, sc.system.n):
                raise ValueError(f"{part} has dimension {obj.n}, "
                                 f"but the scenario has system.n = {sc.system.n}")
    except (OSError, yaml.YAMLError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError([f"certificate {certificate_path}: {exc}"]) from exc
    points = cert_mod.build_check_points(sc.grid, _omega(sc, transient_only=False),
                                         sc.extra_points, sc.point_seed,
                                         interior_random=not isinstance(cert, GridCert))
    report = cert_mod.check_condition(sc.system, sc.regions, cert, cond,
                                      sc.x0s, points, sc.tolerance)
    section = {
        "kind": cond.kind,
        "threshold": cond.epsilon,
        "passed": report.passed,
        "method": "pointwise-check",
        "points": report.n_points,
        "clauses": [
            {"clause": c.name, "points": c.n_points, "min_slack": c.min_slack}
            for c in report.clauses
        ],
        "witnesses": [
            {"point": pt.tolist(), "clause": name, "lhs": lhs, "rhs": rhs}
            for pt, name, lhs, rhs in report.witnesses[:5]
        ],
    }
    return Report("verify", sc.name, {"verify": section},
                  caveats=report.caveats, passed=report.passed)


def _synth_points(sc: Scenario, kind: str) -> np.ndarray:
    """Sample points over the set reach-avoid trajectories can actually visit
    (images of X minus the target for the kinds whose expectation clause
    ranges over X minus the target), not the full one-step superset:
    unreachable unsafe samples would reject valid templates."""
    try:
        omega = _omega(sc, any(cls == "saf" for _, cls, _, _ in KINDS[kind]["clauses"]))
    except ValueError as exc:  # no sample in X \ X_r: the target covers X
        raise ScenarioError([f"synthesize {kind}: {exc}"]) from exc
    rng = np.random.default_rng(sc.point_seed + 1)
    count = max(sc.extra_points, 200)
    return omega.sample(count, rng)


def _cmd_synthesize(sc: Scenario, out_dir: Path | None, only_kind: str | None) -> Report:
    from . import synth

    kind = only_kind or KIND_RA_LOWER_A1
    template = synth.Template(n=sc.system.n, degree=1)
    gamma = sc.gamma if KINDS[kind]["gamma"] else None
    points = _synth_points(sc, kind)
    result = synth.synthesize(
        sc.system, sc.regions, kind, template, points, sc.x0s,
        tolerance=sc.tolerance, gamma=gamma, margin=0.01,
        revalidation_seed=sc.point_seed + 2,
    )
    section = {
        "kind": kind,
        "template_degree": template.degree,
        "coefficients": list(result.cert.coeffs),
        "threshold": result.threshold,
        "status": result.status,
        "lp_iterations": result.lp.iterations,
        "lp_rows": len(result.problem.rows),
        "lp_cols": result.problem.n_vars,
        "constraint_points": int(points.shape[0]),
    }
    caveats = list(result.report.caveats)
    if kind == KIND_RA_LOWER_A1:
        caveats.append("the undiscounted lower bound is sound only under the "
                       "finite-time-exit assumption; run assumption1")
    if out_dir:
        cert_path = out_dir / f"synthesized_{kind}.yaml"
        cert_mod.save_certificate(cert_path, Condition(kind, result.threshold, gamma=gamma),
                                  result.cert)
        lp_path = out_dir / "synthesis.lp.txt"
        lp_path.write_text(synth.lp_to_text(result.problem))
        section["file"] = str(cert_path)
        section["lp_dump"] = str(lp_path)
    return Report("synthesize", sc.name, {"synthesis": section}, caveats,
                  passed=result.status == "validated")


def _cmd_report_all(sc: Scenario, out_dir: Path | None) -> Report:
    from . import mc, synth

    reach_kernel, safety_kernel = _kernels(sc)
    fields = _solve_fields(sc, reach_kernel, safety_kernel)
    sections: dict = {}
    caveats: list[str] = []
    ok = True

    stay_reach = dp.stay_probability(reach_kernel, sc.mc_horizon)
    stay_live = dp.stay_probability(safety_kernel, sc.mc_horizon)
    agreement = []
    for x0 in sc.x0s:
        dp_reach = dp.eval_field(fields["reach_avoid"], x0)
        dp_live = 1.0 - dp.eval_field(fields["safety_exit"], x0)
        est_live, est_reach = mc.estimate(sc.system, sc.regions, x0, sc.mc_horizon,
                                          sc.mc_trials, sc.mc_delta, sc.mc_seed)
        slack_reach = float(np.clip(dp.eval_field(stay_reach, x0), 0.0, 1.0))
        slack_live = float(np.clip(dp.eval_field(stay_live, x0), 0.0, 1.0))
        reach_ok = abs(dp_reach - est_reach.p_hat) <= est_reach.half_width + slack_reach + 1e-9
        live_ok = abs(dp_live - est_live.p_hat) <= est_live.half_width + slack_live + 1e-9
        ok = ok and reach_ok and live_ok
        agreement.append({
            "x0": x0.tolist(),
            "reach_avoid": {"dp": dp_reach, "mc": est_reach.p_hat,
                            "half_width": est_reach.half_width,
                            "truncation_slack": slack_reach, "agree": reach_ok},
            "liveness": {"dp": dp_live, "mc": est_live.p_hat,
                         "half_width": est_live.half_width,
                         "truncation_slack": slack_live, "agree": live_ok},
        })
    sections["dp_vs_mc"] = agreement

    sections["thresholds"] = _threshold_verdicts(sc, fields)
    ok = ok and all(entry["certified"] for entry in sections["thresholds"].values())

    a1 = fields["assumption1"]
    sections["assumption1"] = {"holds": a1.holds, "sup_stay_probability": a1.sup_stay_prob}

    cert_section = {}
    for kind, (cond, rep, path) in _extract_and_check(sc, fields, out_dir, None).items():
        ok = ok and rep.passed
        cert_section[kind] = {
            "threshold": cond.epsilon,
            "check": "pass" if rep.passed else "FAIL",
            "min_slack": rep.min_slack,
            "points": rep.n_points,
            "method": "pointwise-check",
        }
        if path:
            cert_section[kind]["file"] = str(path)
    sections["certificates"] = cert_section
    if not a1.holds:
        caveats.append("undiscounted reach-avoid certificate skipped: "
                       "finite-time-exit assumption fails")

    try:
        synth_report = _cmd_synthesize(sc, out_dir, KIND_RA_LOWER_A1)
        sections["synthesis"] = synth_report.sections["synthesis"]
        ok = ok and synth_report.passed
    except synth.SynthesisInfeasibleError as exc:
        sections["synthesis"] = {"status": "infeasible", "detail": str(exc)}
    except synth.SimplexStalledError as exc:
        sections["synthesis"] = {"status": "stalled", "detail": str(exc)}
        ok = False
    except ScenarioError as exc:
        sections["synthesis"] = {"status": "skipped", "detail": str(exc)}

    caveats.append("certificate checks are pointwise: validated on the listed "
                   "point sets, not proven over all states")
    if sc.warnings:
        caveats.extend(sc.warnings)
    return Report("report-all", sc.name, sections, caveats, passed=ok)


def run(command: str, scenario: Scenario, certificate: str | None = None,
        condition: str | None = None, out_dir: str | None = None) -> Report:
    """Dispatch one command against a loaded scenario."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    if condition is not None and condition not in ALL_KINDS:
        raise ScenarioError([f"unknown condition kind {condition!r}, "
                             f"expected one of {', '.join(ALL_KINDS)}"])
    if command == "synthesize" and condition is not None:
        from . import synth

        if condition not in synth.SYNTH_KINDS:
            raise ScenarioError([f"synthesize cannot take condition kind {condition!r}, "
                                 f"expected one of {', '.join(synth.SYNTH_KINDS)}"])
    out_path = Path(out_dir) if out_dir else None
    if out_path:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError([f"--out {out_path}: {exc}"])
    if command == "simulate":
        return _cmd_simulate(scenario, out_path)
    if command == "solve":
        return _cmd_solve(scenario, out_path)
    if command == "estimate":
        return _cmd_estimate(scenario)
    if command == "assumption1":
        return _cmd_assumption1(scenario)
    if command == "extract":
        return _cmd_extract(scenario, out_path, condition)
    if command == "verify":
        return _cmd_verify(scenario, certificate, condition)
    if command == "synthesize":
        return _cmd_synthesize(scenario, out_path, condition)
    return _cmd_report_all(scenario, out_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochcert",
        description="Verify safety and reach-avoid properties of stochastic "
                    "discrete-time systems.",
    )
    parser.add_argument("--scenario", required=True, help="scenario YAML file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--certificate", help="certificate file (verify)")
    parser.add_argument("--condition", help="condition kind "
                        f"({', '.join(ALL_KINDS)})")
    parser.add_argument("--out", help="directory for CSV/report/certificate output")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout")
    args = parser.parse_args(argv)
    # Once per process, move the start-up heap (the imported modules, mostly)
    # to the collector's permanent generation: the command's collections and
    # the one at interpreter exit then skip it.  Later in-process calls
    # freeze nothing new.  A flag, not gc.get_freeze_count(), which walks
    # every frozen object.
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True

    try:
        scenario = load_scenario(args.scenario)
        report = run(args.command, scenario, certificate=args.certificate,
                     condition=args.condition, out_dir=args.out)
    except ScenarioError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    if args.out:
        out_path = Path(args.out)  # run() made it
        (out_path / "report.txt").write_text(report.to_text())
        (out_path / "report.json").write_text(report.to_json())
    if not args.quiet:
        print(report.to_text(), end="")

    if report.passed:
        return EXIT_OK
    return EXIT_REJECTED if args.command == "verify" else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
