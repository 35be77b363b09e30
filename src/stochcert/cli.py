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
import math
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
from .expr import EvalError, ExprError, NumericError, Record, parse_expr, parse_predicate
from .model import DisturbanceDist, SystemModel
from .regions import RegionSpec, StateClass

__all__ = ["Scenario", "ScenarioError", "Report", "load_scenario", "run", "main"]

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
            _jsonable({
                "command": self.command,
                "scenario": self.scenario,
                "passed": self.passed,
                "sections": self.sections,
                "caveats": self.caveats,
            }),
            indent=2,
            allow_nan=False,
            default=str,
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
    """``obj`` with numpy values as Python ones and a non-finite float as
    None, which RFC 8259 JSON has no Infinity or NaN for."""
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


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
        # a block left out, or null, reports its required fields
        blocks[block] = {} if raw.get(block) is None else raw[block]
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
        grid = dp.Grid(*box) if all(v is not None for v in box) else None
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


def _solve_fields(sc: Scenario) -> dict:
    """The DP stage: both kernels, the four value fields, the finite-time-exit
    check, and ``at_x0s``: each field read at all of ``sc.x0s`` once."""
    reach = dp.build_kernel(sc.system, sc.grid, sc.regions, dp.MODE_REACH_AVOID)
    safety = dp.build_kernel(sc.system, sc.grid, sc.regions, dp.MODE_SAFETY)
    fields = {
        "reach_avoid": dp.solve_reach_avoid(reach),
        "safety_exit": dp.solve_safety_exit(safety),
        "discounted": dp.solve_discounted(reach, sc.gamma),
        "discounted_exit": dp.solve_discounted(safety, sc.gamma),
    }
    return {
        **fields,
        "at_x0s": {name: dp.eval_field_batch(fld, sc.x0s) for name, fld in fields.items()},
        "gamma": sc.gamma,
        "regions": sc.regions,
        "assumption1": dp.check_assumption1(reach),
        "reach_kernel": reach,
        "safety_kernel": safety,
    }


def _omega(sc: Scenario, grid_form: bool) -> tuple[dict, dict]:
    """The one Omega rule: condition kind -> the box its clauses are checked
    on, and kind -> its check points; extract, verify and the re-validation
    in synthesize all take theirs from here.

    Omega is the box over the samples in X and their one-step images from one
    start set: the samples in X \\ X_r when the kind has a clause over that
    class, since its process stops on X_r (Prajna, Jadbabaie & Pappas, IEEE
    TAC 2007), and the samples in X otherwise.  The check points are one
    build_check_points call over the box from X, which holds every kind's
    box, cut to each kind's box; ``grid_form`` leaves out the random points
    inside the grid box, for grid certificates.
    """
    rng = np.random.default_rng(sc.point_seed)
    samples = np.vstack([sc.grid.nodes(), sc.grid.box.sample(2000, rng)])
    over_x, over_transient = regions_mod.compute_omega(sc.system, sc.regions, samples)
    omega = {kind: over_transient if any(cls == "saf" for _, cls, _, _ in spec["clauses"])
             else over_x for kind, spec in KINDS.items()}
    points = cert_mod.build_check_points(sc.grid, over_x, sc.extra_points, sc.point_seed,
                                         interior_random=not grid_form)
    return omega, {kind: points[box.contains(points)] for kind, box in omega.items()}


def _threshold_verdicts(sc: Scenario, fields: dict) -> dict:
    """The scenario's verification questions answered from the DP fields at
    the worst initial state: a threshold is certified when every one clears it."""
    live = float(np.min(1.0 - fields["at_x0s"]["safety_exit"]))
    reach = float(np.min(fields["at_x0s"]["reach_avoid"]))
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
    fields = _solve_fields(sc)
    sections: dict = {}
    caveats = [
        f"grid {sc.grid.cells.tolist()} cells over "
        f"[{sc.grid.lower.tolist()}, {sc.grid.upper.tolist()}]; values are for "
        "the discretized chain, fidelity is empirical"
    ]
    at = fields["at_x0s"]
    sections["values"] = [{
        "x0": x0.tolist(),
        "reach_avoid": _prob(reach, "dp"),
        "exit": _prob(exit_, "dp"),
        "liveness": _prob(1.0 - exit_, "dp"),
        f"discounted(gamma={sc.gamma:g})": _prob(discounted, "dp"),
    } for x0, reach, exit_, discounted in zip(sc.x0s, at["reach_avoid"], at["safety_exit"],
                                              at["discounted"])]
    sections["thresholds"] = _threshold_verdicts(sc, fields)
    if fields["reach_kernel"].n_transient <= dp.EXACT_NODE_LIMIT:
        try:
            exact = dp.solve_exact_small(fields["reach_kernel"])
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


def _unmet(kind: str, fields: dict) -> str | None:
    """The caveat that skips ``kind`` where the DP ``fields`` were solved: the
    finite-time-exit assumption its KINDS entry names fails there; else None."""
    a1 = fields["assumption1"]
    if "assumption1" not in KINDS[kind] or a1.holds:
        return None
    return (f"{kind} skipped: the finite-time-exit assumption fails "
            f"(sup stay-probability {a1.sup_stay_prob:.3g})")


def _extract_and_check(sc: Scenario, fields: dict, out_dir: Path | None,
                       only_kind: str | None) -> tuple[dict, list[str]]:
    """Extract a certificate per condition kind at its tight threshold, check
    it pointwise and, with ``out_dir``, save it.

    A kind whose prerequisite fails is skipped with its ``_unmet`` caveat, or,
    asked for alone, refused with a CertificateError.  Omega and the check
    points are built once: every extracted certificate is a GridCert, so each
    kind takes its cut of one grid point set.  Returns kind -> (condition,
    check report, saved path or None), and the caveats.
    """
    unmet = {kind: _unmet(kind, fields) for kind in ([only_kind] if only_kind else ALL_KINDS)}
    if unmet.get(only_kind):
        raise CertificateError(unmet[only_kind])
    _, points = _omega(sc, grid_form=True)
    results = {}
    for kind in (kind for kind, reason in unmet.items() if not reason):
        # the value function meets its condition with equality, so its values
        # at the initial states give the tightest threshold it supports at
        # all of them
        name = KINDS[kind]["source"][0]
        tight = cert_mod.tight_threshold(kind, fields["at_x0s"][name])
        gamma = sc.gamma if KINDS[kind]["gamma"] else None
        cert = cert_mod.extract_certificate(fields, kind)
        cert, w = cert if kind in cert_mod.PAIR_KINDS else (cert, None)
        cond = Condition(kind, tight, gamma=gamma, w=w)
        rep = cert_mod.check_condition(sc.system, sc.regions, cert, cond,
                                       sc.x0s, points[kind], sc.tolerance)
        path = None
        if out_dir:
            path = out_dir / f"certificate_{kind}.yaml"
            cert_mod.save_certificate(path, cond, cert)
        results[kind] = (cond, rep, path)
    return results, [reason for reason in unmet.values() if reason]


def _cmd_extract(sc: Scenario, out_dir: Path | None, only_kind: str | None) -> Report:
    sections: dict = {}
    results, caveats = _extract_and_check(sc, _solve_fields(sc), out_dir, only_kind)
    for kind, (cond, rep, path) in results.items():
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
        for part, obj in (("function", cert), ("pair_w", cond.w)):
            if obj is not None and obj.n not in (None, sc.system.n):
                raise ValueError(f"{part} has dimension {obj.n}, "
                                 f"but the scenario has system.n = {sc.system.n}")
    except (OSError, yaml.YAMLError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError([f"certificate {certificate_path}: {exc}"]) from exc
    _, points = _omega(sc, isinstance(cert, GridCert))
    report = cert_mod.check_condition(sc.system, sc.regions, cert, cond,
                                      sc.x0s, points[cond.kind], sc.tolerance)
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


def _cmd_synthesize(sc: Scenario, out_dir: Path | None, only_kind: str | None) -> Report:
    from . import synth

    kind = only_kind or KIND_RA_LOWER_A1
    template = synth.Template(n=sc.system.n, degree=1)
    gamma = sc.gamma if KINDS[kind]["gamma"] else None
    # the LP's rows sample the kind's Omega; the winner is re-validated on
    # the points that verify checks its file on
    omega, checks = _omega(sc, grid_form=False)
    rng = np.random.default_rng(sc.point_seed + 1)
    points = omega[kind].sample(max(sc.extra_points, 200), rng)
    try:
        result = synth.synthesize(
            sc.system, sc.regions, kind, template, points, sc.x0s, checks[kind],
            tolerance=sc.tolerance, gamma=gamma, margin=0.01,
        )
    except EvalError as exc:  # an initial state that cannot be classified, say
        section = {"status": "error", "detail": str(exc)}
        return Report("synthesize", sc.name, {"synthesis": section}, passed=False)
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
    if out_dir:
        cert_path = out_dir / f"synthesized_{kind}.yaml"
        cert_mod.save_certificate(cert_path, Condition(kind, result.threshold, gamma=gamma),
                                  result.cert)
        lp_path = out_dir / "synthesis.lp.txt"
        lp_path.write_text(synth.lp_to_text(result.problem))
        section["file"] = str(cert_path)
        section["lp_dump"] = str(lp_path)
    return Report("synthesize", sc.name, {"synthesis": section}, result.report.caveats,
                  passed=result.status == "validated")


def _cmd_report_all(sc: Scenario, out_dir: Path | None) -> Report:
    from . import mc, synth

    # the first initial state's trials run beside the stages up to synthesis
    mc_args = (sc.mc_horizon, sc.mc_trials, sc.mc_delta, sc.mc_seed)
    pending = mc.start_estimate(sc.system, sc.regions, sc.x0s[0], *mc_args)
    try:
        fields = _solve_fields(sc)
        sections: dict = {"dp_vs_mc": []}
        ok = True

        # per question: DP values at the initial states, and the truncation slack
        # (the chain's mass still transient after the horizon, clipped against rounding)
        dp_values = {"reach_avoid": fields["at_x0s"]["reach_avoid"],
                     "liveness": 1.0 - fields["at_x0s"]["safety_exit"]}
        slack = {name: np.clip(dp.eval_field_batch(dp.stay_probability(
            fields[kernel], sc.mc_horizon), sc.x0s), 0.0, 1.0) for name, kernel in (
            ("reach_avoid", "reach_kernel"), ("liveness", "safety_kernel"))}

        sections["thresholds"] = _threshold_verdicts(sc, fields)
        ok = ok and all(entry["certified"] for entry in sections["thresholds"].values())

        a1 = fields["assumption1"]
        sections["assumption1"] = {"holds": a1.holds, "sup_stay_probability": a1.sup_stay_prob}

        cert_section = {}
        results, skipped = _extract_and_check(sc, fields, out_dir, None)
        for kind, (cond, rep, path) in results.items():
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

        # a kind skipped for its prerequisite is not synthesized, and that fails no run
        skip = _unmet(KIND_RA_LOWER_A1, fields)
        try:
            if skip:
                sections["synthesis"] = {"status": "skipped", "detail": skip}
            else:
                synth_report = _cmd_synthesize(sc, out_dir, KIND_RA_LOWER_A1)
                sections["synthesis"] = synth_report.sections["synthesis"]
                ok = ok and synth_report.passed
        except synth.SynthesisInfeasibleError as exc:
            sections["synthesis"] = {"status": "infeasible", "detail": str(exc)}
        except synth.SimplexStalledError as exc:
            sections["synthesis"] = {"status": "stalled", "detail": str(exc)}
            ok = False
    except BaseException:
        pending.kill()
        raise

    caveats: list[str] = []
    for i, x0 in enumerate(sc.x0s):
        est_live, est_reach = mc.estimate(sc.system, sc.regions, x0, *mc_args) if i else pending()
        row = {"x0": x0.tolist()}
        for name, est in (("reach_avoid", est_reach), ("liveness", est_live)):
            value, slack_x0 = float(dp_values[name][i]), float(slack[name][i])
            # an aborted pass counts nothing, so its p_hat agrees with no value
            agree = est.error is None and (
                abs(value - est.p_hat) <= est.half_width + slack_x0 + 1e-9)
            if est.error is not None:
                caveats.append(f"x0 {x0.tolist()}: Monte Carlo {name} estimate failed: "
                               f"{est.error}")
            ok = ok and agree
            row[name] = {"dp": value, "mc": est.p_hat, "half_width": est.half_width,
                         "truncation_slack": slack_x0, "agree": agree}
        sections["dp_vs_mc"].append(row)

    caveats += [*skipped, "certificate checks are pointwise: validated on the listed "
                "point sets, not proven over all states"]
    return Report("report-all", sc.name, sections, caveats, passed=ok)


# command -> its runner, given (scenario, output directory, certificate
# file, condition kind)
_RUNNERS = {
    "simulate": lambda sc, out, cert, kind: _cmd_simulate(sc, out),
    "solve": lambda sc, out, cert, kind: _cmd_solve(sc, out),
    "estimate": lambda sc, out, cert, kind: _cmd_estimate(sc),
    "verify": lambda sc, out, cert, kind: _cmd_verify(sc, cert, kind),
    "extract": lambda sc, out, cert, kind: _cmd_extract(sc, out, kind),
    "synthesize": lambda sc, out, cert, kind: _cmd_synthesize(sc, out, kind),
    "assumption1": lambda sc, out, cert, kind: _cmd_assumption1(sc),
    "report-all": lambda sc, out, cert, kind: _cmd_report_all(sc, out),
}
COMMANDS = tuple(_RUNNERS)


def run(command: str, scenario: Scenario, certificate: str | None = None,
        condition: str | None = None, out_dir: str | None = None) -> Report:
    """Dispatch one command against a loaded scenario; its report carries the
    scenario's warnings last among its caveats."""
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
    report = _RUNNERS[command](scenario, out_path, certificate, condition)
    report.caveats = report.caveats + scenario.warnings
    return report


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
