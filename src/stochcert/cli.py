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
from .regions import Box, RegionSpec, StateClass

__all__ = ["Scenario", "ScenarioError", "Report", "Run", "load_scenario", "run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_REJECTED = 3
EXIT_NUMERIC = 4

_heap_frozen = False  # set by the first main() call of the process
_FLAG_READERS = {"certificate": ("verify",), "condition": ("extract", "verify", "synthesize")}


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
    ("", "gamma", "gamma", _NUM, 0.5, _interval("(0, 1)")),
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


# the run context -------------------------------------------------------


class Run(Record):
    """One command's work on a loaded scenario.  Its stages, the entries of
    ``_STAGES``, read as attributes: each is computed on first use and kept,
    so no stage runs twice however many sections read it."""

    sc: Scenario
    out_dir: Path | None = None
    certificate: str | None = None
    condition: str | None = None

    def __getattr__(self, name: str):
        if name not in _STAGES:
            raise AttributeError(f"Run has no stage {name!r}")
        value = self.__dict__[name] = _STAGES[name](self)
        return value

    def unmet(self, kind: str) -> str | None:
        """The caveat that skips ``kind``: the finite-time-exit assumption its
        KINDS entry names fails; else None."""
        if "assumption1" not in KINDS[kind] or self.assumption1.holds:
            return None
        return (f"{kind} skipped: the finite-time-exit assumption fails "
                f"(sup stay-probability {self.assumption1.sup_stay_prob:.3g})")


def _omega(r: Run) -> tuple[dict, Box]:
    """The one Omega rule: condition kind -> the box its clauses are checked
    on, and the box from X, which holds them all.

    Omega is the box over the samples in X and their one-step images from one
    start set: the samples in X \\ X_r when the kind has a clause over that
    class, since its process stops on X_r (Prajna, Jadbabaie & Pappas, IEEE
    TAC 2007), and the samples in X otherwise.
    """
    sc = r.sc
    rng = np.random.default_rng(sc.point_seed)
    samples = np.vstack([sc.grid.nodes(), sc.grid.box.sample(2000, rng)])
    over_x, over_transient = regions_mod.compute_omega(sc.system, sc.regions, samples)
    return {kind: over_transient if any(cls == "saf" for _, cls, _, _ in spec["clauses"])
            else over_x for kind, spec in KINDS.items()}, over_x


def _check_points(r: Run) -> tuple[np.ndarray, np.ndarray, dict]:
    """The check points of the one build_check_points call over the box from
    X, their node-form mask, which grid certificates are checked on, and
    kind -> the mask of those in its box."""
    sc, (omega, over_x) = r.sc, r.omega
    points, node_form = cert_mod.build_check_points(sc.grid, over_x, sc.extra_points,
                                                    sc.point_seed)
    return points, node_form, {kind: box.contains(points) for kind, box in omega.items()}


def _start_estimate(r: Run, x0):
    """``mc.start_estimate``'s collector of the (liveness, reach-avoid) pair
    at ``x0``."""
    from . import mc

    sc = r.sc
    return mc.start_estimate(sc.system, sc.regions, x0, sc.mc_horizon, sc.mc_trials,
                             sc.mc_delta, sc.mc_seed)


def _extract_and_check(r: Run) -> tuple[dict, list[str]]:
    """Kind -> (condition, check report, saved path or None) of a certificate
    per condition kind, or for the run's condition alone, at its tight
    threshold, and the caveats of the kinds skipped: a kind whose prerequisite
    fails is skipped, or, asked for alone, refused with a CertificateError."""
    sc = r.sc
    unmet = {kind: r.unmet(kind) for kind in ([r.condition] if r.condition else ALL_KINDS)}
    if unmet.get(r.condition):
        raise CertificateError(unmet[r.condition])
    points, node_form, in_omega = r.check_points
    points = points[node_form]  # the grid certificates' rows
    in_x = regions_mod.classify_batch(sc.regions, points) != int(StateClass.UNSAFE)
    # one step operator at the node-form check points in X, the only ones
    # where a clause reads a one-step mean, for every kind
    op = dp.step_operator(sc.system, sc.grid, sc.regions, points[in_x], strict=False)
    results = {}
    for kind in (kind for kind, reason in unmet.items() if not reason):
        # the value function meets its condition with equality, so its values
        # at the initial states give the tightest threshold it supports at
        # all of them
        name = KINDS[kind]["source"][0]
        tight = cert_mod.tight_threshold(kind, r.at_x0s[name])
        gamma = sc.gamma if KINDS[kind]["gamma"] else None
        cert = cert_mod.extract_certificate({**r.fields, "gamma": sc.gamma,
                                             "regions": sc.regions}, kind)
        cert, w = cert if kind in cert_mod.PAIR_KINDS else (cert, None)
        cond = Condition(kind, tight, gamma=gamma, w=w)
        rows = in_omega[kind][node_form]
        rep = cert_mod.check_condition(sc.system, sc.regions, cert, cond, sc.x0s,
                                       points[rows], sc.tolerance, op.rows(rows[in_x]))
        path = None
        if r.out_dir:
            path = r.out_dir / f"certificate_{kind}.yaml"
            cert_mod.save_certificate(path, cond, cert)
        results[kind] = (cond, rep, path)
    return results, [reason for reason in unmet.values() if reason]


def _synthesize(r: Run) -> tuple:
    """(condition at threshold 0, template, LP sample points, result) of
    ``synth.synthesize`` for the run's condition, or ra_lower_a1: the LP's
    rows sample the kind's Omega, and the winner is re-validated on the
    points that verify checks its file on."""
    from . import synth

    sc = r.sc
    kind = r.condition or KIND_RA_LOWER_A1
    template = synth.Template(n=sc.system.n, degree=1)
    cond = Condition(kind, 0.0, gamma=sc.gamma if KINDS[kind]["gamma"] else None)
    rng = np.random.default_rng(sc.point_seed + 1)
    points = r.omega[0][kind].sample(max(sc.extra_points, 200), rng)
    checks, _, in_omega = r.check_points
    return cond, template, points, synth.synthesize(
        sc.system, sc.regions, kind, template, points, sc.x0s, checks[in_omega[kind]],
        tolerance=sc.tolerance, gamma=cond.gamma, margin=0.01,
    )


def _kernel(r: Run, mode: str, other: str) -> dp.TransitionKernel:
    """The kernel of ``mode``, cut from the step operator at the nodes; the
    operator is dropped once the ``other`` kernel is cut too, so that it does
    not add to the peak memory of the stages after."""
    kernel = dp.build_kernel(*r.chain, mode)
    if other in vars(r):
        del r.__dict__["chain"]
    return kernel


# stage -> its function of the scenario and the stages before it
_STAGES = {
    # the step operator at the nodes in X, from which both kernels are cut
    "chain": lambda r: dp.node_operator(r.sc.system, r.sc.grid, r.sc.regions),
    "reach_kernel": lambda r: _kernel(r, dp.MODE_REACH_AVOID, "safety_kernel"),
    "safety_kernel": lambda r: _kernel(r, dp.MODE_SAFETY, "reach_kernel"),
    "assumption1": lambda r: dp.check_assumption1(r.reach_kernel),
    "fields": lambda r: {
        "reach_avoid": dp.solve_reach_avoid(r.reach_kernel),
        "safety_exit": dp.solve_safety_exit(r.safety_kernel),
        "discounted": dp.solve_discounted(r.reach_kernel, r.sc.gamma),
        "discounted_exit": dp.solve_discounted(r.safety_kernel, r.sc.gamma),
    },
    # -1 for a start state that cannot be classified, which reads the interpolant
    "x0_class": lambda r: dp.classify_lenient(r.sc.regions, r.sc.x0s),
    "at_x0s": lambda r: {name: dp.eval_field_batch(fld, r.sc.x0s, r.x0_class)
                         for name, fld in r.fields.items()},
    "omega": _omega,
    "check_points": _check_points,
    # the first initial state's trials, which report-all starts before its
    # other stages
    "first_trials": lambda r: _start_estimate(r, r.sc.x0s[0]),
    # the estimates at each initial state, one after another, so no more
    # blocks are alive at once than CPUs
    "estimates": lambda r: [r.first_trials()] + [_start_estimate(r, x0)()
                                                 for x0 in r.sc.x0s[1:]],
    "extracted": _extract_and_check,
    "synthesized": _synthesize,
}


# section writers -------------------------------------------------------
#
# Each reads one Run and returns (sections, caveats, passed): the sections it
# adds to the report, its caveats, and whether its verdicts pass.


def _trajectory(r: Run):
    sc = r.sc
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
    if r.out_dir:
        path = r.out_dir / "trajectory.csv"
        header = "step," + ",".join(f"x{d + 1}" for d in range(sc.system.n))
        data = np.column_stack([np.arange(traj.states.shape[0]), traj.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="")
        section["csv"] = str(path)
    return {"trajectory": section}, [], not traj.error


def _thresholds(r: Run):
    """The scenario's verification questions answered from the DP fields at
    the worst initial state: a threshold is certified when every one clears it."""
    sc = r.sc
    live = float(np.min(1.0 - r.at_x0s["safety_exit"]))
    reach = float(np.min(r.at_x0s["reach_avoid"]))
    verdicts = {
        "liveness": {"value": live, "epsilon1": sc.epsilon1,
                     "certified": bool(live >= sc.epsilon1), "method": "dp"},
        "reach_avoid": {"value": reach, "epsilon2": sc.epsilon2,
                        "certified": bool(reach >= sc.epsilon2), "method": "dp"},
    }
    return {"thresholds": verdicts}, [], all(v["certified"] for v in verdicts.values())


def _solve(r: Run):
    sc = r.sc
    sections: dict = {}
    caveats = [
        f"grid {sc.grid.cells.tolist()} cells over "
        f"[{sc.grid.lower.tolist()}, {sc.grid.upper.tolist()}]; values are for "
        "the discretized chain, fidelity is empirical"
    ]
    at = r.at_x0s
    sections["values"] = [{
        "x0": x0.tolist(),
        "reach_avoid": _prob(reach, "dp"),
        "exit": _prob(exit_, "dp"),
        "liveness": _prob(1.0 - exit_, "dp"),
        f"discounted(gamma={sc.gamma:g})": _prob(discounted, "dp"),
    } for x0, reach, exit_, discounted in zip(sc.x0s, at["reach_avoid"], at["safety_exit"],
                                              at["discounted"])]
    # solve reports the threshold verdicts; only report-all fails on them
    sections.update(_thresholds(r)[0])
    if r.reach_kernel.n_transient <= dp.EXACT_NODE_LIMIT:
        fld = r.fields["reach_avoid"]
        try:
            exact = dp.solve_exact_small(r.reach_kernel)
            # the verdict, not the gap, whose last digits move with LAPACK's threads
            gap = float(np.max(np.abs(exact.values - fld.values)))
            sections["cross_check"] = {"within_error_bound": bool(gap <= fld.error_bound),
                                       "iterations": fld.iterations}
        except dp.SingularSystemError as exc:
            # mass can stay transient forever; the iterative least fixed
            # point is still the value function, only the oracle is unusable
            sections["cross_check"] = {"exact_solve": f"unavailable: {exc}"}
    sections["solver"] = {}
    for name, fld in r.fields.items():
        sections["solver"][name] = {"method": "prob0+bicgstab", "iterations": fld.iterations,
                                    "error_bound": fld.error_bound}
        if not fld.converged:
            caveats.append(f"{name}: solver error bound {fld.error_bound:.3g} "
                           "exceeds the requested tolerance; values are within that bound")
    if r.out_dir:
        for name in ("reach_avoid", "safety_exit", "discounted"):
            path = r.out_dir / f"field_{name}.csv"
            dp.field_to_csv(r.fields[name], path)
            sections.setdefault("csv", {})[name] = str(path)
    return sections, caveats, True


def _estimates(r: Run):
    sc = r.sc
    per_x0 = [{"x0": x0.tolist(), **{
        name: {**_prob(est.p_hat, "mc"), "half_width": est.half_width,
               "direction": est.direction, "error": est.error}
        for name, est in (("liveness", live), ("reach_avoid", reach))}}
        for x0, (live, reach) in zip(sc.x0s, r.estimates)]
    caveat = (f"{sc.mc_trials} trials, horizon {sc.mc_horizon}, delta {sc.mc_delta:g}; "
              "finite-horizon estimates bracket the infinite-horizon probabilities "
              "(see direction notes)")
    return {"estimates": per_x0}, [caveat], not any(est.error for ests in r.estimates
                                                    for est in ests)


def _assumption1(r: Run):
    a1 = r.assumption1
    section = {
        "holds": a1.holds,
        "sup_stay_probability": a1.sup_stay_prob,
        "iterations": a1.iterations,
        "converged": a1.converged,
    }
    return {"assumption1": section}, [], True


def _extract(r: Run, verdict: str = "self_check"):
    results, caveats = r.extracted
    entries = {}
    for kind, (cond, rep, path) in results.items():
        entries[kind] = {
            "threshold": cond.epsilon,
            "gamma": cond.gamma,
            verdict: "pass" if rep.passed else "FAIL",
            "min_slack": rep.min_slack,
            "points": rep.n_points,
            "method": "pointwise-check",
        }
        if path:
            entries[kind]["file"] = str(path)
    return entries, caveats, all(rep.passed for _, rep, _ in results.values())


def _certificates(r: Run):
    entries, caveats, passed = _extract(r, verdict="check")
    return {"certificates": entries}, [*caveats, "certificate checks are pointwise: validated "
                                       "on the listed point sets, not proven over all "
                                       "states"], passed


def _verify(r: Run):
    sc = r.sc
    if not r.certificate:
        raise ScenarioError(["verify needs --certificate <file>"])
    try:
        cond, cert = cert_mod.load_certificate(r.certificate)
        if r.condition and r.condition != cond.kind:
            cond = cond.replace(kind=r.condition)
        for part, obj in (("function", cert), ("pair_w", cond.w)):
            if obj is not None and obj.n not in (None, sc.system.n):
                raise ValueError(f"{part} has dimension {obj.n}, "
                                 f"but the scenario has system.n = {sc.system.n}")
    except (OSError, yaml.YAMLError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError([f"certificate {r.certificate}: {exc}"]) from exc
    points, node_form, in_omega = r.check_points
    # a grid certificate takes the node-form rows, as extract checks it
    rows = in_omega[cond.kind] & (node_form if isinstance(cert, GridCert) else True)
    report = cert_mod.check_condition(sc.system, sc.regions, cert, cond, sc.x0s,
                                      points[rows], sc.tolerance)
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
    return {"verify": section}, report.caveats, report.passed


def _synthesis(r: Run):
    from . import synth

    try:
        cond, template, points, result = r.synthesized
    except EvalError as exc:  # an initial state that cannot be classified, say
        return {"synthesis": {"status": "error", "detail": str(exc)}}, [], False
    section = {
        "kind": cond.kind,
        "template_degree": template.degree,
        "coefficients": list(result.cert.coeffs),
        "threshold": result.threshold,
        "status": result.status,
        "lp_iterations": result.lp.iterations,
        "lp_rows": len(result.problem.rows),
        "lp_cols": result.problem.n_vars,
        "constraint_points": int(points.shape[0]),
    }
    if r.out_dir:
        cert_path = r.out_dir / f"synthesized_{cond.kind}.yaml"
        cert_mod.save_certificate(cert_path, cond.replace(epsilon=result.threshold),
                                  result.cert)
        lp_path = r.out_dir / "synthesis.lp.txt"
        lp_path.write_text(synth.lp_to_text(result.problem))
        section["file"] = str(cert_path)
        section["lp_dump"] = str(lp_path)
    return {"synthesis": section}, result.report.caveats, result.status == "validated"


def _report_synthesis(r: Run):
    """report-all's synthesis, without synthesize's caveats: a kind skipped
    for its prerequisite, or an infeasible LP, fails no run."""
    from . import synth

    skip = r.unmet(KIND_RA_LOWER_A1)
    if skip:
        return {"synthesis": {"status": "skipped", "detail": skip}}, [], True
    try:
        sections, _, passed = _synthesis(r)
    except synth.SynthesisInfeasibleError as exc:
        return {"synthesis": {"status": "infeasible", "detail": str(exc)}}, [], True
    except synth.SimplexStalledError as exc:
        return {"synthesis": {"status": "stalled", "detail": str(exc)}}, [], False
    return sections, [], passed


def _dp_vs_mc(r: Run):
    """Each question's DP value beside its Monte Carlo estimate at every
    initial state: they agree within the half-width plus the truncation
    slack, the chain's mass still transient after the horizon."""
    sc = r.sc
    dp_values = {"reach_avoid": r.at_x0s["reach_avoid"],
                 "liveness": 1.0 - r.at_x0s["safety_exit"]}
    # computed before the estimates are collected; clipped against rounding
    slack = {name: np.clip(dp.eval_field_batch(dp.stay_probability(kernel, sc.mc_horizon),
                                               sc.x0s, r.x0_class), 0.0, 1.0)
             for name, kernel in (("reach_avoid", r.reach_kernel),
                                  ("liveness", r.safety_kernel))}
    rows, caveats = [], []
    for i, (x0, (est_live, est_reach)) in enumerate(zip(sc.x0s, r.estimates)):
        row = {"x0": x0.tolist()}
        for name, est in (("reach_avoid", est_reach), ("liveness", est_live)):
            value, slack_x0 = float(dp_values[name][i]), float(slack[name][i])
            # an aborted pass counts nothing, so its p_hat agrees with no value
            agree = est.error is None and (
                abs(value - est.p_hat) <= est.half_width + slack_x0 + 1e-9)
            if est.error is not None:
                caveats.append(f"x0 {x0.tolist()}: Monte Carlo {name} estimate failed: "
                               f"{est.error}")
            row[name] = {"dp": value, "mc": est.p_hat, "half_width": est.half_width,
                         "truncation_slack": slack_x0, "agree": agree}
        rows.append(row)
    return {"dp_vs_mc": rows}, caveats, all(
        row[name]["agree"] for row in rows for name in ("reach_avoid", "liveness"))


# command -> its section writers, in the report's order
_COMMANDS = {
    "simulate": (_trajectory,),
    "solve": (_solve,),
    "estimate": (_estimates,),
    "verify": (_verify,),
    "extract": (_extract,),
    "synthesize": (_synthesis,),
    "assumption1": (_assumption1,),
    "report-all": (_dp_vs_mc, _thresholds, _assumption1, _certificates, _report_synthesis),
}
COMMANDS = tuple(_COMMANDS)


def run(command: str, scenario: Scenario, certificate: str | None = None,
        condition: str | None = None, out_dir: str | None = None) -> Report:
    """Run one command's section writers over one Run of a loaded scenario;
    its report carries the scenario's warnings last among its caveats."""
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
    # report-all answers for every kind, whatever the condition names
    r = Run(scenario, out_path, certificate, None if command == "report-all" else condition)
    writers, parts = _COMMANDS[command], {}
    try:
        # report-all forks its first initial state's trials before any stage
        # and collects them in the writer it runs last, beside all the rest
        if _dp_vs_mc in writers:
            r.first_trials
        for writer in sorted(writers, key=lambda writer: writer is _dp_vs_mc):
            parts[writer] = writer(r)
    except BaseException:
        if "first_trials" in vars(r):
            r.first_trials.kill()
        raise
    report = Report(command, scenario.name, {}, passed=all(p for _, _, p in parts.values()))
    for sections, caveats, _ in map(parts.get, writers):
        report.sections.update(sections)
        report.caveats += caveats
    report.caveats += scenario.warnings
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
        for flag, (*rest, last) in _FLAG_READERS.items():
            if getattr(args, flag) is not None and args.command not in (*rest, last):
                raise ScenarioError([f"--{flag} is read only by "
                                     f"{', '.join(rest) + ' and ' if rest else ''}{last}"])
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
