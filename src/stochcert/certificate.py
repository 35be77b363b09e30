"""Barrier-like certificate functions: checking, extraction, serialization.

A certificate is a real-valued function (grid field, polynomial, or constant)
paired with one of six condition kinds, each one entry of the clause table
``KINDS``.  Conditions are finite systems of pointwise inequalities; checking
evaluates every clause on a finite classified point set and reports the worst
slack per clause, so a pass means "validated on N points", not a proof over
all states.  Extraction builds certificates from solved value fields: the
value function itself satisfies its condition with equality, so rendering it
faithfully yields a certificate at the tightest threshold the field supports.
"""

from __future__ import annotations

import functools
import re

import numpy as np
import yaml

from . import dp as dp_mod, expr as expr_mod, model as model_mod
from .dp import Grid, ValueField, classify_lenient, eval_field_batch
from .expr import NumericError, Record
from .model import SystemModel
from .regions import Box, RegionSpec, StateClass, classify_batch

# libyaml's C parser and emitter when PyYAML was built with them: the same
# documents, 4-7x faster on grid certificates of tens of thousands of values
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
YAML_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper

__all__ = [
    "GridCert",
    "PolyCert",
    "ConstCert",
    "CertFunction",
    "Condition",
    "ClauseResult",
    "CheckReport",
    "CertificateError",
    "KIND_SAFETY_LOWER",
    "KIND_UNSAFE_REACH_UPPER",
    "KIND_RA_LOWER_A1",
    "KIND_RA_LOWER_DISCOUNTED",
    "KIND_LIVENESS_UPPER_DISCOUNTED",
    "KIND_RA_LOWER_PAIR",
    "ALL_KINDS",
    "PAIR_KINDS",
    "KINDS",
    "INIT_LOWER",
    "INIT_UPPER",
    "INIT_COMPLEMENT",
    "tight_threshold",
    "point_classes",
    "monomials",
    "clause_side",
    "expectation",
    "eval_cert_batch",
    "check_condition",
    "extract_certificate",
    "build_check_points",
    "save_certificate",
    "load_certificate",
]

KIND_SAFETY_LOWER = "safety_lower"
KIND_UNSAFE_REACH_UPPER = "unsafe_reach_upper"
KIND_RA_LOWER_A1 = "ra_lower_a1"
KIND_RA_LOWER_DISCOUNTED = "ra_lower_discounted"
KIND_LIVENESS_UPPER_DISCOUNTED = "liveness_upper_discounted"
KIND_RA_LOWER_PAIR = "ra_lower_pair"

# the three forms of the initial-state clause
INIT_LOWER = "v(x0) >= eps"
INIT_UPPER = "v(x0) <= eps"
INIT_COMPLEMENT = "v(x0) <= 1 - eps"

# One entry per condition kind, read by checking, extraction and synthesis:
#   initial  the initial-state clause, one of the forms above;
#   gamma    whether the clauses read the discount gamma;
#   source   the extraction source: (value field, outside-box default); the
#            field's kernel pins its absorbed classes (dp.ValueField.absorbed);
#   clauses  (name, point class, lhs, rhs), each meaning lhs <= rhs on that
#            class.  A class is "tgt", "saf", "uns", "in_x" (tgt or saf) or
#            "all"; a side is a constant, "v", "E[v o f]", "gamma E[v o f]"
#            or "E[w o f] - w" (the pair kind's companion function w).
# The clauses range over the kind's Omega, which the check points sample.
# Optional keys, each a caveat text: "initial_set_caveat", added when the check
# has several initial states, and "assumption1", which marks a kind that
# certifies only under the finite-time-exit assumption (dp.check_assumption1):
# added to every check, and the CLI extracts or synthesizes the kind only
# where that assumption holds.
KINDS = {
    KIND_SAFETY_LOWER: {
        "initial": INIT_COMPLEMENT,
        "gamma": False,
        "source": ("safety_exit", 1.0),
        "clauses": (
            ("on X: E[v o f] <= v", "in_x", "E[v o f]", "v"),
            ("off X: v >= 1", "uns", 1.0, "v"),
            ("everywhere: v >= 0", "all", 0.0, "v"),
        ),
    },
    KIND_UNSAFE_REACH_UPPER: {
        "initial": INIT_UPPER,
        "gamma": False,
        "source": ("reach_avoid", 1.0),
        "clauses": (
            ("on X\\Xr: E[v o f] <= v", "saf", "E[v o f]", "v"),
            ("on Xr: v >= 1", "tgt", 1.0, "v"),
            ("off X: v >= 0", "uns", 0.0, "v"),
        ),
    },
    KIND_RA_LOWER_A1: {
        "initial": INIT_LOWER,
        "gamma": False,
        "source": ("reach_avoid", 0.0),
        "clauses": (
            ("on X\\Xr: v <= E[v o f]", "saf", "v", "E[v o f]"),
            ("on Xr: v <= 1", "tgt", "v", 1.0),
            ("off X: v <= 0", "uns", "v", 0.0),
        ),
        "assumption1": (
            "the undiscounted lower bound is sound only under the "
            "finite-time-exit assumption; run assumption1"
        ),
    },
    KIND_RA_LOWER_DISCOUNTED: {
        "initial": INIT_LOWER,
        "gamma": True,
        "source": ("discounted", 0.0),
        "clauses": (
            ("on X\\Xr: v <= gamma E[v o f]", "saf", "v", "gamma E[v o f]"),
            ("on Xr: v <= 1", "tgt", "v", 1.0),
            ("off X: v <= 0", "uns", "v", 0.0),
        ),
        "initial_set_caveat": (
            "initial-set variant of the discounted condition: the check is "
            "pointwise but completeness over a whole initial set is not "
            "guaranteed (the discounted value need not converge uniformly)"
        ),
    },
    KIND_LIVENESS_UPPER_DISCOUNTED: {
        "initial": INIT_LOWER,
        "gamma": True,
        "source": ("discounted_exit", 1.0),
        "clauses": (
            ("on X: v <= gamma E[v o f]", "in_x", "v", "gamma E[v o f]"),
            ("off X: v <= 1", "uns", "v", 1.0),
        ),
    },
    KIND_RA_LOWER_PAIR: {
        "initial": INIT_LOWER,
        "gamma": False,
        "source": ("discounted", 0.0),
        "clauses": (
            ("on X\\Xr: v <= E[v o f]", "saf", "v", "E[v o f]"),
            ("on X\\Xr: v <= E[w o f] - w", "saf", "v", "E[w o f] - w"),
            ("on Xr: v <= 1", "tgt", "v", 1.0),
            ("on Omega\\X: v <= 0", "uns", "v", 0.0),
        ),
    },
}

ALL_KINDS = tuple(KINDS)
# the kinds whose clauses read the companion function w
PAIR_KINDS = tuple(kind for kind, spec in KINDS.items()
                   if any("E[w o f] - w" in clause for clause in spec["clauses"]))

# initial-clause form -> its (lhs, rhs) sides
_INITIAL_SIDES = {
    INIT_LOWER: ("eps", "v"),
    INIT_UPPER: ("v", "eps"),
    INIT_COMPLEMENT: ("v", "1 - eps"),
}


def tight_threshold(kind: str, v_x0s) -> float:
    """The threshold at which the values ``v_x0s`` at the initial states meet
    the initial clause of ``kind`` at every state, with equality at the worst
    (the least value for lower-bound kinds, the greatest otherwise), clipped to [0, 1]."""
    v_x0s = np.asarray(v_x0s, dtype=float)
    worst = float(v_x0s.min() if KINDS[kind]["initial"] == INIT_LOWER else v_x0s.max())
    tight = 1.0 - worst if KINDS[kind]["initial"] == INIT_COMPLEMENT else worst
    return float(np.clip(tight, 0.0, 1.0))


def point_classes(points: np.ndarray, codes: np.ndarray) -> dict:
    """The point classes the clauses range over, from region codes."""
    return {
        "tgt": points[codes == int(StateClass.TARGET)],
        "saf": points[codes == int(StateClass.SAFE)],
        "uns": points[codes == int(StateClass.UNSAFE)],
        "in_x": points[codes != int(StateClass.UNSAFE)],
        "all": points,
    }


class CertificateError(NumericError, RuntimeError):
    pass


class GridCert(Record, frozen=True):
    """Grid-interpolated certificate function: its field, read at states
    classified by ``regions``; without regions nothing is classified or pinned.

    An extracted certificate's field keeps its source kernel's absorbed
    classes pinned (``ValueField.absorbed``): the value function meets those
    identities exactly, and plain interpolation would corrupt it near region
    boundaries that do not align with the node lattice.
    """

    fld: ValueField
    regions: RegionSpec | None = None

    def __post_init__(self):
        if self.regions is None and self.fld.absorbed:
            object.__setattr__(self, "fld", self.fld.replace(absorbed=()))

    @property
    def n(self) -> int:
        return self.fld.grid.n


class PolyCert(Record, frozen=True):
    """Polynomial sum_j coeffs[j] * prod_d x_d^exponents[j][d]."""

    exponents: tuple[tuple[int, ...], ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        exps = tuple(tuple(int(e) for e in row) for row in self.exponents)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate monomials in polynomial certificate")
        if len({len(row) for row in exps}) > 1:
            raise ValueError("exponent rows must have equal length")
        if len(self.coeffs) != len(exps):
            raise ValueError("coefficient count must match the monomial count")

    @property
    def n(self) -> int | None:
        """The dimension; None for a polynomial without monomials."""
        return len(self.exponents[0]) if self.exponents else None


class ConstCert(Record, frozen=True):
    value: float

    n = None  # a constant has no dimension


CertFunction = GridCert | PolyCert | ConstCert


def eval_cert_batch(cert: CertFunction, xs: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if isinstance(cert, GridCert):
        if cert.regions is None:
            return eval_field_batch(cert.fld, xs)
        # a row that cannot be classified reads NaN, as a failed image does,
        # so a clause there fails instead of ending the run
        codes = classify_lenient(cert.regions, xs)
        return np.where(codes < 0, np.nan, eval_field_batch(cert.fld, xs, codes))
    if isinstance(cert, ConstCert):
        return np.full(xs.shape[0], cert.value)
    if isinstance(cert, PolyCert):
        with np.errstate(all="ignore"):
            return monomials(xs, cert.exponents) @ np.asarray(cert.coeffs)
    raise TypeError(f"not a certificate function: {cert!r}")


def monomials(xs: np.ndarray, exponents) -> np.ndarray:
    """The (B, J) values at a (B, n) batch of the J monomials whose powers
    are the rows of ``exponents``."""
    exps = np.asarray(exponents, dtype=float)
    return np.prod(xs[:, None, :] ** exps[None, :, :], axis=2)


class Condition(Record, frozen=True):
    """A condition kind with its parameters; ``w`` is the companion function
    of a kind in PAIR_KINDS."""

    kind: str
    epsilon: float
    gamma: float | None = None
    w: CertFunction | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if KINDS[self.kind]["gamma"] and (self.gamma is None or not 0.0 < self.gamma < 1.0):
            raise ValueError(f"{self.kind} needs gamma in (0, 1)")
        if self.kind in PAIR_KINDS and self.w is None:
            raise ValueError("pair condition needs the companion function w")


class ClauseResult(Record):
    name: str
    n_points: int
    min_slack: float  # negative = violation
    worst_point: np.ndarray | None


class CheckReport(Record):
    passed: bool
    tolerance: float
    clauses: list[ClauseResult]
    witnesses: list[tuple[np.ndarray, str, float, float]]  # point, clause, lhs, rhs
    n_points: int
    caveats: list[str] = []

    @property
    def min_slack(self) -> float:
        return min((c.min_slack for c in self.clauses), default=float("inf"))


def clause_side(term: str, value, mean, gamma: float | None = None) -> np.ndarray:
    """The function side ``term`` of a clause at its points, from
    ``value(name)`` and ``mean(name)``: the function ``name`` ("v", or the
    pair kind's companion "w") and E[name o f] there, as values (B,), or as
    design rows (B, J) when the side is linear in J unknown coefficients."""
    if term == "v":
        return value("v")
    if term == "E[v o f]":
        return mean("v")
    if term == "gamma E[v o f]":
        return gamma * mean("v")
    return mean("w") - value("w")  # E[w o f] - w


def expectation(system: SystemModel, fn, xs: np.ndarray, strict: bool = False) -> np.ndarray:
    """E[fn(f(x, th))] over the atoms, in atom order, for a function of the
    images' coordinates; a row whose image fails to evaluate reads NaN, or
    with ``strict`` raises EvalError."""
    total, bad = 0.0, np.zeros(len(xs), dtype=bool)
    for p, ys in zip(system.dist.probs, model_mod.successors(system, xs, strict=strict)):
        row_bad = ~np.isfinite(ys).all(axis=1)
        bad |= row_bad
        total = total + float(p) * fn(np.where(row_bad[:, None], 0.0, ys))
    total[bad] = np.nan
    return total


def check_condition(
    system: SystemModel,
    regions: RegionSpec,
    cert: CertFunction,
    cond: Condition,
    x0,
    points: np.ndarray,
    tolerance: float = 1e-6,
    operator: dp_mod.StepOperator | None = None,
) -> CheckReport:
    """Evaluate every clause of ``cond`` (its kind's entry in ``KINDS``) for
    ``cert`` on the classified point set plus the initial state(s).

    ``x0`` may be a single state or a list of states (initial-set variant:
    the threshold clause must hold at each).  Each function is read once:
    its values at every point, and its one-step mean, an exact finite sum
    over the disturbance atoms, at every point in X, where alone a clause
    reads one.  A grid function reads its mean from ``operator``, the step
    operator at the points in X on its grid and regions, else from one built
    here; any other function from ``expectation``.
    """
    x0s = np.atleast_2d(np.asarray(x0, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    caveats = [f"validated on {points.shape[0]} points plus {x0s.shape[0]} initial state(s)"]
    spec = KINDS[cond.kind]
    codes = classify_batch(regions, points)
    rows = point_classes(np.arange(len(points)), codes)
    in_x = points[rows["in_x"]]
    form = spec["initial"]
    clauses = (("initial: " + form, "x0", *_INITIAL_SIDES[form]),) + spec["clauses"]

    fns = {"v": cert, "w": cond.w}

    @functools.cache
    def at_points(name: str, mean: bool) -> np.ndarray:
        """Function ``name``, or its one-step mean (NaN off X), at every point."""
        f = fns[name]
        if not mean:
            return eval_cert_batch(f, points)
        out = np.full(len(points), np.nan)
        if isinstance(f, GridCert):
            op = operator or dp_mod.step_operator(system, f.fld.grid, f.regions or regions,
                                                  in_x, strict=False)
            out[rows["in_x"]] = op.mean(f.fld)
        else:
            out[rows["in_x"]] = expectation(system, functools.partial(eval_cert_batch, f), in_x)
        return out

    def side(term, cls, n: int):
        if not isinstance(term, str):
            return np.full(n, term)
        if term == "eps":
            return np.full(n, cond.epsilon)
        if term == "1 - eps":
            return np.full(n, 1.0 - cond.epsilon)
        if cls == "x0":  # the initial clause's function side is v
            return eval_cert_batch(cert, x0s)
        return clause_side(term, lambda name: at_points(name, False)[rows[cls]],
                           lambda name: at_points(name, True)[rows[cls]], cond.gamma)

    results, witnesses = [], []
    for name, cls, lhs_term, rhs_term in clauses:
        pts = x0s if cls == "x0" else points[rows[cls]]
        if pts.shape[0] == 0:
            results.append(ClauseResult(name, 0, float("inf"), None))
            continue
        # a non-finite side is an evaluation error at that point: a violation
        lhs, rhs = side(lhs_term, cls, len(pts)), side(rhs_term, cls, len(pts))
        slack = rhs - lhs
        slack = np.where(np.isfinite(slack), slack, -np.inf)
        order = np.argsort(slack)
        worst = int(order[0])
        results.append(ClauseResult(name, pts.shape[0], float(slack[worst]), pts[worst].copy()))
        witnesses += [(pts[i].copy(), name, float(lhs[i]), float(rhs[i]))
                      for i in order[:10] if slack[i] < -tolerance]
    if x0s.shape[0] > 1 and "initial_set_caveat" in spec:
        caveats.append(spec["initial_set_caveat"])
    if "assumption1" in spec:
        caveats.append(spec["assumption1"])
    passed = all(c.min_slack >= -tolerance for c in results)
    return CheckReport(passed, tolerance, results, witnesses, points.shape[0], caveats)


def extract_certificate(fields: dict, kind: str):
    """Build a certificate from solved value fields.

    ``fields`` maps objective names to solved ValueFields: ``safety_exit``,
    ``reach_avoid``, ``discounted`` (reach-avoid, with ``gamma``), and
    ``discounted_exit`` (safety kernel), and ``regions`` is the RegionSpec
    the fields were solved against.  Returns the certificate, or (v, w) for
    a kind in PAIR_KINDS.  A kind's ``assumption1`` prerequisite is the
    caller's to decide.

    The grid certificates keep the classes the source field's kernel absorbs,
    pinned to their fixed values, and use the kind's outside-box default, so
    they render the solved value function exactly wherever it is determined
    by an indicator.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown condition kind {kind!r}")
    name, outside_default = KINDS[kind]["source"]
    fld, regions = fields[name], fields["regions"]
    v = GridCert(ValueField(fld.values.copy(), fld.grid, outside_default, absorbed=fld.absorbed),
                 regions)
    if kind not in PAIR_KINDS:
        return v
    gamma0 = float(fields["gamma"])
    if not 0.0 < gamma0 < 1.0:
        raise CertificateError("pair extraction needs gamma in (0, 1)")
    gamma1 = gamma0 / (1.0 - gamma0)  # gamma1/(1+gamma1) equals gamma0
    pins = tuple((code, gamma1 * value) for code, value in fld.absorbed)
    w = GridCert(ValueField(gamma1 * fld.values, fld.grid, 0.0, absorbed=pins), regions)
    return v, w


def build_check_points(
    grid: Grid,
    omega: Box,
    n_random: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The check points inside ``omega``, the grid nodes it holds, then
    ``n_random`` uniform samples of it; and the node-form mask, which selects
    the nodes plus the samples off the open grid box.

    Grid-form certificates are checked on the node-form rows, where the
    exterior samples exercise the outside-default clauses.  Between the nodes
    the multilinear interpolant of a grid chain's value meets its Bellman
    equation only approximately: with the interior points added, 5 of the 6
    extracted kinds fail on the 50^2 disc walk, with slacks down to -1.83.
    So a passing grid certificate certifies the grid chain at the nodes, not
    the system.
    """
    nodes = grid.nodes()
    nodes = nodes[omega.contains(nodes)]
    samples = omega.sample(n_random, np.random.default_rng(seed))
    strictly_inside = np.all(
        (samples > grid.lower) & (samples < grid.upper), axis=1
    )
    return np.vstack([nodes, samples]), np.concatenate([np.ones(len(nodes), bool),
                                                        ~strictly_inside])


# serialization --------------------------------------------------------

# region_pins key of the value pinned on each class, null where none is
_PIN_KEYS = ((int(StateClass.TARGET), "target_value"), (int(StateClass.UNSAFE), "unsafe_value"))


def _cert_to_dict(cert: CertFunction) -> dict:
    if isinstance(cert, GridCert):
        doc = {
            "representation": "grid",
            "lower": cert.fld.grid.lower.tolist(),
            "upper": cert.fld.grid.upper.tolist(),
            "cells": cert.fld.grid.cells.tolist(),
            "outside_default": float(cert.fld.outside_default),
            "values": cert.fld.values.tolist(),
        }
        if cert.regions is not None:
            doc["region_pins"] = {
                "safe": expr_mod.pretty(cert.regions.safe),
                "target": expr_mod.pretty(cert.regions.target),
                **{key: dict(cert.fld.absorbed).get(code) for code, key in _PIN_KEYS},
            }
        return doc
    if isinstance(cert, PolyCert):
        return {
            "representation": "polynomial",
            "exponents": [list(e) for e in cert.exponents],
            "coefficients": list(cert.coeffs),
        }
    if isinstance(cert, ConstCert):
        return {"representation": "constant", "value": float(cert.value)}
    raise TypeError(f"not a certificate function: {cert!r}")


def _cert_from_dict(data: dict) -> CertFunction:
    if not isinstance(data, dict):
        raise ValueError("certificate function must be a mapping")
    rep = data.get("representation")
    if rep == "grid":
        grid = Grid(data["lower"], data["upper"], data["cells"])
        pins = data.get("region_pins") or {}
        regions = RegionSpec(expr_mod.parse_predicate(pins["safe"], grid.n),
                             expr_mod.parse_predicate(pins["target"], grid.n)) if pins else None
        absorbed = tuple((code, float(pins[key])) for code, key in _PIN_KEYS
                         if pins.get(key) is not None)
        return GridCert(ValueField(np.asarray(data["values"], dtype=float), grid,
                                   float(data.get("outside_default", 0.0)), absorbed=absorbed),
                        regions)
    if rep == "polynomial":
        return PolyCert(tuple(tuple(e) for e in data["exponents"]),
                        tuple(data["coefficients"]))
    if rep == "constant":
        return ConstCert(float(data["value"]))
    raise ValueError(f"unknown certificate representation {rep!r}")


def save_certificate(path, cond: Condition, cert: CertFunction) -> None:
    """Write a certificate file: condition header, then the function body
    (and the companion w for the pair kind)."""
    doc = {
        "kind": cond.kind,
        "epsilon": float(cond.epsilon),
        "gamma": None if cond.gamma is None else float(cond.gamma),
        "function": _cert_to_dict(cert),
    }
    if cond.w is not None:
        doc["pair_w"] = _cert_to_dict(cond.w)
    # grid values are written here, not by the dumper, which would build one
    # node per value; each stands in the document as a placeholder scalar
    floats = []
    for body in (doc["function"], doc.get("pair_w")):
        if body and body["representation"] == "grid" and body["values"]:
            floats.append(body["values"])
            body["values"] = f"{_FLOAT_LIST}{len(floats) - 1}"
    text = yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=False)
    for i, values in enumerate(floats):
        text = _splice_floats(text, f"{_FLOAT_LIST}{i}", values)
    with open(path, "w") as fh:
        fh.write(text)


_FLOAT_LIST = "_float_list_"
_BARE_EXPONENT = re.compile(r"(?<![.\d])(\d+)e")
_NON_FINITE = re.compile(r"\b(inf|nan)\b")


def _splice_floats(text: str, placeholder: str, values: list) -> str:
    """Replace the mapping value ``placeholder`` in ``text`` by ``values`` as
    the block sequence the dumper writes there: one ``- value`` line each,
    indented as its key."""
    at = text.index(f": {placeholder}\n")
    key_line = text[text.rfind("\n", 0, at) + 1:at]
    item = "\n" + " " * (len(key_line) - len(key_line.lstrip(" "))) + "- "
    return f"{text[:at]}:{item}{_yaml_floats(values, item)}{text[at + 2 + len(placeholder):]}"


def _yaml_floats(values: list, sep: str) -> str:
    """``values`` joined by ``sep``, each as PyYAML's
    ``SafeRepresenter.represent_float`` writes it: ``repr(value).lower()``
    (a float's repr is lower case already), with ``.0`` before an exponent
    that has no dot (1e+16 is written 1.0e+16), and ``.inf``, ``-.inf`` and
    ``.nan``."""
    text = sep.join(map(repr, values))
    if "e" in text:
        text = _BARE_EXPONENT.sub(r"\1.0e", text)
    if "n" in text:
        text = _NON_FINITE.sub(r".\1", text)
    return text


def load_certificate(path) -> tuple[Condition, CertFunction]:
    with open(path) as fh:
        doc = yaml.load(fh, Loader=YAML_LOADER)
    if not isinstance(doc, dict):
        raise ValueError("a certificate file holds a mapping")
    missing = [key for key in ("kind", "epsilon", "function") if key not in doc]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    cert = _cert_from_dict(doc["function"])
    w = _cert_from_dict(doc["pair_w"]) if "pair_w" in doc else None
    cond = Condition(
        kind=doc["kind"],
        epsilon=float(doc["epsilon"]),
        gamma=doc.get("gamma"),
        w=w,
    )
    return cond, cert
