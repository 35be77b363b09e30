"""Grid discretization and Bellman fixed-point solvers.

The continuous system is restricted to an absorbing chain on grid-cell
centers: one-step images that land in an absorbing class (target or unsafe,
depending on the kernel mode) absorb their probability mass, images that stay
transient are spread over the surrounding nodes by multilinear interpolation.
Three value problems share one sweep:

    v = gamma * (b + P v)   on transient nodes,

where b is the per-node mass absorbed directly into the value-one class.
Undiscounted iteration from zero is monotone non-decreasing and converges to
the least fixed point, which is the value function; iterates are valid lower
bounds throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import model as model_mod
from .model import SystemModel
from .regions import Box, RegionSpec, StateClass, classify_batch

__all__ = [
    "Grid",
    "TransitionKernel",
    "ValueField",
    "Assumption1Result",
    "GridTooSmallError",
    "SingularSystemError",
    "build_grid",
    "build_kernel",
    "apply_bellman",
    "solve_reach_avoid",
    "solve_safety_exit",
    "solve_discounted",
    "solve_exact_small",
    "check_assumption1",
    "stay_probability",
    "eval_field",
    "eval_field_batch",
    "field_to_csv",
]

MODE_REACH_AVOID = "reach_avoid"  # absorb at target and unsafe
MODE_SAFETY = "safety"  # absorb at unsafe only; target plays no role

_MASS_TOL = 1e-9
EXACT_NODE_LIMIT = 5000


class GridTooSmallError(RuntimeError):
    """A safe one-step image left the grid box; enlarging the box is required
    because silently absorbing safe mass as unsafe would bias values."""


class SingularSystemError(RuntimeError):
    """Dense solve hit a (numerically) singular system at gamma = 1."""


@dataclass(frozen=True)
class Grid:
    """Cell-center grid over an axis-aligned box, nodes enumerated row-major
    (first dimension slowest)."""

    lower: np.ndarray
    upper: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        cells = np.atleast_1d(np.asarray(self.cells, dtype=np.int64))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "cells", cells)
        if not (lower.shape == upper.shape == cells.shape):
            raise ValueError("lower/upper/cells must share one shape")
        if np.any(upper <= lower):
            raise ValueError("box must have upper > lower in every dimension")
        if np.any(cells < 1):
            raise ValueError("need at least one cell per dimension")

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.cells))

    @property
    def spacing(self) -> np.ndarray:
        return (self.upper - self.lower) / self.cells

    @property
    def box(self) -> Box:
        return Box(self.lower, self.upper)

    def nodes(self) -> np.ndarray:
        axes = [
            self.lower[d] + (np.arange(self.cells[d]) + 0.5) * self.spacing[d]
            for d in range(self.n)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.n)


def build_grid(lower, upper, cells) -> Grid:
    return Grid(np.asarray(lower), np.asarray(upper), np.asarray(cells))


def _interp_weights(grid: Grid, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear weights of points onto surrounding nodes.

    Returns (idx, w) of shape (B, 2^n); weights are non-negative and sum to 1.
    Points in the half-cell margin between the node hull and the box edge
    clamp to the boundary nodes.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    cells = grid.cells
    t = (ys - grid.lower) / grid.spacing - 0.5
    t = np.clip(t, 0.0, (cells - 1).astype(float))
    base = np.minimum(np.floor(t).astype(np.int64), np.maximum(cells - 2, 0))
    frac = t - base
    n = grid.n
    n_corners = 1 << n
    idx = np.empty((ys.shape[0], n_corners), dtype=np.int64)
    w = np.empty((ys.shape[0], n_corners))
    for j, combo in enumerate(itertools.product((0, 1), repeat=n)):
        multi = base + np.asarray(combo, dtype=np.int64)
        np.minimum(multi, cells - 1, out=multi)
        idx[:, j] = np.ravel_multi_index(tuple(multi.T), tuple(cells))
        weight = np.ones(ys.shape[0])
        for d, c in enumerate(combo):
            weight *= frac[:, d] if c else (1.0 - frac[:, d])
        w[:, j] = weight
    return idx, w


@dataclass
class ValueField:
    """Node values with multilinear interpolation and an outside-box default."""

    values: np.ndarray
    grid: Grid
    outside_default: float = 0.0
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("values length must equal the node count")


def eval_field(fld: ValueField, x) -> float:
    return float(eval_field_batch(fld, np.atleast_2d(np.asarray(x, dtype=float)))[0])


def eval_field_batch(fld: ValueField, xs: np.ndarray) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    out = np.full(xs.shape[0], fld.outside_default)
    inside = fld.grid.box.contains(xs)
    if inside.any():
        idx, w = _interp_weights(fld.grid, xs[inside])
        out[inside] = np.sum(fld.values[idx] * w, axis=1)
    return out


def field_to_csv(fld: ValueField, path) -> None:
    """Dump node coordinates and values for external plotting."""
    nodes = fld.grid.nodes()
    header = ",".join(f"x{d + 1}" for d in range(fld.grid.n)) + ",value"
    data = np.column_stack([nodes, fld.values])
    if hasattr(path, "write"):
        np.savetxt(path, data, delimiter=",", header=header, comments="")
    else:
        with open(path, "w") as fh:
            np.savetxt(fh, data, delimiter=",", header=header, comments="")


@dataclass
class TransitionKernel:
    """Finite absorbing-chain restriction of the one-step dynamics.

    ``one_mass[t]`` / ``zero_mass[t]`` are the per-transient-node probabilities
    absorbed directly into the value-one / value-zero class; ``P`` spreads the
    remaining mass over nodes (columns indexed by global node id).
    """

    grid: Grid
    mode: str
    transient: np.ndarray  # global indices of transient nodes
    one_nodes: np.ndarray  # absorbing nodes with value 1
    one_mass: np.ndarray  # (T,)
    zero_mass: np.ndarray  # (T,)
    P: sp.csr_matrix  # (T, N)

    @property
    def n_transient(self) -> int:
        return self.transient.shape[0]

    def absorbed_values(self) -> np.ndarray:
        """Full-length value vector with absorbing entries at their fixed
        values and transient entries zero (the iteration seed)."""
        v = np.zeros(self.grid.n_nodes)
        v[self.one_nodes] = 1.0
        return v


def build_kernel(
    system: SystemModel,
    grid: Grid,
    regions: RegionSpec,
    mode: str = MODE_REACH_AVOID,
) -> TransitionKernel:
    """Classify nodes, push each transient node through every atom, and
    assemble absorption masses plus the interpolation matrix.

    Raises GridTooSmallError when a safe image leaves the grid box.
    """
    if mode not in (MODE_REACH_AVOID, MODE_SAFETY):
        raise ValueError(f"unknown kernel mode {mode!r}")
    nodes = grid.nodes()
    node_class = classify_batch(regions, nodes)
    if mode == MODE_REACH_AVOID:
        transient_mask = node_class == int(StateClass.SAFE)
        one_mask = node_class == int(StateClass.TARGET)
    else:
        transient_mask = node_class != int(StateClass.UNSAFE)
        one_mask = node_class == int(StateClass.UNSAFE)

    transient = np.flatnonzero(transient_mask)
    n_tr = transient.shape[0]
    one_mass = np.zeros(n_tr)
    zero_mass = np.zeros(n_tr)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    xs = nodes[transient]

    for atom, p in zip(system.dist.atoms, system.dist.probs):
        ths = np.broadcast_to(atom, (n_tr, system.m))
        ys = model_mod.step_batch(system, xs, ths, strict=True)
        img_class = classify_batch(regions, ys)
        if mode == MODE_REACH_AVOID:
            absorb_one = img_class == int(StateClass.TARGET)
            absorb_zero = img_class == int(StateClass.UNSAFE)
        else:
            absorb_one = img_class == int(StateClass.UNSAFE)
            absorb_zero = np.zeros(n_tr, dtype=bool)
        mix = ~(absorb_one | absorb_zero)
        inside = grid.box.contains(ys)
        stray = mix & ~inside
        if stray.any():
            i = int(np.flatnonzero(stray)[0])
            raise GridTooSmallError(
                f"grid too small: node {xs[i].tolist()} maps to safe point "
                f"{ys[i].tolist()} outside the grid box under atom {atom.tolist()}"
            )
        one_mass[absorb_one] += p
        zero_mass[absorb_zero] += p
        if mix.any():
            idx, w = _interp_weights(grid, ys[mix])
            local = np.flatnonzero(mix)
            rows.append(np.repeat(local, idx.shape[1]))
            cols.append(idx.ravel())
            vals.append(float(p) * w.ravel())

    if rows:
        P = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_tr, grid.n_nodes),
        ).tocsr()
    else:
        P = sp.csr_matrix((n_tr, grid.n_nodes))

    total = one_mass + zero_mass + np.asarray(P.sum(axis=1)).ravel()
    if n_tr and np.max(np.abs(total - 1.0)) > _MASS_TOL:
        raise AssertionError("kernel mass not conserved within 1e-9")

    return TransitionKernel(
        grid=grid,
        mode=mode,
        transient=transient,
        one_nodes=np.flatnonzero(one_mask),
        one_mass=one_mass,
        zero_mass=zero_mass,
        P=P,
    )


def apply_bellman(kernel: TransitionKernel, values: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """One sweep of v = gamma * (b + P v) on transient nodes; absorbing nodes
    are pinned to their fixed values."""
    out = np.zeros(kernel.grid.n_nodes)
    out[kernel.one_nodes] = 1.0
    if kernel.n_transient:
        out[kernel.transient] = gamma * (kernel.one_mass + kernel.P.dot(values))
    return out


def _iterate(kernel, gamma, tol, max_iter, check_monotone):
    """Fixed-point sweeps until the estimated sup-norm error drops below tol.

    Discounted (gamma < 1): change < tol*(1-gamma) bounds the error by tol.
    Undiscounted: no a-priori contraction factor, so the residual error
    change * r/(1-r) is extrapolated from the observed change ratio r.
    """
    v = kernel.absorbed_values()
    converged = False
    iterations = 0
    prev_change = None
    for iterations in range(1, max_iter + 1):
        nxt = apply_bellman(kernel, v, gamma)
        if check_monotone and np.any(nxt < v - 1e-12):
            raise AssertionError("monotone iteration decreased")
        change = float(np.max(np.abs(nxt - v))) if v.size else 0.0
        v = nxt
        if gamma < 1.0:
            if change < tol * (1.0 - gamma):
                converged = True
                break
        elif change == 0.0:
            converged = True
            break
        elif prev_change is not None and change < tol:
            ratio = change / prev_change
            if ratio < 1.0 and change * ratio / (1.0 - ratio) < tol:
                converged = True
                break
            if change < tol * 1e-3:  # ratio estimate unstable but change tiny
                converged = True
                break
        prev_change = change
    return v, converged, iterations


def solve_reach_avoid(kernel: TransitionKernel, tol: float = 1e-9,
                      max_iter: int = 10 ** 6) -> ValueField:
    """Least fixed point of the reach-avoid recursion, seeded at the target
    indicator.  Iterates increase monotonically; on non-convergence the
    returned field is still a valid lower bound and is flagged."""
    if kernel.mode != MODE_REACH_AVOID:
        raise ValueError("solve_reach_avoid needs a reach_avoid-mode kernel")
    v, converged, iters = _iterate(kernel, 1.0, tol, max_iter, check_monotone=True)
    return ValueField(v, kernel.grid, outside_default=0.0,
                      converged=converged, iterations=iters)


def solve_safety_exit(kernel: TransitionKernel, tol: float = 1e-9,
                      max_iter: int = 10 ** 6) -> ValueField:
    """Least fixed point of the exit recursion (probability of ever leaving X),
    seeded at the outside-X indicator.  The liveness probability is one minus
    this field."""
    if kernel.mode != MODE_SAFETY:
        raise ValueError("solve_safety_exit needs a safety-mode kernel")
    v, converged, iters = _iterate(kernel, 1.0, tol, max_iter, check_monotone=True)
    return ValueField(v, kernel.grid, outside_default=1.0,
                      converged=converged, iterations=iters)


def solve_discounted(kernel: TransitionKernel, gamma: float, tol: float = 1e-9,
                     max_iter: int = 10 ** 6) -> ValueField:
    """Unique fixed point of the gamma-discounted recursion.

    On a reach_avoid kernel this is the discounted reach-avoid value (a lower
    bound of the undiscounted one); on a safety kernel it is the discounted
    exit value.  Geometric convergence with factor gamma; the stopping rule
    scales the sup-norm change by (1 - gamma).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1); at 1 the solution is not unique")
    v, converged, iters = _iterate(kernel, gamma, tol, max_iter, check_monotone=False)
    outside = 0.0 if kernel.mode == MODE_REACH_AVOID else 1.0
    return ValueField(v, kernel.grid, outside_default=outside,
                      converged=converged, iterations=iters)


def solve_exact_small(kernel: TransitionKernel, objective: str = "reach_avoid",
                      gamma: float = 1.0) -> ValueField:
    """Dense linear solve of (I - gamma P) v = gamma b on the transient block.

    Brute-force oracle for the iterative solvers; limited to EXACT_NODE_LIMIT
    transient nodes.  A singular system at gamma = 1 means mass can stay
    transient forever, i.e. the finite-time-exit assumption fails numerically.
    """
    if objective == "reach_avoid":
        if kernel.mode != MODE_REACH_AVOID:
            raise ValueError("reach_avoid objective needs a reach_avoid kernel")
        gamma = 1.0
    elif objective == "safety_exit":
        if kernel.mode != MODE_SAFETY:
            raise ValueError("safety_exit objective needs a safety kernel")
        gamma = 1.0
    elif objective == "discounted":
        if not 0.0 <= gamma < 1.0:
            raise ValueError("discounted objective needs gamma in [0, 1)")
    else:
        raise ValueError(f"unknown objective {objective!r}")

    n_tr = kernel.n_transient
    if n_tr > EXACT_NODE_LIMIT:
        raise ValueError(f"{n_tr} transient nodes exceed the dense-solve limit")
    values = kernel.absorbed_values()
    if n_tr:
        Pd = kernel.P.toarray()
        A = np.eye(n_tr) - gamma * Pd[:, kernel.transient]
        rhs = gamma * (kernel.one_mass + Pd[:, kernel.one_nodes].sum(axis=1))
        try:
            v = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "finite-time-exit assumption (numerically) violated at gamma=1: "
                "singular system"
            ) from exc
        residual = float(np.max(np.abs(A @ v - rhs))) if n_tr else 0.0
        if not np.all(np.isfinite(v)) or residual > 1e-8:
            raise SingularSystemError(
                "finite-time-exit assumption (numerically) violated at gamma=1: "
                f"solve residual {residual:.3e}"
            )
        values[kernel.transient] = v
    outside = 0.0 if kernel.mode == MODE_REACH_AVOID else 1.0
    return ValueField(values, kernel.grid, outside_default=outside)


@dataclass
class Assumption1Result:
    holds: bool
    sup_stay_prob: float  # upper bound: the iterates decrease to the limit
    iterations: int
    converged: bool


def check_assumption1(kernel: TransitionKernel, tol: float = 1e-9,
                      max_iter: int = 10 ** 6) -> Assumption1Result:
    """Estimate sup_x P(stay in X minus X_r forever) by iterating the
    stay-probability recursion downward from one.

    The assumption holds when the sup drops below ``tol``.  If the iteration
    stalls at a positive level (e.g. an invariant subset exists) the current
    sup is reported as an upper bound and the verdict is False.
    """
    if kernel.mode != MODE_REACH_AVOID:
        raise ValueError("check_assumption1 needs a reach_avoid-mode kernel")
    n_tr = kernel.n_transient
    if n_tr == 0:
        return Assumption1Result(True, 0.0, 0, True)
    Ptt = kernel.P[:, kernel.transient]
    s = np.ones(n_tr)
    for iterations in range(1, max_iter + 1):
        nxt = Ptt.dot(s)
        sup = float(nxt.max())
        change = float(np.max(np.abs(nxt - s)))
        s = nxt
        if sup < tol:
            return Assumption1Result(True, sup, iterations, True)
        if change < tol * 1e-3:
            return Assumption1Result(False, sup, iterations, True)
    return Assumption1Result(False, float(s.max()), max_iter, False)


def stay_probability(kernel: TransitionKernel, x0, horizon: int) -> float:
    """P(chain not yet absorbed after `horizon` steps from x0): the truncation
    slack separating a finite-horizon Monte Carlo estimate from its limit."""
    sweeps = min(horizon, 100_000)
    Ptt = kernel.P[:, kernel.transient]
    s = np.ones(kernel.n_transient)
    for _ in range(sweeps):
        if s.size == 0 or s.max() < 1e-15:
            break
        s = Ptt.dot(s)
    values = np.zeros(kernel.grid.n_nodes)
    values[kernel.transient] = s
    return float(np.clip(eval_field(ValueField(values, kernel.grid), x0), 0.0, 1.0))
