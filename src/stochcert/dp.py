"""Grid discretization and Bellman fixed-point solvers.

The continuous system is restricted to an absorbing chain on grid-cell
centers.  ``step_operator`` steps a batch of points through every atom,
classifies the images and spreads them over the surrounding nodes by
multilinear interpolation (Kushner & Dupuis, Numerical Methods for Stochastic
Control Problems in Continuous Time, 2001).  A kernel is that operator at the
nodes, built once for both modes: images in an absorbing class (target or
unsafe, by mode) absorb their mass.  Grid-certificate checks read the same
operator at their check points.  The chain is stored in its canonical form
(Kemeny & Snell, Finite Markov Chains, ch. III): the transient-to-transient
block P, with the interpolation weight that lands on absorbing nodes folded
into the absorbed masses.  Three value problems share one fixed point:

    v = gamma * (b + P v)   on transient nodes,

where b is the per-node mass absorbed into the value-one class.  The value
function is the least fixed point.  One solver finds it for all three: a graph
pass sets nodes that cannot reach the value-one class to 0 (Baier & Katoen,
Principles of Model Checking, 10.1), BiCGSTAB solves the nonsingular rest, and
an a-posteriori bound on the sup-norm error comes with every field.  A field
pins each class its kernel absorbs to that class's fixed value
(``ValueField.absorbed``); ``_read`` applies the pins wherever a field is read
at classified states, by ``eval_field_batch`` and ``StepOperator.mean`` alike.

The kernel matrix is a numpy ELLPACK matrix (``SlotMatrix``): a row holds at
most atoms * 2^n entries, so fixed slots need no sparse-matrix library.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import model as model_mod
from .expr import EvalError, NumericError, Record
from .model import SystemModel
from .regions import Box, RegionSpec, StateClass, classify_batch

__all__ = [
    "Grid",
    "SlotMatrix",
    "StepOperator",
    "TransitionKernel",
    "ValueField",
    "Assumption1Result",
    "GridTooSmallError",
    "SingularSystemError",
    "classify_lenient",
    "step_operator",
    "node_operator",
    "build_kernel",
    "apply_bellman",
    "solve_reach_avoid",
    "solve_safety_exit",
    "solve_discounted",
    "solve_exact_small",
    "check_assumption1",
    "stay_probability",
    "eval_field_batch",
    "field_to_csv",
]

MODE_REACH_AVOID = "reach_avoid"  # absorb at target and unsafe
MODE_SAFETY = "safety"  # absorb at unsafe only; target plays no role

# mode -> (class absorbed with value one, class absorbed with value zero);
# -1 is no class: a safety kernel absorbs only at the unsafe set
_ABSORBING = {
    MODE_REACH_AVOID: (int(StateClass.TARGET), int(StateClass.UNSAFE)),
    MODE_SAFETY: (int(StateClass.UNSAFE), -1),
}

_MASS_TOL = 1e-9
EXACT_NODE_LIMIT = 5000


class GridTooSmallError(NumericError, RuntimeError):
    """A safe one-step image left the grid box; enlarging the box is required
    because silently absorbing safe mass as unsafe would bias values."""


class SingularSystemError(NumericError, RuntimeError):
    """Dense solve hit a (numerically) singular system at gamma = 1."""


class Grid(Record, frozen=True):
    """Cell-center grid over an axis-aligned box, nodes enumerated row-major
    (first dimension slowest)."""

    lower: np.ndarray
    upper: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        given = np.atleast_1d(np.asarray(self.cells, dtype=float))
        cells = given.astype(np.int64)
        if np.any(cells != given):
            raise ValueError("cells must be integers")
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


def _interp_weights(grid: Grid, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear weights of points onto surrounding nodes.

    Returns (idx, w) of shape (B, 2^n); weights are non-negative and sum to 1.
    Points in the half-cell margin between the node hull and the box edge
    clamp to the boundary nodes.  Each dimension is worked as one (B,) array:
    numpy's loops over a trailing axis of length n are slow.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    n, cells = grid.n, grid.cells
    ends, fracs = [], []  # per dimension: the lower and upper node's offset, the fraction
    for d in range(n):
        t = np.clip((ys[:, d] - grid.lower[d]) / grid.spacing[d] - 0.5, 0.0, float(cells[d] - 1))
        base = np.minimum(np.floor(t).astype(np.int64), max(cells[d] - 2, 0))
        fracs.append(t - base)
        stride = int(np.prod(cells[d + 1:]))
        ends.append((base * stride, np.minimum(base + 1, cells[d] - 1) * stride))
    idx = np.empty((ys.shape[0], 1 << n), dtype=np.int64)
    w = np.empty((ys.shape[0], 1 << n))
    for c, combo in enumerate(itertools.product((0, 1), repeat=n)):
        idx[:, c] = sum(end[bit] for end, bit in zip(ends, combo))
        w[:, c] = math.prod(frac if bit else 1.0 - frac for frac, bit in zip(fracs, combo))
    return idx, w


def _interpolate(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_c values[idx[..., c]] * w[..., c] over the last axis, the corners
    added in order."""
    terms = values[idx]
    terms *= w
    out = terms[..., 0].copy()
    for c in range(1, terms.shape[-1]):
        out += terms[..., c]
    return out


class ValueField(Record):
    """Node values with multilinear interpolation and an outside-box default."""

    values: np.ndarray
    grid: Grid
    outside_default: float = 0.0
    converged: bool = True
    iterations: int = 0
    error_bound: float = 0.0  # sup-norm bound on the solver error at the nodes
    absorbed: tuple = ()  # (class code, fixed value) of each class the chain absorbs

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("values length must equal the node count")


def _read(fld: ValueField, g: np.ndarray, inside: np.ndarray, codes) -> np.ndarray:
    """``g``, the interpolant of ``fld`` at states where ``inside`` (in the grid
    box), read as the field: the outside-box default off the box and, given the
    states' class codes, each absorbed class's fixed value on that class."""
    g[~inside] = fld.outside_default
    for code, value in fld.absorbed if codes is not None else ():
        g[codes == code] = value
    return g


def eval_field_batch(fld: ValueField, xs: np.ndarray, codes=None) -> np.ndarray:
    """The field at a (B, n) batch, read by ``_read`` given the batch's class
    codes or none; a state with code -1 (not classified) reads the interpolant."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    out = np.empty(xs.shape[0])
    inside = fld.grid.box.contains(xs)
    idx, w = _interp_weights(fld.grid, xs[inside])
    out[inside] = _interpolate(fld.values, idx, w)
    return _read(fld, out, inside, codes)


def field_to_csv(fld: ValueField, path) -> None:
    """Dump node coordinates and values for external plotting."""
    nodes = fld.grid.nodes()
    header = ",".join(f"x{d + 1}" for d in range(fld.grid.n)) + ",value"
    np.savetxt(path, np.column_stack([nodes, fld.values]), delimiter=",", header=header,
               comments="")


class SlotMatrix:
    """Sparse matrix with a fixed number of slots per row (ELLPACK; Saad,
    Iterative Methods for Sparse Linear Systems, 3.4): slot ``s`` of row ``i``
    adds weight ``w[i, s]`` at column ``idx[i, s]``.  Unused slots have
    weight 0; a column repeated in one row sums its weights."""

    def __init__(self, idx: np.ndarray, w: np.ndarray, n_cols: int):
        self.idx, self.w = idx, w
        self.shape = (idx.shape[0], n_cols)

    @property
    def nnz(self) -> int:
        """Slots holding a nonzero weight."""
        return int(np.count_nonzero(self.w))

    def dot(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.w, x[self.idx])

    def block(self, rows, cols) -> SlotMatrix:
        """The submatrix on ``rows`` and ``cols`` (index arrays, boolean masks
        or slices); slots pointing at dropped columns get weight 0."""
        cols = np.arange(self.shape[1])[cols]
        pos = np.full(self.shape[1], -1, dtype=np.int64)
        pos[cols] = np.arange(cols.size)
        idx = pos[self.idx[rows]]
        kept = idx >= 0
        return SlotMatrix(np.where(kept, idx, 0), np.where(kept, self.w[rows], 0.0), cols.size)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (np.arange(self.shape[0])[:, None], self.idx), self.w)
        return out


class StepOperator(Record):
    """One step of ``system`` from B points onto the nodes of ``grid``: the
    image of point i under atom a has class code ``classes[i, a]`` (-1 where
    it fails to evaluate or to classify) and lies in the grid box where
    ``inside[i, a]``, and slot a * 2^n + c of row i of ``M`` holds its
    interpolation weight on corner c, 0 off the box."""

    system: SystemModel
    grid: Grid
    classes: np.ndarray  # (B, atoms)
    inside: np.ndarray  # (B, atoms)
    M: SlotMatrix  # (B, nodes)

    def rows(self, rows) -> StepOperator:
        """The operator at the points ``rows`` (an index array or mask) selects."""
        if rows.dtype == bool and rows.all():
            return self
        return self.replace(classes=self.classes[rows], inside=self.inside[rows],
                            M=SlotMatrix(self.M.idx[rows], self.M.w[rows], self.M.shape[1]))

    def mass(self, code: int) -> np.ndarray:
        """The probability that each point's image has class ``code``."""
        out = np.zeros(len(self.classes))
        for p, cls in zip(self.system.dist.probs, self.classes.T):
            out[cls == code] += p
        return out

    def mean(self, fld: ValueField) -> np.ndarray:
        """E[fld(f(x, th))] at each point, ``fld`` on the operator's grid read
        at the images as ``_read`` reads classified states, and NaN where an
        image failed; summed over the atoms in atom order."""
        shape = (*self.classes.shape, 1 << self.grid.n)
        g = _interpolate(fld.values, self.M.idx.reshape(shape), self.M.w.reshape(shape))
        _read(fld, g, self.inside, self.classes)
        g[self.classes < 0] = np.nan
        total = 0.0
        for p, col in zip(self.system.dist.probs, g.T):
            total = total + float(p) * col
        return total


def classify_lenient(regions: RegionSpec, xs: np.ndarray) -> np.ndarray:
    """Class codes of a (B, n) batch, -1 where classifying a row raises EvalError."""
    try:
        return classify_batch(regions, xs)
    except EvalError:
        return np.array([classify_lenient(regions, x[None])[0] if len(xs) > 1 else -1
                         for x in xs])


def step_operator(system: SystemModel, grid: Grid, regions: RegionSpec, xs: np.ndarray,
                  strict: bool = True) -> StepOperator:
    """The step operator at the (B, n) batch ``xs``.  The images are
    classified atom by atom, so an EvalError names the row of one atom's
    batch; without ``strict`` a failed image gets class -1 instead."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    atoms = system.dist.atoms.shape[0]
    # row i * atoms + a: point i under atom a
    ys = np.stack(model_mod.successors(system, xs, strict=strict), axis=1).reshape(-1, grid.n)
    ok = np.isfinite(ys).all(axis=1)
    ys[~ok] = 0.0
    classify = classify_batch if strict else classify_lenient
    classes = np.stack([classify(regions, ys[a::atoms]) for a in range(atoms)], axis=1)
    classes[~ok.reshape(classes.shape)] = -1
    inside = grid.box.contains(ys) & ok
    idx, w = _interp_weights(grid, ys)
    w[~inside] = 0.0
    slots = atoms << grid.n  # slot a * 2^n + c: corner c of the image under atom a
    return StepOperator(system, grid, classes, inside.reshape(classes.shape),
                        SlotMatrix(idx.reshape(-1, slots), w.reshape(-1, slots), grid.n_nodes))


def node_operator(system: SystemModel, grid: Grid,
                  regions: RegionSpec) -> tuple[StepOperator, np.ndarray]:
    """The step operator at the grid nodes in X, in node order, from which
    ``build_kernel`` cuts the kernel of either mode, and every node's class."""
    nodes = grid.nodes()
    node_class = classify_batch(regions, nodes)
    in_x = nodes[node_class != int(StateClass.UNSAFE)]
    return step_operator(system, grid, regions, in_x), node_class


class TransitionKernel(Record):
    """Finite absorbing-chain restriction of the one-step dynamics.

    ``one_mass[t]`` / ``zero_mass[t]`` are the per-transient-node probabilities
    of a step into the value-one / value-zero class, interpolation weight on
    absorbing nodes included; ``P`` is the transient-to-transient block (both
    axes indexed by position in ``transient``) that carries the rest.
    """

    grid: Grid
    mode: str
    transient: np.ndarray  # global indices of transient nodes
    one_nodes: np.ndarray  # absorbing nodes with value 1
    one_mass: np.ndarray  # (T,)
    zero_mass: np.ndarray  # (T,)
    P: SlotMatrix  # (T, T)

    @property
    def n_transient(self) -> int:
        return self.transient.shape[0]

    @property
    def fixed(self) -> tuple:
        """(class code, fixed value) of each class the chain absorbs: one on
        the value-one class, zero on the value-zero class."""
        return tuple((code, value) for code, value in zip(_ABSORBING[self.mode], (1.0, 0.0))
                     if code >= 0)

    @property
    def outside(self) -> float:
        """The value of a state outside the grid box, which is unsafe: one
        where the unsafe class is worth one (the exit value), else zero."""
        return float(_ABSORBING[self.mode][0] == int(StateClass.UNSAFE))

    def absorbed_values(self) -> np.ndarray:
        """Full-length value vector with absorbing entries at their fixed
        values and transient entries zero (the iteration seed)."""
        v = np.zeros(self.grid.n_nodes)
        v[self.one_nodes] = 1.0
        return v


def build_kernel(op: StepOperator, node_class: np.ndarray,
                 mode: str = MODE_REACH_AVOID) -> TransitionKernel:
    """The chain of ``mode`` cut from ``op``, the step operator at the nodes
    in X whose classes are ``node_class`` (``node_operator``): an image in a
    class the mode absorbs gives its mass to the absorbed masses, and the
    interpolation weight of the others goes to the absorbed masses where it
    lands on absorbing nodes, to the transient-to-transient block ``P``
    elsewhere.

    Raises GridTooSmallError when a transient image leaves the grid box.
    """
    if mode not in _ABSORBING:
        raise ValueError(f"unknown kernel mode {mode!r}")
    one_cls, zero_cls = _ABSORBING[mode]
    grid, probs = op.grid, op.system.dist.probs
    one_mask, zero_mask = node_class == one_cls, node_class == zero_cls
    absorbing = one_mask | zero_mask
    transient = np.flatnonzero(~absorbing)
    op = op.rows(~absorbing[node_class != int(StateClass.UNSAFE)])
    n_tr = transient.shape[0]
    mix = (op.classes != one_cls) & (op.classes != zero_cls)
    stray = mix & ~op.inside
    if stray.any():
        a, i = np.argwhere(stray.T)[0]
        x, atom = grid.nodes()[transient[i]], op.system.dist.atoms[a]
        y = model_mod.step_batch(op.system, x[None], atom[None])[0]
        raise GridTooSmallError(
            f"grid too small: node {x.tolist()} maps to safe point {y.tolist()} "
            f"outside the grid box under atom {atom.tolist()}"
        )
    w = op.M.w * np.repeat(np.where(mix, probs, 0.0), 1 << grid.n, axis=1)
    P = SlotMatrix(op.M.idx, w, grid.n_nodes)
    one_mass = op.mass(one_cls) + P.dot(one_mask.astype(float))
    zero_mass = op.mass(zero_cls) + P.dot(zero_mask.astype(float))
    P = P.block(slice(None), transient)
    total = one_mass + zero_mass + P.dot(np.ones(n_tr))
    if np.abs(total - 1.0).max(initial=0.0) > _MASS_TOL:
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
    out = kernel.absorbed_values()
    out[kernel.transient] = gamma * (kernel.one_mass + kernel.P.dot(values[kernel.transient]))
    return out


def _reach(M: SlotMatrix, seeds: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of the non-negative matrix ``M`` with a path into the boolean
    mask ``seeds``, by repeated boolean mat-vecs; also the rounds taken."""
    hit, rounds = seeds.copy(), 0
    while True:
        rounds += 1
        nxt = hit | (M.dot(hit.astype(float)) > 0)
        if (nxt == hit).all():
            return hit, rounds
        hit = nxt


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b, summed in an order fixed by the length: BLAS ddot's moves with its threads."""
    return np.einsum("i,i", a, b)


def _bicgstab(A, b: np.ndarray, target: float, max_iter: int):
    """BiCGSTAB (van der Vorst 1992) for A x = b from x = 0, restarted from the
    true residual until ||b - A x||_inf <= target, a restart stops lowering
    it, or max_iter iterations are spent.  Returns (x, ||b - A x||_inf, iters)."""
    x, r, iters = np.zeros_like(b), b.copy(), 0
    res = float(np.abs(r).max(initial=0.0))
    while res > target and iters < max_iter:
        y, r_hat, p, v = x.copy(), r.copy(), np.zeros_like(b), np.zeros_like(b)
        rho = alpha = omega = 1.0
        while iters < max_iter and np.abs(r).max() > target:
            rho_next = _dot(r_hat, r)
            if rho_next == 0.0 or omega == 0.0:
                break
            iters += 1
            p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
            v = A(p)
            rv = _dot(r_hat, v)
            alpha = rho_next / rv if rv != 0.0 else 0.0
            s = r - alpha * v
            t = A(s)
            tt = _dot(t, t)
            omega = _dot(t, s) / tt if tt > 0.0 else 0.0
            y += alpha * p + omega * s
            r, rho = s - omega * t, rho_next
        r = b - A(y)
        res_y = float(np.abs(r).max())
        if not res_y < res:  # stagnation or breakdown: keep the better iterate
            break
        x, res = y, res_y
    return x, res, iters


def _solve(kernel: TransitionKernel, gamma: float, tol: float, max_iter: int) -> ValueField:
    """Value of v = gamma * (b + P v) on transient nodes.

    Prob0: nodes with no path into the value-one class get exactly 0.  The
    rest solve (I - gamma P_kk) v = gamma b_k by BiCGSTAB.  With residual r,
    the error is (I - gamma P_kk)^-1 r, whose sup norm is at most
    ||r|| / (1 - gamma), and at gamma = 1 at most ||r|| * max E[T], E[T] being
    the expected absorption time; a second solve (I - P_kk) t = 1 - e bounds it
    by ||t|| / (1 - ||e||) because (I - P_kk)^-1 >= 0.  Values are clipped
    to [0, 1], where the true ones lie, which cannot add error.
    """
    values = kernel.absorbed_values()
    b = kernel.one_mass
    live = _reach(kernel.P, b > 0)[0]
    Pkk = kernel.P.block(live, live)

    def A(x):
        return x - gamma * Pkk.dot(x)

    scale = 1.0 / (1.0 - gamma) if gamma < 1.0 else 1.0
    iters = 0
    if gamma == 1.0 and live.any():
        # ||e|| <= 1e-6 loosens the bound by at most one part in a million
        t, e, iters = _bicgstab(A, np.ones(Pkk.shape[0]), 1e-6, max_iter)
        scale = np.abs(t).max() / (1.0 - e) if e < 1.0 else np.inf
    v, res, it = _bicgstab(A, gamma * b[live], tol / scale, max_iter - iters)
    bound = res * scale if res else 0.0
    values[kernel.transient[live]] = np.clip(v, 0.0, 1.0)
    return ValueField(values, kernel.grid, outside_default=kernel.outside,
                      converged=bound <= tol, iterations=iters + it, error_bound=bound,
                      absorbed=kernel.fixed)


def solve_reach_avoid(kernel: TransitionKernel, tol: float = 1e-9,
                      max_iter: int = 10 ** 6) -> ValueField:
    """Least fixed point of the reach-avoid recursion: the probability of
    reaching the target before leaving X.  ``converged`` is False when the
    sound ``error_bound`` exceeds ``tol`` after ``max_iter`` Krylov
    iterations."""
    if kernel.mode != MODE_REACH_AVOID:
        raise ValueError("solve_reach_avoid needs a reach_avoid-mode kernel")
    return _solve(kernel, 1.0, tol, max_iter)


def solve_safety_exit(kernel: TransitionKernel, tol: float = 1e-9,
                      max_iter: int = 10 ** 6) -> ValueField:
    """Least fixed point of the exit recursion (probability of ever leaving X).
    The liveness probability is one minus this field."""
    if kernel.mode != MODE_SAFETY:
        raise ValueError("solve_safety_exit needs a safety-mode kernel")
    return _solve(kernel, 1.0, tol, max_iter)


def solve_discounted(kernel: TransitionKernel, gamma: float, tol: float = 1e-9,
                     max_iter: int = 10 ** 6) -> ValueField:
    """Unique fixed point of the gamma-discounted recursion.

    On a reach_avoid kernel this is the discounted reach-avoid value (a lower
    bound of the undiscounted one); on a safety kernel it is the discounted
    exit value.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1); at 1 the solution is not unique")
    return _solve(kernel, gamma, tol, max_iter)


def solve_exact_small(kernel: TransitionKernel, gamma: float = 1.0) -> ValueField:
    """Dense linear solve of (I - gamma P) v = gamma b on the transient block:
    the reach-avoid or exit value of the kernel's mode, discounted when
    gamma < 1.

    Brute-force oracle for the Krylov solvers; limited to EXACT_NODE_LIMIT
    transient nodes.  A singular system at gamma = 1 means mass can stay
    transient forever, i.e. the finite-time-exit assumption fails numerically.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    n_tr = kernel.n_transient
    if n_tr > EXACT_NODE_LIMIT:
        raise ValueError(f"{n_tr} transient nodes exceed the dense-solve limit")
    # I - gamma P in one T x T array; + 0.0 makes the -0.0 of a zero entry 0.0
    A = kernel.P.toarray()
    A *= -gamma
    A += 0.0
    A.flat[::n_tr + 1] += 1.0
    rhs = gamma * kernel.one_mass
    try:
        v = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("finite-time-exit assumption (numerically) violated at "
                                  "gamma=1: singular system") from exc
    residual = float(np.abs(A @ v - rhs).max(initial=0.0))
    if not np.all(np.isfinite(v)) or residual > 1e-8:
        raise SingularSystemError("finite-time-exit assumption (numerically) violated at "
                                  f"gamma=1: solve residual {residual:.3e}")
    values = kernel.absorbed_values()
    values[kernel.transient] = v
    return ValueField(values, kernel.grid, outside_default=kernel.outside,
                      absorbed=kernel.fixed)


class Assumption1Result(Record):
    holds: bool
    sup_stay_prob: float  # exactly 0.0 or 1.0: a graph fact, not an estimate
    iterations: int  # graph rounds
    converged: bool


def check_assumption1(kernel: TransitionKernel) -> Assumption1Result:
    """Decide whether sup_x P(stay in X minus X_r forever) is zero.

    On a finite chain it is zero iff every transient node has a path to a
    node that leaks mass out of the transient set; otherwise a closed
    transient class keeps its mass forever and the sup is one.
    """
    if kernel.mode != MODE_REACH_AVOID:
        raise ValueError("check_assumption1 needs a reach_avoid-mode kernel")
    exits, rounds = _reach(kernel.P, kernel.one_mass + kernel.zero_mass > 0)
    holds = bool(exits.all())
    return Assumption1Result(holds, 0.0 if holds else 1.0, rounds, True)


def power_bracket(P: SlotMatrix, v0: np.ndarray, horizon: int,
                  tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(lo, hi, sweeps): ``lo <= P^horizon v0 <= hi`` for P, v0 >= 0, from the
    fewest sweeps ``v <- P v`` that make ``hi - lo <= tol`` at every node.
    With rho the largest (smallest) ratio (P v)_i / v_i, x/0 infinite and 0/0
    none, P^r v <= rho^r v (>=) as P >= 0 (Collatz-Wielandt; Meyer, Matrix
    Analysis, 8.3).  Past the width test, which ignores rounding, the ends move
    out by (1 + (slots + 2) 2^-52)^horizon, covering the rounding of the ratios
    and of each sweep's inner products over a row's ``slots``, run or
    extrapolated (Higham, Accuracy and Stability, 3.1), not underflow."""
    grow = (1.0 + (P.idx.shape[1] + 2) * np.finfo(float).eps) ** horizon
    v, sweeps, lo_rate, hi_rate = np.asarray(v0, dtype=float), 0, 1.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        while sweeps < horizon and v.any():
            nxt, sweeps = P.dot(v), sweeps + 1
            ratio, v, rest = nxt / v, nxt, horizon - sweeps
            lo_rate, hi_rate = np.fmin.reduce(ratio) ** rest, np.fmax.reduce(ratio) ** rest
            if (hi_rate - lo_rate) * v.max() <= tol:
                break
    return v * (lo_rate / grow), v * (hi_rate * grow), sweeps


def stay_probability(kernel: TransitionKernel, horizon: int) -> ValueField:
    """P(not yet absorbed after `horizon` steps) per node, from above: the high
    end of a 1e-12 ``power_bracket``, the truncation slack of a Monte Carlo
    estimate at any x0, and 0 on the absorbing classes.  Callers clip it to 1;
    ``iterations`` counts sweeps."""
    _, hi, sweeps = power_bracket(kernel.P, np.ones(kernel.n_transient), horizon, 1e-12)
    values = np.zeros(kernel.grid.n_nodes)
    values[kernel.transient] = hi
    return ValueField(values, kernel.grid, iterations=sweeps,
                      absorbed=tuple((code, 0.0) for code, _ in kernel.fixed))
