"""Grid discretization and Bellman fixed-point solvers.

The continuous system is restricted to an absorbing chain on grid-cell
centers: one-step images that land in an absorbing class (target or unsafe,
depending on the kernel mode) absorb their probability mass, images that stay
transient are spread over the surrounding nodes by multilinear interpolation.
The chain is stored in its canonical form (Kemeny & Snell, Finite Markov
Chains, ch. III): the transient-to-transient block P, with the interpolation
weight that lands on absorbing nodes folded into the absorbed masses.  Three
value problems share one fixed point:

    v = gamma * (b + P v)   on transient nodes,

where b is the per-node mass absorbed into the value-one class.  The value
function is the least fixed point.  One solver finds it for all three: a graph
pass sets nodes that cannot reach the value-one class to 0 (Baier & Katoen,
Principles of Model Checking, 10.1), BiCGSTAB solves the nonsingular rest, and
an a-posteriori bound on the sup-norm error comes with every field.

The kernel matrix is a numpy ELLPACK matrix (``SlotMatrix``): a row holds at
most atoms * 2^n entries, so fixed slots need no sparse-matrix library.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import model as model_mod
from .expr import NumericError, Record
from .model import SystemModel
from .regions import Box, RegionSpec, StateClass, classify_batch

__all__ = [
    "Grid",
    "SlotMatrix",
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


class ValueField(Record):
    """Node values with multilinear interpolation and an outside-box default."""

    values: np.ndarray
    grid: Grid
    outside_default: float = 0.0
    converged: bool = True
    iterations: int = 0
    error_bound: float = 0.0  # sup-norm bound on the solver error at the nodes

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


def build_kernel(
    system: SystemModel,
    grid: Grid,
    regions: RegionSpec,
    mode: str = MODE_REACH_AVOID,
) -> TransitionKernel:
    """Classify nodes and push each transient node through every atom: mass
    that an image absorbs or interpolates onto absorbing nodes goes to the
    absorbed masses, the rest to the transient-to-transient block ``P``.

    Raises GridTooSmallError when a safe image leaves the grid box.
    """
    if mode not in _ABSORBING:
        raise ValueError(f"unknown kernel mode {mode!r}")
    one_cls, zero_cls = _ABSORBING[mode]
    nodes = grid.nodes()
    node_class = classify_batch(regions, nodes)
    one_mask, zero_mask = node_class == one_cls, node_class == zero_cls
    transient = np.flatnonzero(~(one_mask | zero_mask))
    n_tr, n_atoms = transient.shape[0], system.dist.atoms.shape[0]
    xs = nodes[transient]
    images = model_mod.successors(system, xs)
    # classified atom by atom, so an EvalError names the row of one atom's batch
    img_class = np.concatenate([classify_batch(regions, ys) for ys in images])
    ys = np.concatenate(images)  # row a * T + i: node i under atom a
    mix = (img_class != one_cls) & (img_class != zero_cls)
    stray = mix & ~grid.box.contains(ys)
    if stray.any():
        a, i = divmod(int(np.flatnonzero(stray)[0]), n_tr)
        raise GridTooSmallError(
            f"grid too small: node {xs[i].tolist()} maps to safe point {images[a][i].tolist()} "
            f"outside the grid box under atom {system.dist.atoms[a].tolist()}"
        )
    one_mass, zero_mass = np.zeros(n_tr), np.zeros(n_tr)
    for p, cls in zip(system.dist.probs, img_class.reshape(n_atoms, n_tr)):
        one_mass[cls == one_cls] += p
        zero_mass[cls == zero_cls] += p
    idx, w = _interp_weights(grid, ys)
    w *= np.where(mix, np.repeat(system.dist.probs, n_tr), 0.0)[:, None]
    # slot a * 2^n + c of node i holds corner c of its image under atom a
    corners = 1 << grid.n
    idx, w = (arr.reshape(n_atoms, n_tr, corners).swapaxes(0, 1).reshape(n_tr, n_atoms * corners)
              for arr in (idx, w))
    P = SlotMatrix(idx, w, grid.n_nodes)
    one_mass = one_mass + P.dot(one_mask.astype(float))
    zero_mass = zero_mass + P.dot(zero_mask.astype(float))
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
            rho_next = r_hat @ r
            if rho_next == 0.0 or omega == 0.0:
                break
            iters += 1
            p = r + (rho_next / rho) * (alpha / omega) * (p - omega * v)
            v = A(p)
            rv = r_hat @ v
            alpha = rho_next / rv if rv != 0.0 else 0.0
            s = r - alpha * v
            t = A(s)
            tt = t @ t
            omega = (t @ s) / tt if tt > 0.0 else 0.0
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
                      converged=bound <= tol, iterations=iters + it, error_bound=bound)


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
    A = np.eye(n_tr) - gamma * kernel.P.toarray()
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
    return ValueField(values, kernel.grid, outside_default=kernel.outside)


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


def stay_probability(kernel: TransitionKernel, horizon: int) -> ValueField:
    """P(chain not yet absorbed after `horizon` steps) per node: the truncation
    slack separating a finite-horizon Monte Carlo estimate from its limit.
    It does not depend on the initial state, so one field serves every x0;
    evaluated values may leave [0, 1] by rounding and are clipped by callers."""
    s = np.ones(kernel.n_transient)
    for _ in range(horizon):
        if s.size == 0 or s.max() < 1e-15:
            break
        s = kernel.P.dot(s)
    values = np.zeros(kernel.grid.n_nodes)
    values[kernel.transient] = s
    return ValueField(values, kernel.grid)
