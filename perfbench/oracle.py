"""Independent reference values for the benchmark's scenarios.

Nothing here imports stochcert.  Each scenario's dynamics and regions are
written out again as numpy code, the grid chain is rebuilt from them, and the
value problems are solved directly:

* nodes that cannot reach the value-one class get exactly 0 (a graph
  search, so the singular chain of the invariant contraction needs no
  tolerance), and the rest solve ``(I - P) v = b`` with a sparse direct solve;
* discounted values solve ``(I - gamma P) v = gamma b``, which is never
  singular.

The numeric parameters (atoms, grid, x0, gamma, Monte Carlo horizon) are read
from the scenario file.  The expressions in the file must equal the ones
coded here, so an edited scenario fails loudly instead of being compared
with a stale reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import yaml

import discwalk

TARGET, SAFE, UNSAFE = 0, 1, 2


def _classes(in_target: np.ndarray, in_safe: np.ndarray) -> np.ndarray:
    codes = np.full(in_safe.shape[0], UNSAFE, dtype=np.int8)
    codes[in_safe] = SAFE
    codes[in_target] = TARGET
    return codes


def _walk_step(xs, th):
    return xs + th


def _walk_classify(xs):
    x = xs[:, 0]
    return _classes((x >= 10) & (x < 11), (x > 0) & (x < 11))


def _contraction_step(xs, th):
    return 0.5 * xs + 0 * th


def _contraction_classify(xs):
    x = xs[:, 0]
    return _classes((x >= -0.05) & (x <= 0.05), (x >= -1) & (x <= 1))


def _disc_step(xs, th):
    (a11, a12), (a21, a22) = discwalk.A
    x1, x2 = xs[:, 0], xs[:, 1]
    return np.column_stack([a11 * x1 + a12 * x2 + th[..., 0],
                            a21 * x1 + a22 * x2 + th[..., 1]])


def _disc_classify(xs):
    r2 = xs[:, 0] * xs[:, 0] + xs[:, 1] * xs[:, 1]
    return _classes(r2 < discwalk.TARGET_R2, r2 < discwalk.SAFE_R2)


@dataclass(frozen=True)
class Dynamics:
    step: Callable  # (B, n) states, (m,) or (B, m) disturbances -> (B, n)
    classify: Callable  # (B, n) -> class codes
    text: tuple  # (dynamics, safe, target) exactly as the scenario file has them


_DISC_TEXT = (
    ["0.95*x1 + 0.1*x2 + th1", "-0.05*x1 + 0.9*x2 + th2"],
    "x1^2 + x2^2 < 1.0",
    "x1^2 + x2^2 < 0.04",
)

DYNAMICS = {
    "symmetric-walk": Dynamics(
        _walk_step, _walk_classify,
        (["x1 + th1"], "x1 > 0 && x1 < 11", "x1 >= 10 && x1 < 11"),
    ),
    "biased-walk": Dynamics(
        _walk_step, _walk_classify,
        (["x1 + th1"], "x1 > 0 && x1 < 11", "x1 >= 10 && x1 < 11"),
    ),
    "invariant-contraction": Dynamics(
        _contraction_step, _contraction_classify,
        (["0.5*x1 + 0*th1"], "x1 >= -1 && x1 <= 1", "x1 >= -0.05 && x1 <= 0.05"),
    ),
    "disc-walk-2d": Dynamics(_disc_step, _disc_classify, _DISC_TEXT),
}


@dataclass
class Scenario:
    name: str
    dyn: Dynamics
    atoms: np.ndarray  # (K, m)
    probs: np.ndarray  # (K,)
    lower: np.ndarray
    upper: np.ndarray
    cells: np.ndarray
    x0: np.ndarray
    gamma: float
    mc_horizon: int
    mc_delta: float


def load(path) -> Scenario:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    name = raw["name"]
    dyn = DYNAMICS[name]
    sys_block, reg = raw["system"], raw["regions"]
    found = (list(sys_block["dynamics"]), reg["safe"], reg["target"])
    if found != tuple(dyn.text):
        raise ValueError(f"{path}: expressions {found} differ from the reference {dyn.text}")
    dist = sys_block["disturbance"]
    if dist["kind"] != "finite":
        raise ValueError(f"{path}: only finite disturbances have a reference")
    x0 = raw.get("initial_state") or raw["initial_states"][0]
    return Scenario(
        name=name,
        dyn=dyn,
        atoms=np.asarray(dist["atoms"], dtype=float).reshape(len(dist["probs"]), -1),
        probs=np.asarray(dist["probs"], dtype=float),
        lower=np.atleast_1d(np.asarray(raw["grid"]["lower"], dtype=float)),
        upper=np.atleast_1d(np.asarray(raw["grid"]["upper"], dtype=float)),
        cells=np.atleast_1d(np.asarray(raw["grid"]["cells"], dtype=np.int64)),
        x0=np.asarray(x0, dtype=float),
        gamma=float(raw["gamma"]),
        mc_horizon=int(raw["mc"]["horizon"]),
        mc_delta=float(raw["mc"]["delta"]),
    )


# grid chain ------------------------------------------------------------


def nodes(sc: Scenario) -> np.ndarray:
    h = (sc.upper - sc.lower) / sc.cells
    axes = [sc.lower[d] + (np.arange(sc.cells[d]) + 0.5) * h[d] for d in range(len(sc.cells))]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(sc.cells))


def interpolate(sc: Scenario, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear corner indices and weights, both (B, 2^n), with points in
    the half-cell margin clamped onto the outermost nodes."""
    n = len(sc.cells)
    pos = (ys - sc.lower) / ((sc.upper - sc.lower) / sc.cells) - 0.5
    pos = np.clip(pos, 0.0, sc.cells - 1.0)
    base = np.minimum(np.floor(pos).astype(np.int64), np.maximum(sc.cells - 2, 0))
    frac = pos - base
    idx = np.zeros((ys.shape[0], 1 << n), dtype=np.int64)
    w = np.ones((ys.shape[0], 1 << n))
    for corner in range(1 << n):
        for d in range(n):
            up = (corner >> (n - 1 - d)) & 1
            coord = np.minimum(base[:, d] + up, sc.cells[d] - 1)
            idx[:, corner] = idx[:, corner] * sc.cells[d] + coord
            w[:, corner] *= frac[:, d] if up else 1.0 - frac[:, d]
    return idx, w


@dataclass
class Chain:
    """Absorbing chain on the grid: ``b`` is the one-step mass into the
    value-one class, ``P`` the transient-to-transient block."""

    transient: np.ndarray
    one_nodes: np.ndarray
    b: np.ndarray
    P: sp.csr_matrix
    n_nodes: int


def build_chain(sc: Scenario, reach: bool) -> Chain:
    """``reach`` absorbs at the target (value 1) and outside X (value 0);
    otherwise only outside X absorbs, with value 1 (the exit problem)."""
    pts = nodes(sc)
    cls = sc.dyn.classify(pts)
    transient = np.flatnonzero(cls == SAFE) if reach else np.flatnonzero(cls != UNSAFE)
    one_nodes = np.flatnonzero(cls == (TARGET if reach else UNSAFE))
    xs = pts[transient]
    b = np.zeros(transient.size)
    rows, cols, vals = [], [], []
    for atom, p in zip(sc.atoms, sc.probs):
        ys = sc.dyn.step(xs, atom)
        c = sc.dyn.classify(ys)
        one = c == (TARGET if reach else UNSAFE)
        zero = (c == UNSAFE) if reach else np.zeros_like(one)
        b[one] += p
        mix = np.flatnonzero(~(one | zero))
        inside = np.all((ys[mix] >= sc.lower) & (ys[mix] <= sc.upper), axis=1)
        if not inside.all():
            raise ValueError(f"{sc.name}: a safe image leaves the grid box")
        idx, w = interpolate(sc, ys[mix])
        rows.append(np.repeat(mix, idx.shape[1]))
        cols.append(idx.ravel())
        vals.append(p * w.ravel())
    full = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(transient.size, len(cls)))
    b = b + np.asarray(full[:, one_nodes].sum(axis=1)).ravel()
    return Chain(transient, one_nodes, b, full[:, transient].tocsr(), len(cls))


def can_reach(P: sp.csr_matrix, seeds: np.ndarray) -> np.ndarray:
    """Transient nodes with a positive-probability path into ``seeds``."""
    hit = seeds.copy()
    while True:
        nxt = hit | (P.dot(hit.astype(float)) > 0)
        if (nxt == hit).all():
            return hit
        hit = nxt


def solve(ch: Chain, gamma: float = 1.0) -> np.ndarray:
    """Node values of the least fixed point of v = gamma (b + P v)."""
    v = np.zeros(ch.transient.size)
    live = can_reach(ch.P, ch.b > 0) if gamma == 1.0 else np.ones(v.size, dtype=bool)
    if live.any():
        sub = ch.P[live][:, live]
        A = (sp.identity(sub.shape[0], format="csc") - gamma * sub).tocsc()
        v[live] = spla.spsolve(A, gamma * ch.b[live])
    full = np.zeros(ch.n_nodes)
    full[ch.one_nodes] = 1.0
    full[ch.transient] = v
    return full


def within_horizon(ch: Chain, horizon: int) -> np.ndarray:
    """Node values of P(reach the value-one class within ``horizon`` steps)."""
    v = np.zeros(ch.transient.size)
    for _ in range(horizon):
        v = ch.b + ch.P.dot(v)
    full = np.zeros(ch.n_nodes)
    full[ch.one_nodes] = 1.0
    full[ch.transient] = v
    return full


def value_at(sc: Scenario, values: np.ndarray, x, outside: float) -> float:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all((x >= sc.lower) & (x <= sc.upper)):
        return outside
    idx, w = interpolate(sc, x)
    return float(np.sum(values[idx] * w))


def hoeffding(trials: int, delta: float) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * trials))


# references ------------------------------------------------------------


@dataclass
class Reference:
    """Values at x0 and Monte Carlo targets for one scenario.

    ``mc`` maps 'liveness'/'reach_avoid' to (value, slack): an estimate with
    half-width h passes when it lies within h + slack of value."""

    name: str  # the scenario's name
    dp: dict  # reach_avoid, exit, discounted, discounted_exit
    mc: dict


def reference(sc: Scenario, mc_seed: int | None = None, mc_trials: int = 20000) -> Reference:
    """Solve the four value problems at x0.

    Without ``mc_seed`` the Monte Carlo targets are the infinite-horizon
    values, with the gap to the horizon-K values of the chain as slack (exact
    for the 1-D walks).  With it, the targets come from an independent
    simulation of the continuous system at the same horizon, and the slack is
    that simulation's own Hoeffding half-width.
    """
    reach, safety = build_chain(sc, reach=True), build_chain(sc, reach=False)
    ra_nodes, exit_nodes = solve(reach), solve(safety)
    dp = {
        "reach_avoid": value_at(sc, ra_nodes, sc.x0, 0.0),
        "exit": value_at(sc, exit_nodes, sc.x0, 1.0),
        "discounted": value_at(sc, solve(reach, sc.gamma), sc.x0, 0.0),
        "discounted_exit": value_at(sc, solve(safety, sc.gamma), sc.x0, 1.0),
    }
    if mc_seed is None:
        ra_k = value_at(sc, within_horizon(reach, sc.mc_horizon), sc.x0, 0.0)
        live_k = 1.0 - value_at(sc, within_horizon(safety, sc.mc_horizon), sc.x0, 1.0)
        live = 1.0 - dp["exit"]
        mc = {"reach_avoid": (dp["reach_avoid"], abs(ra_k - dp["reach_avoid"])),
              "liveness": (live, abs(live_k - live))}
    else:
        live_k, ra_k = simulate(sc, mc_seed, mc_trials)
        h = hoeffding(mc_trials, sc.mc_delta)
        mc = {"reach_avoid": (ra_k, h), "liveness": (live_k, h)}
    return Reference(sc.name, dp, mc)


def simulate(sc: Scenario, seed: int, trials: int) -> tuple[float, float]:
    """P(stay in X for K steps) and P(hit X_r within K steps before leaving
    X), estimated from ``trials`` paths of the continuous system."""
    rng = np.random.default_rng([seed, 0x5EED])
    cum = np.cumsum(sc.probs)
    states = np.tile(sc.x0, (trials, 1))
    start = sc.dyn.classify(sc.x0.reshape(1, -1))[0]
    alive = np.full(trials, start != UNSAFE)  # not yet outside X
    hit = np.full(trials, start == TARGET)  # reached X_r while alive
    for _ in range(sc.mc_horizon):
        k = np.minimum(np.searchsorted(cum, rng.random(trials), side="right"), len(cum) - 1)
        states[alive] = sc.dyn.step(states[alive], sc.atoms[k[alive]])
        cls = sc.dyn.classify(states)
        hit |= alive & (cls == TARGET)
        alive &= cls != UNSAFE
    return float(alive.mean()), float(hit.mean())
