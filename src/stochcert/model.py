"""Stochastic difference equation x(l+1) = f(x(l), th(l)) with i.i.d. disturbances.

Disturbances have finite support, so one-step expectations are exact finite
sums; continuous disturbances must be quantized up front (``quantize_uniform``
and ``quantize_gaussian``).  ``DisturbanceDist.draw`` is the one map from
uniforms to atoms: the Monte Carlo oracle and ``simulate`` both draw through
it.  Models and distributions are immutable; simulation takes an explicit
seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr
from .expr import EvalError, ExprAst, Record

__all__ = [
    "DisturbanceDist",
    "SystemModel",
    "Trajectory",
    "step_batch",
    "successors",
    "simulate",
    "quantize_uniform",
    "quantize_gaussian",
]

_PROB_TOL = 1e-12


class DisturbanceDist(Record, frozen=True):
    """Finite-support disturbance distribution: atom k drawn with probs[k].

    ``draw`` maps uniforms to atoms by a guide table (Chen & Asau 1974),
    built once per law and kept outside the fields, so equality and
    ``repr`` read the atoms and probabilities alone.
    """

    atoms: np.ndarray  # (K, m)
    probs: np.ndarray  # (K,)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        if atoms.shape[0] == 0 or probs.shape != (atoms.shape[0],):
            raise ValueError("atoms and probs must be equal nonzero length")
        if np.any(probs <= 0) or np.any(probs > 1):
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(probs.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        seen = {tuple(a) for a in atoms}
        if len(seen) != atoms.shape[0]:
            raise ValueError("atoms must be pairwise distinct")
        # [0, 1) is cut into G equal buckets, G the least power of two >= K,
        # so u * G is exact and bucket b = floor(u G) holds b/G <= u < (b+1)/G.
        # guide[b] counts the thresholds <= b/G, a lower bound on the atom's
        # index; each fix-up step moves past one more threshold <= u, and as
        # many steps run as the most thresholds any bucket holds strictly
        # inside it.  The thresholds <= u form a prefix of cum because
        # cum[-1] = 1 > u.
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        n_buckets = 1 << (cum.size - 1).bit_length()
        edges = np.arange(n_buckets + 1) / n_buckets
        guide = np.searchsorted(cum, edges[:-1], side="right")
        fixups = int((np.searchsorted(cum, edges[1:], side="left") - guide).max())
        object.__setattr__(self, "_table", (cum, n_buckets, guide, fixups))

    @property
    def m(self) -> int:
        return self.atoms.shape[1]

    @property
    def cum_probs(self) -> np.ndarray:
        return self._table[0].copy()

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The atoms at uniforms u in [0, 1), one row per entry of u: the
        atom ``np.searchsorted(self.cum_probs, u, side="right")``, exactly."""
        cum, n_buckets, guide, fixups = self._table
        k = np.take(guide, (u * n_buckets).astype(np.intp))
        for _ in range(fixups):
            k += np.take(cum, k) <= u
        return np.take(self.atoms, k, axis=0)


class SystemModel(Record, frozen=True):
    """Dynamics f given coordinate-wise as expression ASTs plus the disturbance law."""

    n: int
    m: int
    dynamics: tuple[ExprAst, ...]
    dist: DisturbanceDist

    def __post_init__(self):
        object.__setattr__(self, "dynamics", tuple(self.dynamics))
        if len(self.dynamics) != self.n:
            raise ValueError(f"need {self.n} dynamics expressions, got {len(self.dynamics)}")
        if self.dist.m != self.m:
            raise ValueError(f"disturbance dimension {self.dist.m} != m={self.m}")


class Trajectory(Record):
    """Simulated path; states[l+1] = f(states[l], disturbances[l]) re-evaluates exactly."""

    states: np.ndarray  # (L+1, n)
    disturbances: np.ndarray  # (L, m)
    error: str | None = None  # set when simulation aborted early


def step_batch(model: SystemModel, xs: np.ndarray, ths: np.ndarray,
               strict: bool = True) -> np.ndarray:
    """Vectorized transition of a (B, n) batch under per-row disturbances (B, m).

    The (B, n) result is column-contiguous (Fortran order): each coordinate
    is one contiguous array, the layout in which the next step reads it.
    """
    return expr.eval_expr_batch(model.dynamics, xs, ths, strict=strict).T


def successors(model: SystemModel, xs: np.ndarray, strict: bool = True) -> list[np.ndarray]:
    """The one-step images of a (B, n) batch under every atom: one
    ``step_batch`` result per atom, in atom order."""
    return [step_batch(model, xs, np.broadcast_to(atom, (len(xs), model.m)), strict=strict)
            for atom in model.dist.atoms]


def simulate(model: SystemModel, x0, horizon: int, seed: int) -> Trajectory:
    """Simulate ``horizon`` steps from x0, deterministic for a fixed seed.

    On an evaluation error the trajectory is truncated and the error recorded.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    draws = model.dist.draw(np.random.default_rng(seed).random(horizon))
    states = [np.asarray(x0, dtype=float)]
    for t in range(horizon):
        try:
            states.append(step_batch(model, states[-1][None, :], draws[t:t + 1])[0])
        except EvalError as exc:
            return Trajectory(states=np.array(states), disturbances=draws[:t], error=str(exc))
    return Trajectory(states=np.array(states), disturbances=draws)


def quantize_uniform(lo: float, hi: float, atoms_per_dim: int) -> DisturbanceDist:
    """Quantize Uniform(lo, hi) to equal-probability midpoint atoms."""
    if hi <= lo:
        raise ValueError("need hi > lo")
    if atoms_per_dim < 1:
        raise ValueError("need at least one atom")
    edges = np.linspace(lo, hi, atoms_per_dim + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    probs = np.full(atoms_per_dim, 1.0 / atoms_per_dim)
    probs /= probs.sum()
    return DisturbanceDist(atoms=mids.reshape(-1, 1), probs=probs)


def quantize_gaussian(mean: float, std: float, atoms_per_dim: int) -> DisturbanceDist:
    """Quantize N(mean, std^2), truncated to mean +- 4 std, to midpoint atoms
    carrying the renormalized cell masses."""
    if std <= 0:
        raise ValueError("std must be positive")
    if atoms_per_dim < 1:
        raise ValueError("need at least one atom")
    edges = np.linspace(mean - 4.0 * std, mean + 4.0 * std, atoms_per_dim + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])

    def cdf(z: float) -> float:
        return 0.5 * (1.0 + math.erf((z - mean) / (std * math.sqrt(2.0))))

    masses = np.array([cdf(b) - cdf(a) for a, b in zip(edges[:-1], edges[1:])])
    probs = masses / masses.sum()
    return DisturbanceDist(atoms=mids.reshape(-1, 1), probs=probs)
