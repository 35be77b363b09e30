"""Monte Carlo oracle for liveness and reach-avoid probabilities.

Infinite-horizon probabilities are bracketed by truncated-horizon simulation:
the liveness estimate (stayed safe through K steps) is biased upward, the
reach-avoid estimate (hit the target by step K without leaving X first) is
biased downward.  Half-widths come from the distribution-free Hoeffding bound
sqrt(ln(2/delta) / (2 n)).

Randomness is counter-based: the uniform driving trial i at step t is a pure
function of (seed, t, i) via a Philox stream (Salmon et al., SC 2011), so
results are independent of execution order and extending the horizon
extends trajectories without re-rolling earlier steps (estimates are
monotone in K for a fixed seed).

All trials advance in lockstep, one ``model.step_batch`` and one
``regions.classify_batch`` call per step over the live trials only.  Live
states are kept column-contiguous and compacted when trials stop; each
trial picks its atom from its own uniform by an exact guide-table inversion
of the cumulative probabilities.  Neither changes a draw or an outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .expr import EvalError
from .model import SystemModel
from .regions import RegionSpec, StateClass, classify_batch

__all__ = [
    "McEstimate",
    "hoeffding_half_width",
    "estimate_liveness",
    "estimate_reach_avoid",
]

# per-trial outcome codes
ACTIVE = 0
REACHED = 1
EXITED = 2


def hoeffding_half_width(n_trials: int, delta: float) -> float:
    if n_trials < 1 or not 0.0 < delta < 1.0:
        raise ValueError("need n_trials >= 1 and delta in (0, 1)")
    return float(np.sqrt(np.log(2.0 / delta) / (2.0 * n_trials)))


@dataclass
class McEstimate:
    p_hat: float
    n_trials: int
    horizon: int
    delta: float
    half_width: float
    successes: int
    direction: str  # upper_biased_for_liveness | lower_biased_for_reach_avoid
    error: str | None = None  # simulation aborted; counts are partial


def _step_uniforms(seed: int, sweep: int, count: int) -> np.ndarray:
    # Disjoint 2^64-block counter ranges per sweep keep draws for different
    # steps non-overlapping regardless of the trial count.
    counter = np.zeros(4, dtype=np.uint64)
    counter[1] = np.uint64(sweep)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))
    return gen.random(count)


def _atom_picker(cum: np.ndarray):
    """The function u -> ``np.searchsorted(cum, u, side="right")`` for u in
    [0, 1), computed exactly by a guide table (Chen & Asau 1974).

    [0, 1) is cut into G equal buckets, G the least power of two >= K, so
    u * G is exact and bucket b = floor(u G) holds b/G <= u < (b+1)/G.
    ``guide[b]`` counts the thresholds <= b/G, a lower bound on the answer;
    each fix-up step moves past one more threshold <= u, and as many steps
    run as the most thresholds any bucket holds strictly inside it.  The
    thresholds <= u form a prefix of ``cum`` because ``cum[-1] = 1 > u``.
    """
    n_buckets = 1 << (cum.size - 1).bit_length()
    edges = np.arange(n_buckets + 1) / n_buckets
    guide = np.searchsorted(cum, edges[:-1], side="right")
    fixups = int((np.searchsorted(cum, edges[1:], side="left") - guide).max())

    def pick(u: np.ndarray) -> np.ndarray:
        k = np.take(guide, (u * n_buckets).astype(np.intp))
        for _ in range(fixups):
            k += np.take(cum, k) <= u
        return k

    return pick


def _run_trials(system: SystemModel, regions: RegionSpec, x0, horizon: int,
                n_trials: int, seed: int, absorb_target: bool):
    """Advance all trials in lockstep sweeps until absorption or horizon.

    Only the live trials are stepped: their states, column-contiguous, and
    their trial indices are compacted whenever a trial stops, so no step
    gathers through a mask of all trials.  Trial i still draws uniform i of
    each step's stream, so the outcome does not depend on the compaction.

    Returns (status, steps_taken); status holds REACHED/EXITED/ACTIVE per
    trial, where REACHED only occurs with ``absorb_target``.  Raises EvalError
    if the dynamics fail to evaluate.
    """
    x0 = np.asarray(x0, dtype=float)
    status = np.full(n_trials, ACTIVE, dtype=np.int8)
    steps = np.zeros(n_trials, dtype=np.int64)

    start_class = classify_batch(regions, x0.reshape(1, -1))[0]
    if start_class == int(StateClass.UNSAFE):
        status[:] = EXITED
        return status, steps
    if absorb_target and start_class == int(StateClass.TARGET):
        status[:] = REACHED
        return status, steps

    pick = _atom_picker(system.dist.cum_probs)
    atoms = system.dist.atoms
    live = np.arange(n_trials)  # indices of the live trials, increasing
    states = np.repeat(x0[:, None], n_trials, axis=1).T  # (live, n), column-contiguous
    for t in range(horizon):
        u = np.take(_step_uniforms(seed, t, n_trials), live)
        ths = np.take(atoms, pick(u), axis=0)
        states = model_mod.step_batch(system, states, ths, strict=True)
        cls = classify_batch(regions, states)
        if absorb_target:
            stop = cls != int(StateClass.SAFE)
        else:
            stop = cls == int(StateClass.UNSAFE)
        if not stop.any():
            continue
        stopped = np.compress(stop, live)
        status[stopped] = np.where(np.compress(stop, cls) == int(StateClass.UNSAFE),
                                   EXITED, REACHED)
        steps[stopped] = t + 1
        keep = ~stop
        live = np.compress(keep, live)
        if live.size == 0:
            break
        states = np.compress(keep, states.T, axis=1).T
    steps[live] = horizon
    return status, steps


def estimate_liveness(system: SystemModel, regions: RegionSpec, x0, horizon: int,
                      n_trials: int, delta: float, seed: int) -> McEstimate:
    """Estimate P(stay in X through step K), an upper bound on the
    infinite-horizon liveness probability.  Trials stop at the first exit;
    the target set plays no role."""
    if horizon < 1 or n_trials < 1:
        raise ValueError("need horizon >= 1 and n_trials >= 1")
    half = hoeffding_half_width(n_trials, delta)
    try:
        status, _ = _run_trials(system, regions, x0, horizon, n_trials, seed,
                                absorb_target=False)
    except EvalError as exc:
        return McEstimate(0.0, n_trials, horizon, delta, half, 0,
                          "upper_biased_for_liveness", error=str(exc))
    successes = int(np.count_nonzero(status == ACTIVE))
    return McEstimate(successes / n_trials, n_trials, horizon, delta, half,
                      successes, "upper_biased_for_liveness")


def estimate_reach_avoid(system: SystemModel, regions: RegionSpec, x0, horizon: int,
                         n_trials: int, delta: float, seed: int) -> McEstimate:
    """Estimate P(hit X_r by step K while staying in X until the hit), a lower
    bound on the infinite-horizon reach-avoid probability.  Trials stop at the
    first target hit or the first exit."""
    if horizon < 1 or n_trials < 1:
        raise ValueError("need horizon >= 1 and n_trials >= 1")
    half = hoeffding_half_width(n_trials, delta)
    try:
        status, _ = _run_trials(system, regions, x0, horizon, n_trials, seed,
                                absorb_target=True)
    except EvalError as exc:
        return McEstimate(0.0, n_trials, horizon, delta, half, 0,
                          "lower_biased_for_reach_avoid", error=str(exc))
    successes = int(np.count_nonzero(status == REACHED))
    return McEstimate(successes / n_trials, n_trials, horizon, delta, half,
                      successes, "lower_biased_for_reach_avoid")
