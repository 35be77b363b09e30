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
``regions.classify_batch`` call per step over the live trials only, and one
pass records each trial's liveness and reach-avoid outcomes.  Live states
are kept column-contiguous and compacted when trials stop; each trial picks
its atom from its own uniform by an exact guide-table inversion of the
cumulative probabilities.  Neither changes a draw or an outcome.

On Linux the trials run as contiguous blocks, one per available CPU and
none under ``MIN_BLOCK`` trials: block 0 in the calling process, the others
in forked children that write their outcomes into one shared mapping.  A
block starting at trial ``first`` (a multiple of 4) reads each step's stream
from word ``first`` on, so no outcome depends on the split or the CPU count.
If any block meets an evaluation error, one process reruns every trial, so
errors read as in a single pass.
"""

from __future__ import annotations

import os

import numpy as np

from . import model as model_mod
from .expr import EvalError, Record
from .model import SystemModel
from .regions import RegionSpec, StateClass, classify_batch

__all__ = [
    "McEstimate",
    "hoeffding_half_width",
    "estimate",
]

# per-trial outcome codes
ACTIVE = 0
REACHED = 1
EXITED = 2

# trials per block at least; below it, per-step Python overhead dominates
MIN_BLOCK = 4096


def hoeffding_half_width(n_trials: int, delta: float) -> float:
    if n_trials < 1 or not 0.0 < delta < 1.0:
        raise ValueError("need n_trials >= 1 and delta in (0, 1)")
    return float(np.sqrt(np.log(2.0 / delta) / (2.0 * n_trials)))


class McEstimate(Record):
    p_hat: float
    n_trials: int
    horizon: int
    delta: float
    half_width: float
    successes: int
    direction: str  # upper_biased_for_liveness | lower_biased_for_reach_avoid
    error: str | None = None  # simulation aborted; counts are partial


def _step_uniforms(seed: int, sweep: int, count: int, first: int = 0) -> np.ndarray:
    # Disjoint 2^64-block counter ranges per sweep keep draws for different
    # steps non-overlapping regardless of the trial count.  Philox4x64 yields
    # four words, one per uniform, per counter value, so uniform ``first``
    # (a multiple of 4) opens counter value first // 4.
    counter = np.zeros(4, dtype=np.uint64)
    counter[0] = np.uint64(first // 4)
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
                n_trials: int, seed: int, first: int = 0):
    """Advance trials ``first ... first + n_trials - 1`` in lockstep sweeps
    and record both outcomes; ``first`` is a multiple of 4.

    Returns ``(liveness, reach_avoid)``, each ``(status, steps, error)``.
    Liveness status is EXITED at the first exit or ACTIVE through the
    horizon; reach-avoid status is REACHED at the first target hit before any
    exit, EXITED at an exit before any hit, or ACTIVE.  ``steps`` is the step
    of that event, or ``horizon``.  ``error`` is the EvalError message that
    aborted the outcome (its arrays are then partial), or None.

    A trial is stepped while it has not exited, so both outcomes read one
    trajectory; the reach-avoid bookkeeping ends once every live trial has
    hit the target.  Only the live trials are stepped: their states,
    column-contiguous, and their trial indices are compacted whenever a trial
    stops.  Trial i draws uniform i of each step's stream, so no outcome
    depends on which trials share a step.

    Each outcome fails exactly as a pass of its own would: the step that
    fails first aborts liveness, and is then taken again with only the trials
    whose reach-avoid outcome is still open, in index order, which continue
    alone.
    """
    x0 = np.asarray(x0, dtype=float)
    live_status = np.full(n_trials, ACTIVE, dtype=np.int8)
    live_steps = np.full(n_trials, horizon, dtype=np.int64)
    reach_status, reach_steps = live_status.copy(), live_steps.copy()
    live_error = reach_error = None

    def outcomes():
        return (live_status, live_steps, live_error), (reach_status, reach_steps, reach_error)

    try:
        start_class = classify_batch(regions, x0.reshape(1, -1))[0]
    except EvalError as exc:
        live_error = reach_error = str(exc)
        return outcomes()
    if start_class == int(StateClass.UNSAFE):
        live_status[:] = reach_status[:] = EXITED
        live_steps[:] = reach_steps[:] = 0
        return outcomes()
    # open_[j]: live trial j has neither hit the target nor exited; None
    # once no live trial is open
    open_ = np.ones(n_trials, dtype=bool)
    if start_class == int(StateClass.TARGET):
        reach_status[:] = REACHED
        reach_steps[:] = 0
        open_ = None

    pick = _atom_picker(system.dist.cum_probs)
    atoms = system.dist.atoms
    live = np.arange(n_trials)  # indices of the live trials, increasing
    states = np.repeat(x0[:, None], n_trials, axis=1).T  # (live, n), column-contiguous
    t = 0
    while t < horizon:
        u = np.take(_step_uniforms(seed, t, n_trials, first), live)
        ths = np.take(atoms, pick(u), axis=0)
        try:
            nxt = model_mod.step_batch(system, states, ths, strict=True)
            cls = classify_batch(regions, nxt)
        except EvalError as exc:
            if live_error is not None:
                reach_error = str(exc)
                break
            live_error = str(exc)
            if open_ is None:
                break
            # take this step again with the open trials only
            live = np.compress(open_, live)
            states = np.compress(open_, states.T, axis=1).T
            open_ = np.ones(live.size, dtype=bool)
            continue
        states = nxt
        t += 1
        if open_ is not None:
            done = open_ & (cls != int(StateClass.SAFE))
            if done.any():
                stopped = np.compress(done, live)
                reach_status[stopped] = np.where(
                    np.compress(done, cls) == int(StateClass.UNSAFE), EXITED, REACHED)
                reach_steps[stopped] = t
                open_ &= ~done
        # liveness needs a trial until it exits; without it, only open ones
        keep = cls != int(StateClass.UNSAFE) if live_error is None else open_
        if not keep.all():
            if live_error is None:
                stopped = np.compress(~keep, live)
                live_status[stopped] = EXITED
                live_steps[stopped] = t
            live = np.compress(keep, live)
            states = np.compress(keep, states.T, axis=1).T
            if open_ is not None:
                open_ = np.compress(keep, open_)
        if open_ is not None and not open_.any():
            open_ = None
        if live.size == 0:
            break
    return outcomes()


def _run_split(system: SystemModel, regions: RegionSpec, x0, horizon: int,
               n_trials: int, seed: int):
    """``_run_trials`` over every trial, run as contiguous blocks on the
    available CPUs (see the module docstring); same return value."""
    linux = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n_blocks = min(len(os.sched_getaffinity(0)), n_trials // MIN_BLOCK) if linux else 1
    if n_blocks < 2:
        return _run_trials(system, regions, x0, horizon, n_trials, seed)
    import mmap

    edges = [4 * (n_trials * b // n_blocks // 4) for b in range(n_blocks)] + [n_trials]
    shared = mmap.mmap(-1, 18 * n_trials)  # steps (int64), then statuses (int8)
    steps = np.frombuffer(shared, np.int64, 2 * n_trials).reshape(2, n_trials)
    status = np.frombuffer(shared, np.int8, 2 * n_trials, 16 * n_trials).reshape(2, n_trials)

    def run_block(b: int) -> bool:
        lo, hi = edges[b], edges[b + 1]
        outcomes = _run_trials(system, regions, x0, horizon, hi - lo, seed, lo)
        for k, (block_status, block_steps, _) in enumerate(outcomes):
            status[k, lo:hi], steps[k, lo:hi] = block_status, block_steps
        return all(error is None for _, _, error in outcomes)

    pids = []
    try:
        for b in range(1, n_blocks):
            # Python >= 3.12 warns (DeprecationWarning) when a process with
            # other threads, such as an OpenBLAS pool, forks: the children run
            # element-wise numpy code only and never call BLAS.
            pid = os.fork()
            if pid == 0:  # child: never flushes stdio or runs atexit handlers
                try:
                    os._exit(0 if run_block(b) else 1)
                finally:
                    os._exit(1)
            pids.append(pid)
        clean = run_block(0)
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if not clean or any(codes):
        return _run_trials(system, regions, x0, horizon, n_trials, seed)
    return tuple((status[k], steps[k], None) for k in range(2))


def estimate(system: SystemModel, regions: RegionSpec, x0, horizon: int, n_trials: int,
             delta: float, seed: int) -> tuple[McEstimate, McEstimate]:
    """Estimate liveness and reach-avoid from one set of trials.

    Returns ``(liveness, reach_avoid)``.  Liveness is P(stay in X through
    step K), an upper bound on the infinite-horizon liveness probability: a
    trial counts until its first exit, and the target set plays no role.
    Reach-avoid is P(hit X_r by step K while staying in X until the hit), a
    lower bound on the infinite-horizon reach-avoid probability.  Both read
    the same trajectories, so each equals a pass run for it alone.
    """
    if horizon < 1 or n_trials < 1:
        raise ValueError("need horizon >= 1 and n_trials >= 1")
    half = hoeffding_half_width(n_trials, delta)
    live, reach = _run_split(system, regions, x0, horizon, n_trials, seed)

    def summary(outcome, success: int, direction: str) -> McEstimate:
        status, _, error = outcome
        if error is not None:
            return McEstimate(0.0, n_trials, horizon, delta, half, 0, direction, error=error)
        successes = int(np.count_nonzero(status == success))
        return McEstimate(successes / n_trials, n_trials, horizon, delta, half,
                          successes, direction)

    return (summary(live, ACTIVE, "upper_biased_for_liveness"),
            summary(reach, REACHED, "lower_biased_for_reach_avoid"))

