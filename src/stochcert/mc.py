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
are kept column-contiguous and compacted when trials stop; each trial's
atom is ``DisturbanceDist.draw`` of its own uniform, the one map from
uniforms to atoms, which ``model.simulate`` reads too.  Neither changes a
draw or an outcome.

On Linux the trials run as contiguous blocks, one per available CPU and
none under ``MIN_BLOCK`` trials, each in a forked child that writes its
outcomes into one shared mapping while ``start_estimate``'s caller goes on;
a single block runs in the caller.  A block starting at trial ``first`` (a
multiple of 4) reads each step's stream from word ``first`` on, so no outcome
depends on the split or the CPU count.  If any block meets an evaluation
error, or a fork fails, the caller reruns every trial, as in a single pass.
"""

from __future__ import annotations

import functools
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
    "start_estimate",
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


@functools.lru_cache(maxsize=8)
def _philox(seed: int) -> tuple[np.random.Generator, dict]:
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen, gen.bit_generator.state


def _step_uniforms(seed: int, sweep: int, count: int, first: int = 0) -> np.ndarray:
    # Disjoint 2^64-block counter ranges per sweep keep draws for different
    # steps non-overlapping regardless of the trial count.  Philox4x64 yields
    # four words, one per uniform, per counter value, so uniform ``first``
    # (a multiple of 4) opens counter value first // 4.  A seed's generator
    # is set to its state as new, with the step's counter.
    gen, state = _philox(seed)
    state["state"]["counter"][:2] = first // 4, sweep
    gen.bit_generator.state = state
    return gen.random(count)


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

    live = np.arange(n_trials)  # indices of the live trials, increasing
    states = np.repeat(x0[:, None], n_trials, axis=1).T  # (live, n), column-contiguous
    t = 0
    while t < horizon:
        u = np.take(_step_uniforms(seed, t, n_trials, first), live)
        ths = system.dist.draw(u)
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
                stopped = live[done]
                reach_status[stopped] = np.where(
                    cls[done] == int(StateClass.UNSAFE), EXITED, REACHED)
                reach_steps[stopped] = t
                open_ &= ~done
        # liveness needs a trial until it exits; without it, only open ones
        keep = cls != int(StateClass.UNSAFE) if live_error is None else open_
        if not keep.all():
            if live_error is None:
                stopped = live[~keep]
                live_status[stopped] = EXITED
                live_steps[stopped] = t
            live = live[keep]
            states = np.compress(keep, states.T, axis=1).T
            if open_ is not None:
                open_ = open_[keep]
        if open_ is not None and not open_.any():
            open_ = None
        if live.size == 0:
            break
    return outcomes()


def _start_split(system: SystemModel, regions: RegionSpec, x0, horizon: int,
                 n_trials: int, seed: int):
    """``_run_trials`` over every trial, forked in blocks, as ``start_estimate``."""
    linux = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    n_blocks = min(len(os.sched_getaffinity(0)), n_trials // MIN_BLOCK) if linux else 1
    pids = []

    def reap(kill: bool = False) -> list[int]:
        for pid in pids if kill else ():
            os.kill(pid, signal.SIGKILL)
        return [os.waitstatus_to_exitcode(os.waitpid(pids.pop(), 0)[1]) for _ in pids[:]]

    def collect():
        # no child, or one met an evaluation error or failed: every trial runs here
        if not pids or any(reap()):
            return _run_trials(system, regions, x0, horizon, n_trials, seed)
        return tuple((status[k], steps[k], None) for k in range(2))

    collect.kill = lambda: reap(kill=True)
    if n_blocks < 2:
        return collect
    import mmap
    import signal

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

    for b in range(n_blocks):
        # Python >= 3.12 warns (DeprecationWarning) when a process with other
        # threads, such as an OpenBLAS pool, forks: the children run
        # element-wise numpy code only and never call BLAS.
        try:
            pid = os.fork()
        except OSError:  # EAGAIN at RLIMIT_NPROC, say: the collector runs every trial
            reap(kill=True)
            break
        if pid == 0:  # child: never flushes stdio or runs atexit handlers
            try:
                os._exit(0 if run_block(b) else 1)
            finally:
                os._exit(1)
        pids.append(pid)
    return collect


def start_estimate(system: SystemModel, regions: RegionSpec, x0, horizon: int,
                   n_trials: int, delta: float, seed: int):
    """Start ``estimate``; returns at once the zero-argument collector of its
    value, whose ``kill()`` kills and reaps the forked trials instead."""
    if horizon < 1 or n_trials < 1:
        raise ValueError("need horizon >= 1 and n_trials >= 1")
    half = hoeffding_half_width(n_trials, delta)
    run = _start_split(system, regions, x0, horizon, n_trials, seed)

    def summary(outcome, success: int, direction: str) -> McEstimate:
        status, _, error = outcome
        if error is not None:
            return McEstimate(0.0, n_trials, horizon, delta, half, 0, direction, error=error)
        successes = int(np.count_nonzero(status == success))
        return McEstimate(successes / n_trials, n_trials, horizon, delta, half,
                          successes, direction)

    def collect() -> tuple[McEstimate, McEstimate]:
        live, reach = run()
        return (summary(live, ACTIVE, "upper_biased_for_liveness"),
                summary(reach, REACHED, "lower_biased_for_reach_avoid"))

    collect.kill = run.kill
    return collect


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
    return start_estimate(system, regions, x0, horizon, n_trials, delta, seed)()
