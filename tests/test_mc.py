import math
import os
from pathlib import Path

import numpy as np
import pytest

from stochcert import expr, mc, model, regions
from stochcert.cli import load_scenario
from stochcert.mc import (ACTIVE, EXITED, REACHED, _atom_picker, _run_split, _run_trials,
                          _step_uniforms, estimate)

from conftest import make_contraction, make_walk, ruin_probability, walk_regions
from scalar_reference import scalar_expr, scalar_predicate

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BLOCKS = (1, 2, 3)


def force_blocks(monkeypatch, blocks):
    """Make ``mc.estimate`` cut any trial count into ``blocks`` blocks."""
    monkeypatch.setattr(mc, "MIN_BLOCK", 1)
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(blocks)),
                        raising=False)


def assert_same_outcomes(got, want):
    for (status, steps, error), (want_status, want_steps, want_error) in zip(got, want):
        assert error == want_error
        assert np.array_equal(status, want_status) and np.array_equal(steps, want_steps)


def assert_split_is_serial(monkeypatch, *args):
    """Every split of the trials gives the serial pass's outcomes: statuses,
    steps and errors, partial arrays included."""
    want = _run_trials(*args)
    for blocks in BLOCKS:
        force_blocks(monkeypatch, blocks)
        assert_same_outcomes(_run_split(*args), want)


def disc_walk():
    """The 2-D disc walk of perfbench/discwalk.py, written out here."""
    atoms = [[a * 0.1, b * 0.1] for a in (-1, 0, 1) for b in (-1, 0, 1)]
    system = model.SystemModel(2, 2, (expr.parse_expr("0.95*x1 + 0.1*x2 + th1", 2, 2),
                                      expr.parse_expr("-0.05*x1 + 0.9*x2 + th2", 2, 2)),
                               model.DisturbanceDist(atoms, [1.0 / 9.0] * 9))
    reg = regions.RegionSpec(expr.parse_predicate("x1^2 + x2^2 < 1.0", 2),
                             expr.parse_predicate("x1^2 + x2^2 < 0.04", 2))
    return system, reg


@pytest.fixture(scope="module")
def walk():
    return make_walk(0.5), walk_regions()


class TestDegenerateStarts:
    def test_unsafe_start_liveness_zero(self, walk):
        system, reg = walk
        est = estimate(system, reg, [-1.0], 10, 100, 0.05, 0)[0]
        assert est.p_hat == 0.0

    def test_unsafe_start_reach_zero(self, walk):
        system, reg = walk
        est = estimate(system, reg, [12.0], 10, 100, 0.05, 0)[1]
        assert est.p_hat == 0.0

    def test_target_start_reach_one(self, walk):
        system, reg = walk
        est = estimate(system, reg, [10.5], 10, 100, 0.05, 0)[1]
        assert est.p_hat == 1.0


class TestInvariantContraction:
    def test_liveness_exactly_one(self):
        system, reg, _ = make_contraction()
        est = estimate(system, reg, [0.8], 50, 2000, 0.05, 1)[0]
        assert est.p_hat == 1.0

    def test_reach_one(self):
        system, reg, _ = make_contraction()
        est = estimate(system, reg, [0.8], 50, 2000, 0.05, 1)[1]
        assert est.p_hat == 1.0


class TestGambler:
    def test_reach_covers_ruin_value(self, walk):
        system, reg = walk
        est = estimate(system, reg, [3.0], 10_000, 100_000, 0.05, 42)[1]
        # truncation slack at this horizon is astronomically small
        assert abs(est.p_hat - ruin_probability(3, 10, 0.5)) <= est.half_width + 1e-6

    def test_liveness_near_zero(self, walk):
        system, reg = walk
        est = estimate(system, reg, [3.0], 10_000, 100_000, 0.05, 42)[0]
        assert est.p_hat < 0.01

    def test_deterministic_per_seed(self, walk):
        system, reg = walk
        a = estimate(system, reg, [3.0], 500, 5000, 0.05, 7)[1]
        b = estimate(system, reg, [3.0], 500, 5000, 0.05, 7)[1]
        assert a.p_hat == b.p_hat and a.successes == b.successes

    def test_monotone_in_horizon(self, walk):
        system, reg = walk
        horizons = [5, 10, 25, 50, 100, 400]
        ests = [estimate(system, reg, [3.0], K, 4000, 0.05, 9) for K in horizons]
        live = [est[0].p_hat for est in ests]
        reach = [est[1].p_hat for est in ests]
        assert all(a >= b for a, b in zip(live, live[1:]))
        assert all(a <= b for a, b in zip(reach, reach[1:]))


class TestTrialConsistency:
    def test_reach_and_liveness_agree_per_trial(self, walk):
        # both outcomes read one trajectory per trial: a reached trial cannot
        # have exited earlier, and an exit before any target hit shows up in both
        system, reg = walk
        n = 2000
        (live_status, live_steps, _), (reach_status, reach_steps, _) = _run_trials(
            system, reg, [3.0], 500, n, 11)
        assert not (reach_status == ACTIVE).any()
        for i in range(n):
            if reach_status[i] == REACHED:
                # liveness run continues through the target: if it exits, only later
                assert live_status[i] != EXITED or live_steps[i] > reach_steps[i]
            if reach_status[i] == EXITED:
                assert live_status[i] == EXITED
                assert live_steps[i] == reach_steps[i]

    def test_no_trial_both_reached_and_stayed(self, walk):
        system, reg = walk
        _, (status, _, _) = _run_trials(system, reg, [3.0], 2000, 2000, 13)
        assert np.count_nonzero(status == REACHED) + np.count_nonzero(status == EXITED) \
            == 2000


class TestHalfWidth:
    def test_formula(self):
        est = mc.hoeffding_half_width(1000, 0.05)
        assert est == pytest.approx(math.sqrt(math.log(2 / 0.05) / 2000), abs=1e-15)

    def test_stored_half_width_matches(self, walk):
        system, reg = walk
        est = estimate(system, reg, [3.0], 10, 321, 0.07, 0)[0]
        assert est.half_width == pytest.approx(
            math.sqrt(math.log(2 / 0.07) / (2 * 321)), abs=1e-15)

    def test_parameter_validation(self, walk):
        system, reg = walk
        with pytest.raises(ValueError):
            estimate(system, reg, [3.0], 0, 10, 0.05, 0)
        with pytest.raises(ValueError):
            estimate(system, reg, [3.0], 10, 0, 0.05, 0)
        with pytest.raises(ValueError):
            mc.hoeffding_half_width(10, 1.5)


class TestErrorPath:
    """Each case also runs under every split of its trials, with the serial
    pass's errors, counts and partial arrays."""

    def test_evaluation_error_flagged(self, monkeypatch):
        dist = model.DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        system = model.SystemModel(1, 1, (expr.parse_expr("1/(x1 - 1)", 1, 1),), dist)
        reg = walk_regions()
        for blocks in BLOCKS:
            force_blocks(monkeypatch, blocks)
            est = estimate(system, reg, [2.0], 10, 50, 0.05, 0)[0]
            assert est.error is not None
        assert_split_is_serial(monkeypatch, system, reg, [2.0], 10, 50, 0)

    def test_failure_after_target_hit(self, monkeypatch):
        # only liveness steps trials on from the target, where the dynamics
        # fail; reach-avoid keeps its count.  Both recorded from separate passes.
        for blocks in BLOCKS:
            force_blocks(monkeypatch, blocks)
            live, reach = mc.estimate(failing_walk(), walk_regions(), [3.0], 300, 2000, 0.05,
                                      11)
            assert live.error == "division by zero" and live.successes == 0
            assert live.p_hat == 0.0
            assert reach.error is None and reach.successes == 609
        (_, _, live_error), (_, _, reach_error) = _run_trials(
            failing_walk(), walk_regions(), [7.0], 60, 300, 6)
        assert live_error == "division by zero" and reach_error is None
        assert_split_is_serial(monkeypatch, failing_walk(), walk_regions(), [3.0], 300, 2000, 11)
        assert_split_is_serial(monkeypatch, failing_walk(), walk_regions(), [7.0], 60, 301, 6)

    def test_each_error_names_a_row_of_its_own_trials(self, monkeypatch):
        # with -1/+2 steps, trials that hit the target come back to x = 9, where
        # the dynamics overflow, while open ones reach it too: both outcomes
        # fail, at rows of different live sets.  Recorded from separate passes.
        dist = model.DisturbanceDist(atoms=[[-1.0], [2.0]], probs=[0.6, 0.4])
        system = model.SystemModel(
            1, 1, (expr.parse_expr("x1 + th1 + 0*exp(1000 - 1000*(x1 - 9)^2)", 1, 1),), dist)
        for blocks in BLOCKS:
            force_blocks(monkeypatch, blocks)
            live, reach = mc.estimate(system, walk_regions(), [4.0], 300, 200, 0.05, 2)
            assert live.error == "non-finite result at row 1"
            assert reach.error == "non-finite result at row 6"
        assert_split_is_serial(monkeypatch, system, walk_regions(), [4.0], 300, 200, 2)


class TestExactCounts:
    """Success counts recorded before the live-trial compaction and the
    compiled evaluator; the draws and outcomes must not move."""

    @pytest.mark.parametrize("name, live, reach", [
        ("symmetric_walk", 0, 5981),
        ("biased_walk", 0, 14241),
        ("invariant_contraction", 5000, 5000),
    ])
    def test_bundled_scenarios(self, name, live, reach, monkeypatch):
        sc = load_scenario(SCENARIOS / f"{name}.yaml")
        args = (sc.system, sc.regions, sc.x0s[0], sc.mc_horizon, sc.mc_trials, sc.mc_delta,
                sc.mc_seed)
        for blocks in BLOCKS:
            force_blocks(monkeypatch, blocks)
            live_est, reach_est = estimate(*args)
            assert live_est.successes == live
            assert reach_est.successes == reach

    def test_disc_walk(self, monkeypatch):
        system, reg = disc_walk()
        args = (system, reg, [0.6, 0.3], 500, 2000, 0.05, 20240001)
        for blocks in BLOCKS:
            force_blocks(monkeypatch, blocks)
            live_est, reach_est = estimate(*args)
            assert live_est.successes == 1898
            assert reach_est.successes == 1964
            (live_status, live_steps, _), (reach_status, reach_steps, _) = _run_split(
                *args[:5], 20240001)
            assert int(live_steps.sum()) == 967626
            assert np.count_nonzero(live_status == EXITED) == 102
            assert int(reach_steps.sum()) == 46506
            assert np.count_nonzero(reach_status == EXITED) == 36

    @pytest.mark.parametrize("n_trials", [301, 8195])
    def test_disc_walk_split_is_serial(self, n_trials, monkeypatch):
        # 8195 trials also split under the real MIN_BLOCK and CPU count
        system, reg = disc_walk()
        args = (system, reg, [0.6, 0.3], 200, n_trials, 20240001)
        assert_same_outcomes(_run_split(*args), _run_trials(*args))
        assert_split_is_serial(monkeypatch, *args)


@pytest.mark.parametrize("seed, sweep, first, count", [
    (0, 0, 4, 9),
    (20240001, 499, 4096, 4099),
    (2**64 - 1, 10**9, 8192, 301),
])
def test_step_uniforms_offset(seed, sweep, first, count):
    # a block starting at trial ``first`` draws the words of one full stream
    assert np.array_equal(_step_uniforms(seed, sweep, count, first),
                          _step_uniforms(seed, sweep, first + count)[first:])


class TestChildren:
    """No process forked for a block outlives ``estimate``."""

    def count_forks(self, monkeypatch):
        pids, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(mc.os, "fork", recording_fork)
        return pids

    def test_none_left_after_split(self, monkeypatch):
        force_blocks(monkeypatch, 3)
        pids = self.count_forks(monkeypatch)
        system, reg = disc_walk()
        estimate(system, reg, [0.6, 0.3], 50, 301, 0.05, 1)
        assert len(pids) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_none_left_when_block_zero_raises(self, monkeypatch):
        force_blocks(monkeypatch, 3)
        pids = self.count_forks(monkeypatch)
        run = mc._run_trials

        def block_zero_fails(system, regions, x0, horizon, n_trials, seed, first=0):
            if first == 0:
                raise RuntimeError("block 0 failed")
            return run(system, regions, x0, horizon, n_trials, seed, first)

        monkeypatch.setattr(mc, "_run_trials", block_zero_fails)
        system, reg = disc_walk()
        with pytest.raises(RuntimeError, match="block 0 failed"):
            estimate(system, reg, [0.6, 0.3], 50, 301, 0.05, 1)
        assert len(pids) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def reference_trials(system, reg, x0, horizon, n_trials, seed):
    """One trial at a time with the scalar reference evaluator and
    np.searchsorted: the oracle for ``_run_trials``.

    Returns (liveness, reach_avoid), each (status, steps, failed): a trial
    is stepped until it exits, and ``failed`` tells whether the dynamics
    failed to evaluate at a state stepped from while the outcome was open.
    """
    draws = [_step_uniforms(seed, t, n_trials) for t in range(horizon)]
    cum = system.dist.cum_probs
    live = [np.full(n_trials, ACTIVE, dtype=np.int8), np.full(n_trials, horizon), False]
    reach = [np.full(n_trials, ACTIVE, dtype=np.int8), np.full(n_trials, horizon), False]

    def unsafe(x):
        return not scalar_predicate(reg.safe, x) and not scalar_predicate(reg.target, x)

    for i in range(n_trials):
        x = list(x0)
        if unsafe(x):
            live[0][i] = reach[0][i] = EXITED
            live[1][i] = reach[1][i] = 0
            continue
        reach_open = not scalar_predicate(reg.target, x)
        if not reach_open:
            reach[0][i], reach[1][i] = REACHED, 0
        for t in range(horizon):
            th = system.dist.atoms[np.searchsorted(cum, draws[t][i], side="right")]
            try:
                x = [scalar_expr(f, x, th) for f in system.dynamics]
            except (ZeroDivisionError, OverflowError):
                live[2] = True
                reach[2] = reach[2] or reach_open
                break
            if unsafe(x):
                live[0][i], live[1][i] = EXITED, t + 1
                if reach_open:
                    reach[0][i], reach[1][i] = EXITED, t + 1
                break
            if reach_open and scalar_predicate(reg.target, x):
                reach[0][i], reach[1][i] = REACHED, t + 1
                reach_open = False
    return tuple(live), tuple(reach)


def failing_walk():
    """The symmetric walk with dynamics that fail to evaluate at x = 10, in
    the target: only trials that already hit the target step from there."""
    dist = model.DisturbanceDist(atoms=[[-1.0], [1.0]], probs=[0.5, 0.5])
    return model.SystemModel(1, 1, (expr.parse_expr("x1 + th1 + 0/(x1 - 10)", 1, 1),),
                             dist)


@pytest.mark.parametrize("case", [
    (make_walk(0.5), walk_regions(), [3.0], 60, 301, 3),
    (make_walk(0.6), walk_regions(), [3.0], 60, 301, 3),
    (*disc_walk(), [0.6, 0.3], 80, 301, 4),
    (make_walk(0.5), walk_regions(), [10.0], 60, 301, 5),
    (make_walk(0.5), walk_regions(), [12.0], 60, 301, 5),
    (*disc_walk(), [1.0, 0.5], 60, 301, 5),
    (failing_walk(), walk_regions(), [7.0], 60, 301, 6),
], ids=["symmetric-walk", "biased-walk", "disc-walk", "target-start", "unsafe-start",
        "disc-unsafe-start", "fails-after-target"])
def test_trials_match_one_at_a_time_reference(case, monkeypatch):
    # affine dynamics and a squared-radius predicate are exact in both
    # evaluators here, so statuses and steps agree trial for trial, in one
    # block or cut into several
    system, reg, x0, horizon, n, seed = case
    want = reference_trials(system, reg, x0, horizon, n, seed)
    for blocks in BLOCKS:
        force_blocks(monkeypatch, blocks)
        got = _run_split(system, reg, x0, horizon, n, seed)
        for (status, steps, error), (want_status, want_steps, failed) in zip(got, want):
            assert (error is not None) == failed
            if not failed:
                assert np.array_equal(status, want_status)
                assert np.array_equal(steps, want_steps)


def _cum(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    return model.DisturbanceDist(np.arange(probs.size, dtype=float).reshape(-1, 1),
                                 probs / probs.sum()).cum_probs


@pytest.mark.parametrize("cum", [
    _cum([1.0]),
    _cum([0.5, 0.5]),
    _cum([0.4, 0.6]),
    _cum(np.full(9, 1.0 / 9.0)),
    _cum(np.full(400, 1.0 / 400.0)),
    _cum(np.random.default_rng(1).dirichlet(np.full(400, 0.05))),  # skewed: crowded buckets
    _cum([1e-6, 1e-6, 1e-6] + [1.0] * 6),
], ids=["K1", "K2", "K2-biased", "K9", "K400", "K400-skewed", "K9-tiny-atoms"])
def test_atom_picker_equals_searchsorted(cum):
    below_one = np.nextafter(1.0, 0.0)  # 1 - 2^-53, the largest uniform
    edges = np.concatenate([np.arange(g) / g for g in 2 ** np.arange(11)])  # every bucket edge
    marks = np.concatenate([cum, edges])
    u = np.concatenate([[0.0, below_one], marks, np.nextafter(marks, 0.0),
                        np.nextafter(marks, 1.0), np.random.default_rng(2).random(10_000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(_atom_picker(cum)(u), np.searchsorted(cum, u, side="right"))


def test_estimate_compiles_each_tree_once(monkeypatch):
    builds = []
    build = expr._build
    monkeypatch.setattr(expr, "_build", lambda *asts: builds.append(asts) or build(*asts))
    system, reg = disc_walk()  # fresh trees, not yet compiled
    estimate(system, reg, [0.6, 0.3], 500, 2000, 0.05, 1)
    estimate(system, reg, [0.6, 0.3], 500, 2000, 0.05, 1)
    # one program per dynamics component, and one for the two region predicates
    assert sorted(map(len, builds)) == [1] * system.n + [2]
    trees = [t for asts in builds for t in asts]
    assert len(trees) == system.n + 2
    assert {id(t) for t in trees} == {id(t) for t in (*system.dynamics, reg.safe, reg.target)}
