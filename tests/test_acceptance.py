"""Acceptance suite: closed-form oracles and property checks at desk scale.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Expected values are recomputed independently inside this module:
ruin probabilities from the classical closed form and a hand-built
tridiagonal solve, discounted values from dense linear algebra.
"""

import time

import numpy as np
import pytest

from stochcert import certificate as cm
from stochcert import dp, mc, regions, synth
from stochcert.certificate import (
    KIND_LIVENESS_UPPER_DISCOUNTED,
    KIND_RA_LOWER_A1,
    KIND_RA_LOWER_DISCOUNTED,
    KIND_RA_LOWER_PAIR,
    KIND_SAFETY_LOWER,
    KIND_UNSAFE_REACH_UPPER,
    Condition,
    GridCert,
    best_threshold,
    check_condition,
    extract_certificate,
)
from stochcert.dp import ValueField, eval_field, solve_discounted, solve_exact_small

from conftest import chain_solve, ruin_probability

_SUITE_START = time.monotonic()
_SUITE_BUDGET_SECONDS = 300.0


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _stay_prob(kernel, x: float, steps: int) -> float:
    tr, v = kernel.P.toarray(), np.ones(kernel.n_transient)
    for _ in range(steps):
        v = tr @ v
        if v.max() < 1e-18:
            break
    out = np.zeros(kernel.grid.n_nodes)
    out[kernel.transient] = v
    return eval_field(ValueField(out, kernel.grid), [x])


def _solved_fields(fix, gamma):
    return {
        "reach_avoid": solve_exact_small(fix["reach_kernel"]),
        "safety_exit": dp.solve_safety_exit(fix["safety_kernel"], tol=1e-12),
        "discounted": solve_exact_small(fix["reach_kernel"], gamma=gamma),
        "discounted_exit": solve_exact_small(fix["safety_kernel"], gamma=gamma),
        "gamma": gamma,
        "regions": fix["regions"],
        "assumption1": dp.check_assumption1(fix["reach_kernel"]),
    }


def _node_points(fix):
    return fix["grid"].nodes()


def test_criterion_1_gamblers_ruin_exactness(gambler):
    start = time.monotonic()
    iterative = dp.solve_reach_avoid(gambler["reach_kernel"], tol=1e-9)
    exact = solve_exact_small(gambler["reach_kernel"])
    gap_iter = abs(eval_field(iterative, [3.0]) - eval_field(exact, [3.0]))
    gap_closed = max(
        abs(eval_field(exact, [float(i)]) - ruin_probability(i, 10, 0.5))
        for i in range(1, 10)
    )
    elapsed = time.monotonic() - start
    ok = gap_iter <= 1e-6 and gap_closed <= 1e-12 and elapsed < 5.0
    _verdict(1, ok, f"V(3)=0.3: iterative-exact gap {gap_iter:.2e} (<=1e-6), "
                    f"closed-form gap {gap_closed:.2e} (<=1e-12), {elapsed:.2f}s (<5s)")


def test_criterion_2_biased_walk_oracle(biased):
    # closed form recomputed here, independently of the solvers
    r = 0.4 / 0.6
    closed = (1.0 - r ** 3) / (1.0 - r ** 10)
    tridiag = chain_solve(0.6)[2]
    assert abs(closed - tridiag) <= 1e-12  # two independent oracles agree
    exact = solve_exact_small(biased["reach_kernel"])
    iterative = dp.solve_reach_avoid(biased["reach_kernel"], tol=1e-9)
    gap_exact = abs(eval_field(exact, [3.0]) - closed)
    gap_iter = abs(eval_field(iterative, [3.0]) - closed)
    ok = gap_exact <= 1e-9 and gap_iter <= 1e-6
    _verdict(2, ok, f"biased V(3)={closed:.6f}: exact gap {gap_exact:.2e} (<=1e-9), "
                    f"iterative gap {gap_iter:.2e} (<=1e-6)")


def test_criterion_3_exit_plus_liveness_is_one(gambler, biased):
    horizon, trials, delta = 2000, 20000, 0.05
    worst = 0.0
    for fix, seed in ((gambler, 301), (biased, 302)):
        exit_fld = dp.solve_safety_exit(fix["safety_kernel"], tol=1e-12)
        for x in (2.0, 5.0, 8.0):
            est = mc.estimate(fix["system"], fix["regions"], [x],
                              horizon, trials, delta, seed)[0]
            slack = _stay_prob(fix["safety_kernel"], x, horizon)
            gap = abs(eval_field(exit_fld, [x]) + est.p_hat - 1.0)
            margin = est.half_width + slack
            worst = max(worst, gap - margin)
            assert gap <= margin, f"x={x}: gap {gap} > {margin}"
    _verdict(3, worst <= 0.0,
             f"exit + MC liveness = 1 at 3 states per walk, worst excess {worst:.2e}")


def test_criterion_4_discounted_ordering_and_limit(gambler):
    start = time.monotonic()
    k = gambler["reach_kernel"]
    zero = solve_discounted(k, 0.0)
    indicator_ok = np.array_equal(zero.values, k.absorbed_values())
    gammas = [0.0, 0.5, 0.9, 0.99, 0.999]
    fields = [solve_exact_small(k, gamma=g).values for g in gammas]
    monotone_ok = all(
        (hi - lo >= -1e-12).all() for lo, hi in zip(fields, fields[1:])
    )
    reach = solve_exact_small(k)
    below_ok = all((f <= reach.values + 1e-12).all() for f in fields)
    limit_gap = abs(fields[-1][3] - reach.values[3])  # node index 3 is x0=3
    elapsed = time.monotonic() - start
    ok = indicator_ok and monotone_ok and below_ok and limit_gap <= 0.01 and elapsed < 30.0
    _verdict(4, ok, f"V_0 = target indicator: {indicator_ok}; monotone in gamma: "
                    f"{monotone_ok}; V_0.999 gap {limit_gap:.4f} (<=0.01); "
                    f"{elapsed:.2f}s (<30s)")


def test_criterion_5_contraction_property(gambler):
    rng = np.random.default_rng(50)
    k = gambler["reach_kernel"]
    worst = -np.inf
    for gamma in (0.5, 0.99):
        for _ in range(100):
            u = rng.uniform(0, 1, k.grid.n_nodes)
            v = rng.uniform(0, 1, k.grid.n_nodes)
            lhs = np.max(np.abs(dp.apply_bellman(k, u, gamma)
                                - dp.apply_bellman(k, v, gamma)))
            worst = max(worst, lhs - gamma * np.max(np.abs(u - v)))
    _verdict(5, worst <= 1e-12,
             f"sup|T_g u - T_g v| <= g sup|u - v| on 100 pairs x 2 gammas, "
             f"worst slack {worst:.2e} (<=1e-12)")


def test_criterion_6_assumption1_discrimination(gambler, identity):
    holds = dp.check_assumption1(gambler["reach_kernel"])
    fails = dp.check_assumption1(identity["reach_kernel"])
    ok = (holds.holds and holds.sup_stay_prob < 1e-9
          and not fails.holds and abs(fails.sup_stay_prob - 1.0) <= 1e-12)
    _verdict(6, ok, f"gambler sup {holds.sup_stay_prob:.2e} (<1e-9); "
                    f"identity dynamics sup {fails.sup_stay_prob} (=1, fails)")


def test_criterion_7_necessity_round_trips(gambler, contraction):
    tol = 1e-6
    margin = 1e-4
    results = []

    g_fields = _solved_fields(gambler, gamma=0.5)
    c_fields = _solved_fields(contraction, gamma=0.9)
    g_pts = _node_points(gambler)
    c_pts = _node_points(contraction)

    # thresholds sit one margin inside the exact achievable value per kind
    reach3 = eval_field(g_fields["reach_avoid"], [3.0])
    cases = [
        (gambler, g_fields, g_pts, [3.0], KIND_UNSAFE_REACH_UPPER,
         reach3 + margin, None),
        (gambler, g_fields, g_pts, [3.0], KIND_RA_LOWER_A1,
         reach3 - margin, None),
        (contraction, c_fields, c_pts, contraction["x0"], KIND_SAFETY_LOWER,
         1.0 - eval_field(c_fields["safety_exit"], contraction["x0"]) - margin, None),
        (contraction, c_fields, c_pts, contraction["x0"], KIND_RA_LOWER_DISCOUNTED,
         eval_field(c_fields["discounted"], contraction["x0"]) - margin, 0.9),
    ]
    # a discounted exit bound needs gamma close to 1 to be nontrivial
    g_fields_999 = dict(g_fields)
    g_fields_999["discounted_exit"] = solve_exact_small(gambler["safety_kernel"], gamma=0.999)
    g_fields_999["gamma"] = 0.999
    cases.append(
        (gambler, g_fields_999, g_pts, [3.0], KIND_LIVENESS_UPPER_DISCOUNTED,
         eval_field(g_fields_999["discounted_exit"], [3.0]) - margin, 0.999))

    for fix, fields, pts, x0, kind, eps, gamma in cases:
        cert = extract_certificate(fields, kind)
        cond = Condition(kind, float(np.clip(eps, 0.0, 1.0)), gamma=gamma)
        report = check_condition(fix["system"], fix["regions"], cert, cond, x0,
                                 pts, tol)
        results.append((kind, report.passed))
        assert report.passed, f"{kind}: {report.witnesses[:3]}"

    # pair condition with gamma0 = 0.5, gamma1 = 1: every clause must hold,
    # the expectation-difference clause at every transient node within 1e-9
    v, w = extract_certificate(g_fields, KIND_RA_LOWER_PAIR)
    gamma1 = 0.5 / (1.0 - 0.5)
    assert gamma1 == 1.0 and gamma1 / (1.0 + gamma1) >= 0.5
    eps = max(eval_field(g_fields["discounted"], [3.0]) - margin, 0.0)
    cond = Condition(KIND_RA_LOWER_PAIR, eps, gamma=0.5, w=w)
    report = check_condition(gambler["system"], gambler["regions"], v, cond,
                             [3.0], g_pts, tol)
    assert report.passed, report.witnesses[:3]
    transient_nodes = gambler["grid"].nodes()[gambler["reach_kernel"].transient]
    worst_pair = np.inf
    for x in transient_nodes:
        e_w = sum(p * cm.eval_cert(w, x + atom)
                  for atom, p in zip(gambler["system"].dist.atoms,
                                     gambler["system"].dist.probs))
        slack = e_w - cm.eval_cert(w, x) - cm.eval_cert(v, x)
        worst_pair = min(worst_pair, slack)
    results.append((KIND_RA_LOWER_PAIR, worst_pair >= -1e-9))
    assert worst_pair >= -1e-9

    ok = all(passed for _, passed in results)
    _verdict(7, ok, f"all 6 kinds extract and pass at oracle -/+ 1e-4 "
                    f"(pair clause worst slack {worst_pair:.2e} >= -1e-9)")


def test_criterion_8_soundness_only_if(gambler):
    fields = _solved_fields(gambler, gamma=0.5)
    base = fields["reach_avoid"]
    grid = gambler["grid"]
    pts = _node_points(gambler)
    sys_, reg = gambler["system"], gambler["regions"]
    rng = np.random.default_rng(80)
    transient = gambler["reach_kernel"].transient

    rejected = 0
    n_perturbed = 50
    for i in range(n_perturbed):
        c = float(rng.uniform(0.01, 0.2))
        values = base.values.copy()
        eps = 0.1
        mode = i % 4
        if mode == 0:  # sub-fixed-point inequality broken near absorption
            values[transient] += c
        elif mode == 1:  # v <= 1 broken on the target
            values[10] = 1.0 + c
        elif mode == 2:  # v <= 0 broken outside the safe set
            values[0] = c
        else:  # threshold exceeds the value at x0
            eps = float(np.clip(base.values[3] + c, 0.0, 1.0))
        cert = GridCert(ValueField(values, grid, 0.0))
        cond = Condition(KIND_RA_LOWER_A1, eps)
        report = check_condition(sys_, reg, cert, cond, [3.0], pts, 1e-6)
        if not report.passed and report.min_slack < -1e-3:
            rejected += 1
    all_rejected = rejected == n_perturbed

    accepted = 0
    sound = True
    valid_cert = extract_certificate(fields, KIND_RA_LOWER_A1)
    for _ in range(20):
        i = int(rng.integers(1, 10))
        oracle = ruin_probability(i, 10, 0.5)
        eps = max(oracle - float(rng.uniform(1e-3, 0.25)), 0.0)
        cond = Condition(KIND_RA_LOWER_A1, eps)
        report = check_condition(sys_, reg, valid_cert, cond, [float(i)], pts, 1e-6)
        if report.passed:
            accepted += 1
            claimed = best_threshold(sys_, reg, valid_cert, KIND_RA_LOWER_A1,
                                     [float(i)], pts)
            sound = sound and claimed <= oracle + 1e-4 + 1e-9
    ok = all_rejected and accepted == 20 and sound
    _verdict(8, ok, f"{rejected}/50 perturbed certificates rejected "
                    f"(violations > 1e-3), {accepted}/20 valid accepted, "
                    f"accepted thresholds within 1e-4 of exact values")


def test_criterion_9_synthesis(gambler):
    samples = np.vstack([
        gambler["grid"].nodes(),
        gambler["grid"].box.sample(2000, np.random.default_rng(90)),
    ])
    omega = regions.compute_omega(gambler["system"], gambler["regions"], samples,
                                  transient_only=True)
    points = omega.sample(300, np.random.default_rng(91))
    result = synth.synthesize(
        gambler["system"], gambler["regions"], KIND_RA_LOWER_A1,
        synth.Template(n=1, degree=1), points, [3.0],
        margin=0.01, revalidation_seed=92,
    )
    synth_ok = result.threshold >= 0.25 and result.status == "validated"

    # simplex unit suite: optimal, infeasible, unbounded-guarded
    opt = synth.simplex_solve(synth.LpProblem(
        objective=np.array([1.0]), rows=[[1.0]], senses=["<="], rhs=[3.0],
        lower=np.array([0.0]), upper=np.array([10.0])))
    infeas = synth.simplex_solve(synth.LpProblem(
        objective=np.array([1.0]),
        rows=[[1.0], [1.0]], senses=[">=", "<="], rhs=[2.0, 1.0],
        lower=np.array([0.0]), upper=np.array([10.0])))
    try:
        synth.LpProblem(objective=np.array([1.0]), rows=[], senses=[], rhs=[],
                        lower=np.array([0.0]), upper=np.array([np.inf]))
        guarded = False
    except ValueError:
        guarded = True
    simplex_ok = (opt.status == "optimal" and abs(opt.x[0] - 3.0) < 1e-9
                  and infeas.status == "infeasible" and guarded)
    ok = synth_ok and simplex_ok
    _verdict(9, ok, f"degree-1 threshold {result.threshold:.4f} (>=0.25), "
                    f"re-validation {result.status}; simplex units "
                    f"{'pass' if simplex_ok else 'FAIL'}")


def test_criterion_10_mc_calibration_and_budget(gambler):
    replications = 200
    trials, horizon, delta = 2000, 2000, 0.05
    covered = 0
    for r in range(replications):
        est = mc.estimate(gambler["system"], gambler["regions"], [3.0],
                          horizon, trials, delta, seed=1000 + r)[1]
        if abs(est.p_hat - 0.3) <= est.half_width:
            covered += 1
    coverage = covered / replications
    elapsed = time.monotonic() - _SUITE_START
    ok = coverage >= 0.90 and elapsed < _SUITE_BUDGET_SECONDS
    _verdict(10, ok, f"coverage {coverage:.1%} over {replications} replications "
                     f"(>=90%); acceptance suite elapsed {elapsed:.1f}s (<300s)")
