from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from stochcert import certificate as cm
from stochcert import cli, dp, expr, model, regions, synth
from stochcert.certificate import (
    KIND_RA_LOWER_A1,
    KIND_RA_LOWER_PAIR,
    KIND_SAFETY_LOWER,
    Condition,
    PolyCert,
    check_condition,
)
from stochcert.synth import (
    LpProblem,
    SimplexStalledError,
    SynthesisInfeasibleError,
    Template,
    lp_to_text,
    simplex_solve,
    synthesize,
)

from conftest import ruin_probability


class TestSimplexUnits:
    def test_single_variable_optimal(self):
        p = LpProblem(objective=np.array([1.0]), rows=[[1.0]], senses=["<="], rhs=[3.0],
                      lower=np.array([0.0]), upper=np.array([10.0]))
        sol = simplex_solve(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_two_variable_optimal(self):
        p = LpProblem(objective=np.array([1.0, 1.0]),
                      rows=[[1.0, 1.0]], senses=["<="], rhs=[1.0],
                      lower=np.zeros(2), upper=np.full(2, 10.0))
        sol = simplex_solve(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        p = LpProblem(objective=np.array([1.0]),
                      rows=[[1.0], [1.0]], senses=[">=", "<="], rhs=[2.0, 1.0],
                      lower=np.array([0.0]), upper=np.array([10.0]))
        assert simplex_solve(p).status == "infeasible"

    def test_unbounded_guarded_by_finite_bounds(self):
        with pytest.raises(ValueError, match="finite"):
            LpProblem(objective=np.array([1.0]), rows=[], senses=[], rhs=[],
                      lower=np.array([0.0]), upper=np.array([np.inf]))

    def test_equality_and_negative_rhs(self):
        # x + y == -1 with x in [-5, 5], y in [-5, 5], maximize x - y
        p = LpProblem(objective=np.array([1.0, -1.0]),
                      rows=[[1.0, 1.0]], senses=["=="], rhs=[-1.0],
                      lower=np.full(2, -5.0), upper=np.full(2, 5.0))
        sol = simplex_solve(p)
        assert sol.status == "optimal"
        assert sol.x[0] + sol.x[1] == pytest.approx(-1.0, abs=1e-9)
        assert sol.objective == pytest.approx(9.0, abs=1e-8)  # x=4, y=-5

    def test_minimize(self):
        p = LpProblem(objective=np.array([1.0]), rows=[[1.0]], senses=[">="], rhs=[2.0],
                      lower=np.array([0.0]), upper=np.array([10.0]), maximize=False)
        sol = simplex_solve(p)
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_stall_error_reports_iterations(self):
        p = LpProblem(objective=np.array([1.0, 1.0]),
                      rows=[[1.0, 2.0], [2.0, 1.0]], senses=["<=", "<="], rhs=[4.0, 4.0],
                      lower=np.zeros(2), upper=np.full(2, 10.0))
        with pytest.raises(SimplexStalledError):
            simplex_solve(p, max_iter=1)

    def test_lp_dump(self):
        p = LpProblem(objective=np.array([1.0, 0.0]),
                      rows=[[1.0, -2.0]], senses=["<="], rhs=[4.0],
                      lower=np.zeros(2), upper=np.full(2, 3.0))
        text = lp_to_text(p)
        assert "max: 1 x0" in text
        assert "1 x0 + -2 x1 <= 4" in text


def _random_bounded_lp(rng, n_vars, n_rows):
    A = rng.normal(size=(n_rows, n_vars))
    x_feas = rng.uniform(0.5, 2.0, n_vars)
    b = A @ x_feas + rng.uniform(0.5, 2.0, n_rows)
    c = rng.normal(size=n_vars)
    return A, b, c


class TestSimplexAgainstScipy:
    def test_matches_linprog_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n_vars = int(rng.integers(2, 6))
            n_rows = int(rng.integers(2, 8))
            A, b, c = _random_bounded_lp(rng, n_vars, n_rows)
            upper = 50.0
            p = LpProblem(
                objective=c, rows=A, senses=["<="] * n_rows, rhs=b,
                lower=np.zeros(n_vars), upper=np.full(n_vars, upper),
            )
            mine = simplex_solve(p)
            ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(0, upper)] * n_vars,
                          method="highs")
            assert mine.status == "optimal" and ref.status == 0
            assert mine.objective == pytest.approx(-ref.fun, abs=1e-7)
            # invariant: returned point satisfies every row within 1e-7
            assert (A @ mine.x <= b + 1e-7).all()

    def test_duality_and_complementary_slackness(self):
        # primal: max c.x s.t. Ax <= b, 0 <= x <= U (U non-binding)
        # dual:   min b.y s.t. A'y >= c, y >= 0
        rng = np.random.default_rng(1)
        for trial in range(10):
            n_vars = int(rng.integers(2, 5))
            n_rows = int(rng.integers(n_vars, n_vars + 4))
            A, b, c = _random_bounded_lp(rng, n_vars, n_rows)
            c = np.abs(c)  # keep the dual feasible region nonempty
            primal = LpProblem(
                objective=c, rows=A, senses=["<="] * n_rows, rhs=b,
                lower=np.zeros(n_vars), upper=np.full(n_vars, 1e4),
            )
            psol = simplex_solve(primal)
            dual = LpProblem(
                objective=b, rows=A.T, senses=[">="] * n_vars, rhs=c,
                lower=np.zeros(n_rows), upper=np.full(n_rows, 1e4),
                maximize=False,
            )
            dsol = simplex_solve(dual)
            if psol.status != "optimal" or dsol.status != "optimal":
                continue
            assert abs(psol.objective - dsol.objective) <= 1e-6 * max(1, abs(psol.objective))
            x, y = psol.x, dsol.x
            row_resid = np.abs(y * (A @ x - b))
            col_resid = np.abs(x * (A.T @ y - c))
            assert row_resid.max() <= 1e-6
            assert col_resid.max() <= 1e-6


def _stacked(problem):
    """``problem`` as ``M x <= h`` in the row order LpSolution documents."""
    n = problem.n_vars
    rows, rhs = [], []
    for sign, kept in ((1.0, ("<=", "==")), (-1.0, (">=", "=="))):
        for a, sense, b in zip(problem.rows, problem.senses, problem.rhs):
            if sense in kept:
                rows.append(sign * a)
                rhs.append(sign * b)
    M = np.vstack([np.reshape(rows, (-1, n)), np.eye(n), -np.eye(n)])
    h = np.concatenate([rhs, problem.upper, -problem.lower])
    return M, h


def _highs(problem):
    """(status, objective) of ``problem`` by scipy's HiGHS."""
    M, h = _stacked(problem)
    c = problem.objective if problem.maximize else -problem.objective
    ref = linprog(-c, A_ub=M, b_ub=h, bounds=(None, None), method="highs")
    status = {0: "optimal", 2: "infeasible"}[ref.status]
    if status != "optimal":
        return status, None
    return status, -ref.fun if problem.maximize else ref.fun


def _assert_farkas(problem, sol):
    """z >= 0 combines the rows into ``(M^T z) . x <= h . z``, which no point
    of the bound box satisfies: a proof that the LP is infeasible."""
    M, h = _stacked(problem)
    z = sol.farkas
    assert z.shape == (M.shape[0],) and (z >= 0.0).all() and z.any()
    r = M.T @ z
    assert np.abs(r).max() <= 1e-9 * np.abs(M).max() * z.sum()
    assert h @ z < 0.0
    assert h @ z < np.minimum(r * problem.lower, r * problem.upper).sum()


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SYNTH_KINDS = (cm.KIND_RA_LOWER_A1, cm.KIND_RA_LOWER_DISCOUNTED,
               cm.KIND_LIVENESS_UPPER_DISCOUNTED, KIND_SAFETY_LOWER,
               cm.KIND_UNSAFE_REACH_UPPER)


class TestSimplexAgainstHighs:
    @pytest.mark.parametrize("name", ["symmetric_walk", "biased_walk",
                                      "invariant_contraction"])
    def test_synthesis_lps_agree(self, name, monkeypatch):
        solved = []

        def recording(problem, max_iter=None):
            sol = simplex_solve(problem, max_iter)
            solved.append((problem, sol))
            return sol

        monkeypatch.setattr(synth, "simplex_solve", recording)
        sc = cli.load_scenario(SCENARIOS / f"{name}.yaml")
        for kind in SYNTH_KINDS:
            points = cli._synth_points(sc, kind)
            gamma = sc.gamma if kind in (cm.KIND_RA_LOWER_DISCOUNTED,
                                         cm.KIND_LIVENESS_UPPER_DISCOUNTED) else None
            for degree in (1, 2, 3, 4):
                for margin in (0.0, 0.01):
                    try:
                        synthesize(sc.system, sc.regions, kind,
                                   Template(n=1, degree=degree), points, sc.x0s[0],
                                   gamma=gamma, margin=margin)
                    except SynthesisInfeasibleError:
                        pass
        assert len(solved) == len(SYNTH_KINDS) * 4 * 2
        max_gap = 0.0
        for problem, sol in solved:
            status, objective = _highs(problem)
            assert sol.status == status
            if status == "optimal":
                max_gap = max(max_gap, abs(sol.objective - objective))
            else:
                _assert_farkas(problem, sol)
        # HiGHS stops within its own 1e-7 feasibility tolerance; on the
        # biased walk at degree 3 that is worth 3.2e-7 of objective
        assert max_gap <= 1e-6, f"max objective gap {max_gap:.2e}"

    def test_degree_four_disc_walk(self):
        # x' = A x + th, th uniform on {-0.1, 0, 0.1}^2, safe set the unit
        # disc, target the disc of radius 0.2: a primal tableau simplex with
        # Bland's rule stalls on this 2002-row, 15-coefficient LP
        atoms = [[a, b] for a in (-0.1, 0.0, 0.1) for b in (-0.1, 0.0, 0.1)]
        system = model.SystemModel(
            n=2, m=2,
            dynamics=(expr.parse_expr("0.95*x1 + 0.1*x2 + th1", 2, 2),
                      expr.parse_expr("-0.05*x1 + 0.9*x2 + th2", 2, 2)),
            dist=model.DisturbanceDist(atoms=atoms, probs=[1.0 / 9.0] * 9),
        )
        reg = regions.RegionSpec(safe=expr.parse_predicate("x1^2 + x2^2 < 1.0", 2),
                                 target=expr.parse_predicate("x1^2 + x2^2 < 0.04", 2))
        grid = dp.build_grid([-1.0, -1.0], [1.0, 1.0], [50, 50])
        samples = np.vstack([grid.nodes(), grid.box.sample(2000, np.random.default_rng(7))])
        omega = regions.compute_omega(system, reg, samples, transient_only=True)
        points = omega.sample(2000, np.random.default_rng(8))
        result = synthesize(system, reg, KIND_RA_LOWER_A1, Template(n=2, degree=4),
                            points, [0.6, 0.3], margin=0.0)
        assert len(result.problem.rows) == 2002 and result.problem.n_vars == 15
        assert result.lp.status == "optimal"
        status, objective = _highs(result.problem)
        assert status == "optimal"
        assert result.lp.objective == pytest.approx(objective, abs=1e-7)

    def test_degenerate_vertex(self):
        # 150 rows through the optimal vertex v, each one three times, plus
        # 50 rows slack there: every pivot near v is a tie
        rng = np.random.default_rng(5)
        n = 5
        v = rng.uniform(-1.0, 1.0, n)
        normals = rng.uniform(0.1, 1.0, (150, n))
        loose = rng.normal(size=(50, n))
        tight = np.vstack([normals, normals, normals[::-1]])
        rows = np.vstack([tight, loose])
        c = normals[:7].sum(axis=0)
        p = LpProblem(objective=c, rows=rows, senses=["<="] * len(rows),
                      rhs=[a @ v for a in tight] + [a @ v + 1.0 for a in loose],
                      lower=np.full(n, -10.0), upper=np.full(n, 10.0))
        sol = simplex_solve(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(c @ v, abs=1e-9)
        np.testing.assert_allclose(sol.x, v, atol=1e-7)

    def test_infeasible_answers_carry_farkas_certificates(self):
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(int(rng.integers(3, 12)), n))
            b = rng.normal(size=A.shape[0]) - 1.0
            senses = rng.choice(["<=", ">=", "=="], size=A.shape[0], p=[0.5, 0.4, 0.1])
            p = LpProblem(objective=rng.normal(size=n), rows=A, senses=senses, rhs=b,
                          lower=np.full(n, -1.0), upper=np.full(n, 2.0),
                          maximize=bool(rng.integers(2)))
            sol = simplex_solve(p)
            assert sol.status == _highs(p)[0]
            if sol.status == "infeasible":
                found += 1
                _assert_farkas(p, sol)
        assert found >= 10


class TestClauseTable:
    """The check and the synthesis LP read one clause table: at any
    coefficient vector the worst slack of a clause's LP block is the worst
    slack the check reports for that clause."""

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_lp_blocks_match_checked_clauses(self, kind, monkeypatch):
        problems = []

        def recording(problem, max_iter=None):
            problems.append(problem)
            return simplex_solve(problem, max_iter)

        monkeypatch.setattr(synth, "simplex_solve", recording)
        sc = cli.load_scenario(SCENARIOS / "symmetric_walk.yaml")
        template = Template(n=1, degree=2)
        points = cli._synth_points(sc, kind)
        gamma = sc.gamma if cm.KINDS[kind]["gamma"] else None
        try:
            synthesize(sc.system, sc.regions, kind, template, points, sc.x0s[0],
                       gamma=gamma, margin=0.0)
        except SynthesisInfeasibleError:
            pass
        (problem,) = problems
        coeffs = np.random.default_rng(4).normal(size=template.size)
        slack = problem.rows @ coeffs - problem.rhs
        slack[problem.senses == "<="] *= -1.0
        # synthesize appends x0 to its samples and puts the x0 row first
        report = check_condition(sc.system, sc.regions, PolyCert(template.exponents, coeffs),
                                 Condition(kind, 0.0, gamma=gamma), sc.x0s[0],
                                 np.vstack([points, sc.x0s[0]]))
        initial, *clauses = report.clauses
        assert initial.name.startswith("initial: ")
        start = 1
        for clause in clauses:
            assert clause.n_points > 0, clause.name
            block = slack[start:start + clause.n_points]
            assert block.min() == pytest.approx(clause.min_slack, abs=1e-9), clause.name
            start += clause.n_points
        assert start == len(problem.rows)

    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    @pytest.mark.parametrize("name", ["symmetric_walk", "biased_walk",
                                      "invariant_contraction"])
    def test_lp_rows_match_reference(self, name, kind, monkeypatch):
        problems = []

        def recording(problem, max_iter=None):
            problems.append(problem)
            return simplex_solve(problem, max_iter)

        monkeypatch.setattr(synth, "simplex_solve", recording)
        sc = cli.load_scenario(SCENARIOS / f"{name}.yaml")
        template = Template(n=1, degree=2)
        points = cli._synth_points(sc, kind)
        gamma = sc.gamma if cm.KINDS[kind]["gamma"] else None
        try:
            synthesize(sc.system, sc.regions, kind, template, points, sc.x0s,
                       gamma=gamma, margin=0.01)
        except SynthesisInfeasibleError:
            pass
        (problem,) = problems
        rows, senses, rhs = _reference_lp(sc, kind, template, points, gamma, 0.01)
        assert np.array_equal(problem.rows, rows)
        assert np.array_equal(problem.senses, senses)
        assert np.array_equal(problem.rhs, rhs)


def _reference_lp(sc, kind, template, points, gamma, margin):
    """The rows, senses and right-hand sides of the synthesis LP, built one
    atom and one monomial at a time: the x0 rows, then one block per clause."""
    system = sc.system
    # an exponent array, not per-column scalars: numpy raises to a scalar 2.0
    # by squaring, which can differ from pow() in the last bit
    exps = np.asarray(template.exponents, dtype=float)

    def design(xs):
        return np.prod(np.power(xs[:, None, :], exps[None, :, :]), axis=2)

    def expected(xs):
        total = np.zeros((len(xs), template.size))
        for atom, p in zip(system.dist.atoms, system.dist.probs):
            ys = model.step_batch(system, xs, np.broadcast_to(atom, (len(xs), system.m)))
            total += float(p) * design(ys)
        return total

    sides = {"v": design, "E[v o f]": expected,
             "gamma E[v o f]": lambda xs: gamma * expected(xs)}
    spec = cm.KINDS[kind]
    pts = np.vstack([points, sc.x0s])
    classes = cm.point_classes(pts, regions.classify_batch(sc.regions, pts))
    x0_rows = design(sc.x0s)
    blocks = [(x0_rows, ">=", 0.0) if spec["initial"] == cm.INIT_LOWER
              else (x0_rows, "<=", 1.0)]
    for _, cls, lhs, rhs in spec["clauses"]:
        xs = classes[cls]
        if not len(xs):
            continue
        if not isinstance(rhs, str):
            blocks.append((sides[lhs](xs), "<=", rhs - margin))
        elif not isinstance(lhs, str):
            blocks.append((sides[rhs](xs), ">=", lhs + margin))
        else:
            blocks.append((sides[rhs](xs) - sides[lhs](xs), ">=", 0.0))
    rows = np.vstack([mat for mat, _, _ in blocks]) + 0.0
    senses = np.concatenate([[sense] * len(mat) for mat, sense, _ in blocks])
    rhs = np.concatenate([np.full(len(mat), b) for mat, _, b in blocks])
    return rows, senses, rhs


class TestTemplate:
    def test_monomial_count(self):
        t = Template(n=2, degree=2)
        assert t.size == 6  # 1, x1, x2, x1^2, x1 x2, x2^2
        assert (0, 0) in t.exponents

    def test_degree_zero(self):
        t = Template(n=3, degree=0)
        assert t.exponents == ((0, 0, 0),)

    def test_design_matrix(self):
        t = Template(n=1, degree=2)
        M = t.design_matrix(np.array([[3.0]]))
        np.testing.assert_allclose(M, [[1.0, 3.0, 9.0]])

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            Template(n=1, degree=1, bound=np.inf)


def _synth_points(fix, seed=8, count=300):
    samples = np.vstack([
        fix["grid"].nodes(),
        fix["grid"].box.sample(2000, np.random.default_rng(seed)),
    ])
    omega = regions.compute_omega(fix["system"], fix["regions"], samples,
                                  transient_only=True)
    return omega.sample(count, np.random.default_rng(seed + 1))


class TestSynthesize:
    def test_gambler_degree_one(self, gambler):
        result = synthesize(
            gambler["system"], gambler["regions"], KIND_RA_LOWER_A1,
            Template(n=1, degree=1), _synth_points(gambler), [3.0],
            margin=0.01, revalidation_seed=9,
        )
        assert 0.25 <= result.threshold <= 0.30
        assert result.status == "validated"

    def test_revalidation_on_fresh_points(self, gambler):
        result = synthesize(
            gambler["system"], gambler["regions"], KIND_RA_LOWER_A1,
            Template(n=1, degree=1), _synth_points(gambler, seed=21), [3.0],
            margin=0.01, revalidation_seed=22,
        )
        fresh = _synth_points(gambler, seed=77, count=2000)
        cond = Condition(KIND_RA_LOWER_A1, result.threshold)
        report = check_condition(gambler["system"], gambler["regions"], result.cert,
                                 cond, [3.0], fresh, 1e-6)
        assert report.passed

    def test_threshold_never_beats_exact_value(self, gambler):
        exact = dp.solve_exact_small(gambler["reach_kernel"])
        result = synthesize(
            gambler["system"], gambler["regions"], KIND_RA_LOWER_A1,
            Template(n=1, degree=1), _synth_points(gambler), [3.0],
            margin=0.01,
        )
        assert result.threshold <= dp.eval_field(exact, [3.0]) + 1e-6

    def test_zero_bound_gives_zero_polynomial(self, gambler):
        result = synthesize(
            gambler["system"], gambler["regions"], KIND_RA_LOWER_A1,
            Template(n=1, degree=1, bound=0.0), _synth_points(gambler), [3.0],
        )
        assert result.threshold == 0.0
        assert all(c == 0.0 for c in result.cert.coeffs)

    def test_safety_lower_constant_template_infeasible(self, contraction):
        # a constant cannot be both small at x0 and >= 1 outside X
        samples = np.vstack([
            contraction["grid"].nodes(),
            contraction["grid"].box.sample(500, np.random.default_rng(3)),
        ])
        omega = regions.compute_omega(contraction["system"], contraction["regions"],
                                      samples)
        points = omega.inflate(0.2).sample(300, np.random.default_rng(4))
        with pytest.raises(SynthesisInfeasibleError):
            synthesize(
                contraction["system"], contraction["regions"], KIND_SAFETY_LOWER,
                Template(n=1, degree=0, bound=0.4), points, contraction["x0"],
                margin=0.0,
            )

    def test_safety_lower_affine_infeasible_two_sided(self, gambler):
        # an affine function cannot exceed 1 on both sides of the safe
        # interval while staying at most 1 at the initial state: the
        # threshold-consistency row makes the LP report that honestly
        samples = np.vstack([
            gambler["grid"].nodes(),
            gambler["grid"].box.sample(500, np.random.default_rng(30)),
        ])
        omega = regions.compute_omega(gambler["system"], gambler["regions"], samples)
        points = omega.sample(300, np.random.default_rng(31))
        with pytest.raises(SynthesisInfeasibleError):
            synthesize(gambler["system"], gambler["regions"], KIND_SAFETY_LOWER,
                       Template(n=1, degree=1), points, [3.0], margin=0.01)

    def test_pair_kind_rejected(self, gambler):
        with pytest.raises(ValueError, match="pair"):
            synthesize(gambler["system"], gambler["regions"], KIND_RA_LOWER_PAIR,
                       Template(n=1, degree=1), _synth_points(gambler), [3.0])

    def test_discounted_requires_gamma(self, gambler):
        with pytest.raises(ValueError, match="gamma"):
            synthesize(gambler["system"], gambler["regions"],
                       cm.KIND_RA_LOWER_DISCOUNTED,
                       Template(n=1, degree=1), _synth_points(gambler), [3.0])
