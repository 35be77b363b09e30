from pathlib import Path

import numpy as np
import pytest

from stochcert import cli, dp, expr, model, regions
from stochcert.dp import (
    Grid,
    GridTooSmallError,
    SingularSystemError,
    apply_bellman,
    build_kernel,
    check_assumption1,
    eval_field_batch,
    node_operator,
    solve_discounted,
    solve_exact_small,
    solve_reach_avoid,
    solve_safety_exit,
)

from conftest import chain_solve, make_walk, ruin_probability, walk_grid, walk_regions

HERE = Path(__file__).resolve().parent
TWO_STARTS = HERE / "disc_walk_two_starts.yaml"


def jacobi(kernel, gamma=1.0, sweeps=5000):
    """Reference fixed point: plain Jacobi sweeps of v = gamma * (b + P v)
    from the absorbed values, far past convergence on the small fixtures."""
    v = kernel.absorbed_values()
    for _ in range(sweeps):
        v[kernel.transient] = gamma * (kernel.one_mass + kernel.P.dot(v[kernel.transient]))
    return v


class TestGrid:
    def test_1d_midpoints(self):
        grid = Grid([-1.0], [12.0], [13])
        np.testing.assert_allclose(grid.nodes().ravel(), np.arange(13) - 0.5)

    def test_2d_row_major_order(self):
        grid = Grid([0.0, 0.0], [3.0, 2.0], [3, 2])
        expected = [
            [0.5, 0.5], [0.5, 1.5],
            [1.5, 0.5], [1.5, 1.5],
            [2.5, 0.5], [2.5, 1.5],
        ]
        np.testing.assert_allclose(grid.nodes(), expected)

    def test_fields_normalized_and_frozen(self):
        grid = dp.Grid([0.0], [1.0], [2.0])  # __post_init__ converts each field
        assert grid.cells.dtype == np.int64 and grid.lower.dtype == float
        with pytest.raises(AttributeError):
            grid.cells = np.array([3])

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            Grid([0.0], [1.0], [0])

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError):
            Grid([1.0], [0.0], [4])


def _walk_2d():
    """A 2-D affine walk with three atoms, its regions and a 25^2-cell grid."""
    dist = model.DisturbanceDist(atoms=[[-0.3, 0.1], [0.2, -0.2], [0.0, 0.3]],
                                 probs=[0.25, 0.35, 0.4])
    system = model.SystemModel(
        2, 2,
        (expr.parse_expr("0.8*x1 + th1", 2, 2), expr.parse_expr("0.7*x2 + th2", 2, 2)),
        dist,
    )
    reg = regions.RegionSpec(
        safe=expr.parse_predicate("x1 > -2 && x1 < 2 && x2 > -2 && x2 < 2", 2),
        target=expr.parse_predicate("x1^2 + x2^2 < 0.25", 2),
    )
    grid = Grid([-2.5, -2.5], [2.5, 2.5], [25, 25])
    return system, reg, grid


def _kernel_2d():
    """Reach-avoid kernel of ``_walk_2d``."""
    system, reg, grid = _walk_2d()
    return build_kernel(*node_operator(system, grid, reg), dp.MODE_REACH_AVOID)


class TestKernel:
    def test_gambler_outcomes(self, gambler):
        k = gambler["reach_kernel"]
        row = {int(node): t for t, node in enumerate(k.transient)}
        # interior node 3: both atoms stay transient, each landing exactly on
        # a node, so half the mass goes to node 2 and half to node 4
        spread = k.P.toarray()[row[3]]
        assert np.flatnonzero(spread).tolist() == [row[2], row[4]]
        np.testing.assert_allclose(spread[[row[2], row[4]]], 0.5, atol=1e-12)
        assert k.one_mass[row[3]] == 0.0 and k.zero_mass[row[3]] == 0.0
        # node 9: +1 hits the target
        assert k.one_mass[row[9]] == pytest.approx(0.5)
        # node 1: -1 exits
        assert k.zero_mass[row[1]] == pytest.approx(0.5)

    def test_mass_conserved(self, gambler):
        k = gambler["reach_kernel"]
        total = k.one_mass + k.zero_mass + k.P.toarray().sum(axis=1)
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_mass_conserved_2d(self):
        k = _kernel_2d()
        total = k.one_mass + k.zero_mass + k.P.toarray().sum(axis=1)
        np.testing.assert_allclose(total, 1.0, atol=1e-9)
        idx, w = dp._interp_weights(k.grid, k.grid.nodes()[:50])
        assert (w >= 0).all()

    def test_absorbing_nodes_fold_into_masses(self):
        # images near the target disc interpolate partly onto target nodes:
        # that weight joins one_mass, and P keeps the transient block only
        # (test_mass_conserved_2d checks that each row still sums to one)
        system, reg, grid = _walk_2d()
        k = build_kernel(*node_operator(system, grid, reg), dp.MODE_REACH_AVOID)
        assert k.P.shape == (k.n_transient, k.n_transient)
        xs = grid.nodes()[k.transient]
        direct = np.zeros(k.n_transient)
        for atom, p in zip(system.dist.atoms, system.dist.probs):
            ys = model.step_batch(system, xs, np.broadcast_to(atom, (len(xs), 2)))
            direct += p * (regions.classify_batch(reg, ys) == int(regions.StateClass.TARGET))
        assert (k.one_mass >= direct - 1e-15).all()
        assert (k.one_mass > direct + 1e-3).any()

    @pytest.mark.parametrize("mode", [dp.MODE_REACH_AVOID, dp.MODE_SAFETY])
    def test_matches_per_atom_reference(self, mode, monkeypatch):
        # the kernel built atom by atom: each atom's images classified and
        # interpolated on their own, weighted by p_a into slots a*2^n + c,
        # then folded onto the absorbing nodes and cut to the transient block
        system, reg, grid = _walk_2d()
        one_cls, zero_cls = dp._ABSORBING[mode]
        nodes = grid.nodes()
        node_class = regions.classify_batch(reg, nodes)
        one_mask, zero_mask = node_class == one_cls, node_class == zero_cls
        transient = np.flatnonzero(~(one_mask | zero_mask))
        xs = nodes[transient]
        corners = 1 << grid.n
        one_mass, zero_mass = np.zeros(len(xs)), np.zeros(len(xs))
        idx = np.zeros((len(xs), len(system.dist.probs) * corners), dtype=np.int64)
        w = np.zeros(idx.shape)
        for a, (atom, p) in enumerate(zip(system.dist.atoms, system.dist.probs)):
            ys = model.step_batch(system, xs, np.broadcast_to(atom, (len(xs), system.m)))
            img_class = regions.classify_batch(reg, ys)
            one_mass[img_class == one_cls] += p
            zero_mass[img_class == zero_cls] += p
            mix = (img_class != one_cls) & (img_class != zero_cls)
            slots = slice(a * corners, (a + 1) * corners)
            idx[mix, slots], corner_w = dp._interp_weights(grid, ys[mix])
            w[mix, slots] = p * corner_w
        full = dp.SlotMatrix(idx, w, grid.n_nodes)
        one_mass += full.dot(one_mask.astype(float))
        zero_mass += full.dot(zero_mask.astype(float))
        want = full.block(slice(None), transient)

        calls = []
        interp = dp._interp_weights
        monkeypatch.setattr(dp, "_interp_weights",
                            lambda *args: calls.append(args) or interp(*args))
        k = build_kernel(*node_operator(system, grid, reg), mode)
        assert len(calls) == 1
        assert np.array_equal(k.transient, transient)
        assert np.array_equal(k.one_mass, one_mass)
        assert np.array_equal(k.zero_mass, zero_mass)
        assert np.array_equal(k.P.w, want.w)
        assert np.array_equal(k.P.toarray(), want.toarray())

    def test_slot_matrix_matches_dense(self):
        k = _kernel_2d()
        dense = k.P.toarray()
        assert dense.shape == (k.n_transient, k.n_transient)
        assert np.count_nonzero(dense) <= k.P.nnz <= k.P.w.size
        # each row carries the mass that is not absorbed
        np.testing.assert_allclose(dense.sum(axis=1), 1.0 - k.one_mass - k.zero_mass,
                                   atol=1e-12)
        x = np.random.default_rng(0).random(k.n_transient)
        np.testing.assert_allclose(k.P.dot(x), dense @ x, rtol=0, atol=1e-14)
        # every third transient column kept: weights into dropped columns vanish
        rows = np.flatnonzero(np.arange(k.n_transient) % 2 == 0)
        cols = np.arange(k.n_transient)[::3]
        sub = k.P.block(rows, cols)
        expected = dense[rows][:, cols]
        assert sub.shape == expected.shape
        np.testing.assert_array_equal(sub.toarray(), expected)
        assert expected.sum(axis=1).min() < dense[rows].sum(axis=1).min()
        np.testing.assert_allclose(sub.dot(x[:cols.size]), expected @ x[:cols.size],
                                   rtol=0, atol=1e-14)
        # boolean masks select the same block as index arrays
        row_mask = np.zeros(k.n_transient, dtype=bool)
        row_mask[rows] = True
        col_mask = np.zeros(k.n_transient, dtype=bool)
        col_mask[cols] = True
        np.testing.assert_array_equal(k.P.block(row_mask, col_mask).toarray(), expected)

    def test_grid_too_small(self):
        # safe set reaches beyond the grid box: safe images must abort
        system = make_walk(0.5)
        reg = regions.RegionSpec(
            safe=expr.parse_predicate("x1 > 0 && x1 < 11", 1),
            target=expr.parse_predicate("x1 >= 10 && x1 < 11", 1),
        )
        grid = Grid([0.5], [9.5], [9])  # nodes 1..9, image 10 is target, 0 unsafe-> fine
        build_kernel(*node_operator(system, grid, reg), dp.MODE_REACH_AVOID)
        tight = Grid([0.5], [8.5], [8])  # node 8 maps to 9, safe but off the box
        with pytest.raises(GridTooSmallError, match="outside the grid box"):
            build_kernel(*node_operator(system, tight, reg), dp.MODE_REACH_AVOID)

    def test_mode_validation(self, gambler):
        with pytest.raises(ValueError):
            build_kernel(*node_operator(gambler["system"], gambler["grid"], gambler["regions"]),
                         "nope")
        with pytest.raises(ValueError):
            solve_reach_avoid(gambler["safety_kernel"])
        with pytest.raises(ValueError):
            solve_safety_exit(gambler["reach_kernel"])


class TestSolvers:
    def test_reach_avoid_gamblers_ruin(self, gambler):
        fld = solve_reach_avoid(gambler["reach_kernel"])
        assert fld.converged
        assert eval_field_batch(fld, [3.0])[0] == pytest.approx(0.3, abs=1e-6)

    def test_reach_avoid_boundary_values(self, gambler):
        fld = solve_reach_avoid(gambler["reach_kernel"])
        assert eval_field_batch(fld, [10.0])[0] == 1.0  # target node
        assert eval_field_batch(fld, [11.0])[0] == 0.0  # outside X

    def test_safety_exit_symmetric_walk(self, gambler):
        fld = solve_safety_exit(gambler["safety_kernel"])
        for x in (2.0, 3.0, 5.0, 8.0):
            assert eval_field_batch(fld, [x])[0] == pytest.approx(1.0, abs=1e-6)

    def test_safety_exit_invariant_contraction(self, contraction):
        fld = solve_safety_exit(contraction["safety_kernel"])
        assert eval_field_batch(fld, [0.0])[0] == 0.0
        assert eval_field_batch(fld, contraction["x0"])[0] == 0.0
        assert eval_field_batch(fld, [1.15])[0] == 1.0  # node outside X

    def test_monotone_and_bounded_iterates(self, gambler):
        k = gambler["reach_kernel"]
        v = k.absorbed_values()
        for _ in range(60):
            nxt = apply_bellman(k, v)
            assert (nxt >= v - 1e-12).all()
            assert (nxt >= 0).all() and (nxt <= 1 + 1e-12).all()
            v = nxt

    def test_discounted_zero_gamma_is_indicator(self, gambler):
        fld = solve_discounted(gambler["reach_kernel"], 0.0)
        np.testing.assert_array_equal(fld.values, gambler["reach_kernel"].absorbed_values())

    def test_discounted_matches_exact_solve(self, gambler):
        oracle = chain_solve(0.5, gamma=0.99)
        fld = solve_discounted(gambler["reach_kernel"], 0.99, tol=1e-12)
        assert eval_field_batch(fld, [3.0])[0] == pytest.approx(oracle[2], abs=1e-9)
        exact = solve_exact_small(gambler["reach_kernel"], gamma=0.99)
        assert eval_field_batch(exact, [3.0])[0] == pytest.approx(oracle[2], abs=1e-12)

    def test_discounted_below_undiscounted(self, gambler):
        reach = solve_reach_avoid(gambler["reach_kernel"])
        for gamma in (0.5, 0.9, 0.99):
            disc = solve_discounted(gambler["reach_kernel"], gamma)
            assert (disc.values <= reach.values + 1e-9).all()

    def test_gamma_one_rejected(self, gambler):
        with pytest.raises(ValueError):
            solve_discounted(gambler["reach_kernel"], 1.0)

    def test_contraction_bound(self, gambler):
        rng = np.random.default_rng(12)
        k = gambler["reach_kernel"]
        for gamma in (0.5, 0.99):
            for _ in range(25):
                u = rng.uniform(0, 1, k.grid.n_nodes)
                v = rng.uniform(0, 1, k.grid.n_nodes)
                lhs = np.max(np.abs(apply_bellman(k, u, gamma) - apply_bellman(k, v, gamma)))
                assert lhs <= gamma * np.max(np.abs(u - v)) + 1e-12


class TestAgainstJacobi:
    @pytest.mark.parametrize("name", ["gambler", "biased", "contraction"])
    def test_all_objectives_match_jacobi(self, request, name):
        fix = request.getfixturevalue(name)
        reach, safety = fix["reach_kernel"], fix["safety_kernel"]
        cases = [
            (solve_reach_avoid(reach), jacobi(reach)),
            (solve_safety_exit(safety), jacobi(safety)),
            (solve_discounted(reach, 0.9), jacobi(reach, 0.9)),
            (solve_discounted(safety, 0.9), jacobi(safety, 0.9)),
        ]
        for fld, want in cases:
            err = np.max(np.abs(fld.values - want))
            assert err <= 1e-9
            # the oracle itself carries rounding error of order 1e-16
            assert fld.converged and err <= fld.error_bound + 1e-15


class TestLongChain:
    """A 200-state symmetric gambler's ruin mixes slowly: sweep-based stopping
    rules stop short there, a residual-based bound does not."""

    N = 200

    @pytest.fixture(scope="class")
    def kernel(self):
        reg = regions.RegionSpec(
            safe=expr.parse_predicate(f"x1 > 0 && x1 < {self.N + 1}", 1),
            target=expr.parse_predicate(f"x1 >= {self.N} && x1 < {self.N + 1}", 1),
        )
        grid = Grid([-0.5], [self.N + 1.5], [self.N + 2])  # nodes 0..201
        return build_kernel(*node_operator(make_walk(0.5), grid, reg), dp.MODE_REACH_AVOID)

    def test_reach_avoid_matches_closed_form_within_bound(self, kernel):
        tol = 1e-9
        fld = solve_reach_avoid(kernel, tol=tol)
        nodes = np.arange(self.N + 2)
        want = np.where(nodes <= self.N, nodes / self.N, 0.0)
        err = np.max(np.abs(fld.values - want))
        assert err <= tol
        assert err <= fld.error_bound <= tol
        assert fld.converged

    def test_iteration_cap_flags_loose_bound(self, kernel):
        fld = solve_reach_avoid(kernel, tol=1e-9, max_iter=5)
        assert fld.iterations <= 5
        assert not fld.converged and fld.error_bound > 1e-9
        assert ((fld.values >= 0.0) & (fld.values <= 1.0)).all()


class TestExactSolve:
    def test_symmetric_closed_form(self, gambler):
        fld = solve_exact_small(gambler["reach_kernel"])
        for i in range(1, 10):
            assert eval_field_batch(fld, [float(i)])[0] == pytest.approx(
                ruin_probability(i, 10, 0.5), abs=1e-12)

    def test_biased_closed_form(self, biased):
        fld = solve_exact_small(biased["reach_kernel"])
        oracle = chain_solve(0.6)
        for i in range(1, 10):
            value = eval_field_batch(fld, [float(i)])[0]
            assert value == pytest.approx(ruin_probability(i, 10, 0.6), abs=1e-12)
            assert value == pytest.approx(oracle[i - 1], abs=1e-12)

    def test_iterative_matches_exact(self, gambler, biased):
        for fix in (gambler, biased):
            tol = 1e-9
            it = solve_reach_avoid(fix["reach_kernel"], tol=tol)
            ex = solve_exact_small(fix["reach_kernel"])
            assert np.max(np.abs(it.values - ex.values)) <= 10 * tol

    def test_all_mass_transient_is_singular(self, identity):
        with pytest.raises(SingularSystemError, match="finite-time-exit"):
            solve_exact_small(identity["reach_kernel"])

    def test_kernel_mode_fixes_the_problem(self, gambler):
        # a safety kernel gives the exit value, a state outside the box exits
        exact = solve_exact_small(gambler["safety_kernel"])
        it = solve_safety_exit(gambler["safety_kernel"], tol=1e-12)
        assert np.max(np.abs(exact.values - it.values)) <= 1e-9
        assert exact.outside_default == it.outside_default == 1.0
        assert solve_exact_small(gambler["reach_kernel"]).outside_default == 0.0
        for gamma in (-0.1, 1.5):
            with pytest.raises(ValueError, match="gamma"):
                solve_exact_small(gambler["reach_kernel"], gamma=gamma)

    def test_node_limit(self, gambler):
        k = gambler["reach_kernel"]
        big = Grid([-0.5], [11.5], [12000])
        with pytest.raises(ValueError, match="dense-solve"):
            solve_exact_small(build_kernel(*node_operator(gambler["system"], big,
                                                          gambler["regions"])))
        del k


class TestAssumption1:
    def test_gambler_holds(self, gambler):
        res = check_assumption1(gambler["reach_kernel"])
        assert res.holds and res.sup_stay_prob == 0.0
        # node 5 is four steps from either end: four growing rounds plus one
        # that finds nothing new
        assert res.iterations == 5

    def test_identity_fails_with_sup_one(self, identity):
        res = check_assumption1(identity["reach_kernel"])
        assert not res.holds
        assert res.sup_stay_prob == 1.0

    def test_no_transient_nodes(self):
        # target == safe: X\Xr is empty, the stay probability is trivially 0
        dist = model.DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        system = model.SystemModel(1, 1, (expr.parse_expr("x1", 1, 1),), dist)
        pred = expr.parse_predicate("x1 > 0 && x1 < 1", 1)
        reg = regions.RegionSpec(safe=pred, target=pred)
        k = build_kernel(*node_operator(system, Grid([0.0], [1.0], [4]), reg))
        res = check_assumption1(k)
        assert res.holds and res.sup_stay_prob == 0.0


def _dense_stay(kernel, horizon):
    """P^horizon 1 on the transient nodes, by dense matrix power."""
    return np.linalg.matrix_power(kernel.P.toarray(), horizon).sum(axis=1)


def _allowance(kernel, horizon):
    """power_bracket's relative rounding allowance over ``horizon`` sweeps."""
    return (1.0 + (kernel.P.idx.shape[1] + 2) * np.finfo(float).eps) ** horizon - 1.0


def _assert_stay_bracket(kernel, horizon):
    """The stay field lies within 1e-12 above P^K 1, plus the rounding
    allowance, and never below it beyond that allowance."""
    fld = dp.stay_probability(kernel, horizon)
    hi, dense = fld.values[kernel.transient], _dense_stay(kernel, horizon)
    allow = _allowance(kernel, horizon)
    assert np.all(hi >= dense * (1.0 - allow))
    assert np.all(hi <= dense * (1.0 + allow) + 1e-12)
    assert not fld.values[np.setdiff1d(np.arange(kernel.grid.n_nodes), kernel.transient)].any()
    return fld


def _scenario_kernels():
    for path in (*sorted((HERE.parent / "scenarios").glob("*.yaml")), TWO_STARTS):
        sc = cli.load_scenario(path)
        r = cli.Run(sc)
        for kernel in (r.reach_kernel, r.safety_kernel):
            yield pytest.param(kernel, sc.mc_horizon, id=f"{path.stem}-{kernel.mode}")


class TestStayProbability:
    @pytest.mark.parametrize("horizon", [0, 1, 7, 500])
    def test_matches_dense_matrix_power(self, gambler, horizon):
        _assert_stay_bracket(gambler["reach_kernel"], horizon)

    @pytest.mark.parametrize("kernel, horizon", _scenario_kernels())
    def test_bracket_on_scenarios(self, kernel, horizon):
        _assert_stay_bracket(kernel, horizon)

    def test_period_two_walk(self):
        # the +-1 walk on integer nodes has period 2: single-step ratios never
        # meet, so the sweeps stop only once the mass itself is below 1e-12
        kernel = build_kernel(*node_operator(make_walk(0.5), walk_grid(), walk_regions()),
                              dp.MODE_SAFETY)
        fld = _assert_stay_bracket(kernel, 2000)
        assert 0 < fld.iterations < 2000

    def test_disc_walk_stops_early(self):
        r = cli.Run(cli.load_scenario(TWO_STARTS))
        for kernel in (r.reach_kernel, r.safety_kernel):
            assert dp.stay_probability(kernel, 500).iterations < 250

    def test_chain_that_empties_reads_zero(self):
        # node 0 moves to node 1, which is absorbed: no mass is left after two steps
        kernel = dp.TransitionKernel(
            Grid([0.0], [3.0], [3]), dp.MODE_REACH_AVOID, transient=np.array([0, 1]),
            one_nodes=np.array([2]), one_mass=np.array([0.0, 1.0]), zero_mass=np.zeros(2),
            P=dp.SlotMatrix(np.array([[1], [0]]), np.array([[1.0], [0.0]]), 2))
        fld = dp.stay_probability(kernel, 500)
        assert fld.values.tolist() == [0.0, 0.0, 0.0] and fld.iterations == 2
        assert dp.stay_probability(kernel, 1).values.tolist()[:2] == pytest.approx([1.0, 0.0])

    def test_bracket_from_a_start_with_zeros(self, gambler):
        # mass enters nodes where v0 is 0, so no finite ratio bounds them there
        P = gambler["reach_kernel"].P
        v0 = np.zeros(P.shape[0])
        v0[4] = 1.0
        dense = np.linalg.matrix_power(P.toarray(), 300) @ v0
        lo, hi, sweeps = dp.power_bracket(P, v0, 300, 1e-12)
        allow = (1.0 + (P.idx.shape[1] + 2) * np.finfo(float).eps) ** 300 - 1.0
        assert np.all(lo <= dense * (1.0 + allow)) and np.all(hi >= dense * (1.0 - allow))
        assert np.all(hi - lo <= 1e-12 + 2 * allow * hi) and sweeps <= 300

    def test_horizon_beyond_100k_sweeps(self):
        # one transient node that stays with probability q per step, for more
        # steps than any sweep cap short of the horizon would allow; one sweep
        # gives the ratio q, and the bracket is the rounding allowance alone
        q, horizon = 1.0 - 1e-5, 150_000
        kernel = dp.TransitionKernel(
            Grid([0.0], [2.0], [2]), dp.MODE_REACH_AVOID, transient=np.array([0]),
            one_nodes=np.array([1]), one_mass=np.array([1.0 - q]), zero_mass=np.array([0.0]),
            P=dp.SlotMatrix(np.array([[0]]), np.array([[q]]), 1))
        fld = dp.stay_probability(kernel, horizon)
        allow = _allowance(kernel, horizon)
        assert fld.values[1] == 0.0 and fld.iterations == 1
        assert q ** horizon <= fld.values[0] <= q ** horizon * (1.0 + 2 * allow)


class TestEvalField:
    def test_node_value(self, gambler):
        fld = dp.ValueField(np.arange(12, dtype=float), gambler["grid"])
        assert eval_field_batch(fld, [4.0])[0] == 4.0

    def test_midpoint(self):
        grid = Grid([0.0], [2.0], [2])  # nodes 0.5, 1.5
        fld = dp.ValueField(np.array([0.0, 1.0]), grid)
        assert eval_field_batch(fld, [1.0])[0] == pytest.approx(0.5)

    def test_outside_default(self):
        grid = Grid([0.0], [2.0], [2])
        fld = dp.ValueField(np.array([0.5, 0.5]), grid, outside_default=0.0)
        assert eval_field_batch(fld, [3.0])[0] == 0.0
        fld1 = dp.ValueField(np.array([0.5, 0.5]), grid, outside_default=1.0)
        assert eval_field_batch(fld1, [-1.0])[0] == 1.0

    def test_csv_export(self, tmp_path, gambler):
        fld = solve_reach_avoid(gambler["reach_kernel"])
        path = tmp_path / "field.csv"
        dp.field_to_csv(fld, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "x1,value"
        assert len(rows) == 13


class TestComplementIdentity:
    def test_exit_plus_liveness_is_one(self, gambler):
        from stochcert import mc

        exit_fld = solve_safety_exit(gambler["safety_kernel"])
        for x in (2.0, 5.0, 8.0):
            est = mc.estimate(gambler["system"], gambler["regions"], [x],
                              horizon=2000, n_trials=4000, delta=0.05, seed=31)[0]
            total = eval_field_batch(exit_fld, [x])[0] + est.p_hat
            assert abs(total - 1.0) <= est.half_width + 1e-6


@pytest.fixture(scope="module")
def lattice():
    dist = model.DisturbanceDist(
        atoms=[[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]],
        probs=[0.25, 0.25, 0.25, 0.25])
    system = model.SystemModel(
        2, 2,
        (expr.parse_expr("x1 + th1", 2, 2), expr.parse_expr("x2 + th2", 2, 2)),
        dist)
    reg = regions.RegionSpec(
        safe=expr.parse_predicate("x1 > 0 && x1 < 8 && x2 > 0 && x2 < 8", 2),
        target=expr.parse_predicate("x1 >= 7 && x1 < 8 && x2 > 0 && x2 < 8", 2))
    grid = Grid([-0.5, -0.5], [8.5, 8.5], [9, 9])
    kernel = build_kernel(*node_operator(system, grid, reg), dp.MODE_REACH_AVOID)
    return system, reg, kernel


class TestTwoDimensional:
    """Lattice random walk on a square: three independent routes must agree."""

    def _hand_chain_value(self, start):
        # absorbing lattice chain built independently of the kernel machinery
        states = [(i, j) for i in range(1, 7) for j in range(1, 8)]
        idx = {s: n for n, s in enumerate(states)}
        A = np.eye(len(states))
        b = np.zeros(len(states))
        for (i, j), n in idx.items():
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ni, nj = i + di, j + dj
                if ni == 7:
                    b[n] += 0.25  # reaches the target column
                elif ni == 0 or nj == 0 or nj == 8:
                    pass  # exits the square
                else:
                    A[n, idx[(ni, nj)]] -= 0.25
        return np.linalg.solve(A, b)[idx[start]]

    def test_exact_matches_hand_built_chain(self, lattice):
        _, _, kernel = lattice
        exact = solve_exact_small(kernel)
        for start in ((2, 4), (5, 1), (3, 7)):
            assert eval_field_batch(exact, list(map(float, start)))[0] == pytest.approx(
                self._hand_chain_value(start), abs=1e-12)

    def test_iterative_matches_exact(self, lattice):
        _, _, kernel = lattice
        it = solve_reach_avoid(kernel, tol=1e-9)
        ex = solve_exact_small(kernel)
        assert np.max(np.abs(it.values - ex.values)) <= 1e-8

    def test_mc_agrees(self, lattice):
        from stochcert import mc

        system, reg, kernel = lattice
        exact = solve_exact_small(kernel)
        est = mc.estimate(system, reg, [2.0, 4.0], 4000, 40000, 0.05, 77)[1]
        assert abs(eval_field_batch(exact, [2.0, 4.0])[0] - est.p_hat) <= est.half_width
