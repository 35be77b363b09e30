import math

import numpy as np
import pytest
from scipy import integrate

from stochcert import expr, model
from stochcert.expr import EvalError
from stochcert.model import DisturbanceDist, SystemModel

from conftest import make_walk, one_step_mean
from scalar_reference import scalar_expr


def step_at(system, x, th) -> np.ndarray:
    """One transition of a batch of one."""
    out = model.step_batch(system, [x], [th])
    assert out.shape == (1, system.n)
    return out[0]


class TestDisturbanceDist:
    def test_probs_must_sum_to_one(self):
        # the plain float, not numpy's np.float64(0.9) repr
        with pytest.raises(ValueError, match=r"^probabilities sum to 0\.9, not 1$"):
            DisturbanceDist(atoms=[[-1.0], [1.0]], probs=[0.5, 0.4])

    def test_probs_in_unit_interval(self):
        with pytest.raises(ValueError):
            DisturbanceDist(atoms=[[0.0], [1.0]], probs=[0.0, 1.0])
        with pytest.raises(ValueError):
            DisturbanceDist(atoms=[[0.0], [1.0]], probs=[-0.1, 1.1])

    def test_atoms_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            DisturbanceDist(atoms=[[1.0], [1.0]], probs=[0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DisturbanceDist(atoms=np.empty((0, 1)), probs=np.empty(0))


class TestStep:
    def test_random_walk(self):
        walk = make_walk(0.5)
        assert step_at(walk, [3.0], [1.0]).tolist() == [4.0]

    def test_contraction(self):
        dist = DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        sys = SystemModel(1, 1, (expr.parse_expr("0.5*x1", 1, 1),), dist)
        assert step_at(sys, [4.0], [0.0]).tolist() == [2.0]

    def test_singular_dynamics_error(self):
        dist = DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        sys = SystemModel(1, 1, (expr.parse_expr("1/x1", 1, 1),), dist)
        with pytest.raises(EvalError):
            step_at(sys, [0.0], [0.0])

    def test_batch_is_column_contiguous_and_matches_reference(self):
        dist = DisturbanceDist(atoms=[[-0.1], [0.1]], probs=[0.5, 0.5])
        sys = SystemModel(2, 1, (expr.parse_expr("0.95*x1 + 0.1*x2 + th1", 2, 1),
                                 expr.parse_expr("x1*x2 - th1", 2, 1)), dist)
        rng = np.random.default_rng(8)
        xs, ths = rng.uniform(-1, 1, size=(50, 2)), rng.choice([-0.1, 0.1], size=(50, 1))
        ys = model.step_batch(sys, xs, ths)
        assert ys.shape == (50, 2) and ys.flags.f_contiguous
        for x, th, y in zip(xs, ths, ys):
            assert step_at(sys, x, th).tolist() == y.tolist()
            assert y.tolist() == [scalar_expr(f, x, th) for f in sys.dynamics]

    def test_dynamics_length_validated(self):
        dist = DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        with pytest.raises(ValueError, match="dynamics"):
            SystemModel(2, 1, (expr.parse_expr("x1", 2, 1),), dist)


class TestSampling:
    def test_single_atom_always_returned(self):
        dist = DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert model.sample_disturbance(dist, rng).tolist() == [0.0]

    def test_reproducible_and_frequency(self):
        dist = DisturbanceDist(atoms=[[-1.0], [1.0]], probs=[0.5, 0.5])
        draws1 = [model.sample_disturbance(dist, np.random.default_rng(99))[0]
                  for _ in range(1)]
        draws2 = [model.sample_disturbance(dist, np.random.default_rng(99))[0]
                  for _ in range(1)]
        assert draws1 == draws2
        rng = np.random.default_rng(1234)
        n = 100_000
        ups = sum(model.sample_disturbance(dist, rng)[0] == 1.0 for _ in range(n))
        assert 0.49 <= ups / n <= 0.51

    def test_biased_frequency_within_hoeffding_band(self):
        dist = DisturbanceDist(atoms=[[0.0], [1.0]], probs=[0.3, 0.7])
        rng = np.random.default_rng(7)
        n = 100_000
        hits = sum(model.sample_disturbance(dist, rng)[0] == 0.0 for _ in range(n))
        band = math.sqrt(math.log(2 / 1e-3) / (2 * n))
        assert abs(hits / n - 0.3) <= band


class TestSimulate:
    def test_zero_horizon(self):
        walk = make_walk(0.5)
        traj = model.simulate(walk, [3.0], 0, seed=1)
        assert traj.states.shape == (1, 1)
        assert traj.states[0, 0] == 3.0

    def test_deterministic_per_seed(self):
        walk = make_walk(0.5)
        a = model.simulate(walk, [3.0], 200, seed=5)
        b = model.simulate(walk, [3.0], 200, seed=5)
        assert np.array_equal(a.states, b.states)

    def test_contraction_closed_form(self):
        dist = DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        sys = SystemModel(1, 1, (expr.parse_expr("0.5*x1", 1, 1),), dist)
        traj = model.simulate(sys, [8.0], 3, seed=0)
        assert traj.states.ravel().tolist() == [8.0, 4.0, 2.0, 1.0]

    def test_states_reevaluate_exactly(self):
        walk = make_walk(0.6)
        traj = model.simulate(walk, [3.0], 100, seed=11)
        for l in range(traj.disturbances.shape[0]):
            nxt = step_at(walk, traj.states[l], traj.disturbances[l])
            assert np.array_equal(nxt, traj.states[l + 1])

    @pytest.mark.parametrize("dynamics, steps", [
        ("x1 + th1", 1000),
        ("x1 + th1 + 0/(x1 + 2)", 6),  # aborts on reaching x1 = -2
    ])
    def test_draws_match_per_step_sampling(self, dynamics, steps):
        dist = DisturbanceDist(atoms=[[-1.0], [0.0], [1.0]], probs=[0.5, 0.2, 0.3])
        walk = SystemModel(1, 1, (expr.parse_expr(dynamics, 1, 1),), dist)
        traj = model.simulate(walk, [1.0], 1000, seed=17)
        rng = np.random.default_rng(17)
        ref = np.array([model.sample_disturbance(dist, rng) for _ in range(1000)])
        assert traj.disturbances.shape == (steps, 1)
        assert traj.states.shape == (steps + 1, 1)
        assert np.array_equal(traj.disturbances, ref[:steps])
        assert np.array_equal(traj.states[1:, 0], 1.0 + np.cumsum(ref[:steps, 0]))

    def test_error_truncates_with_flag(self):
        dist = DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        sys = SystemModel(1, 1, (expr.parse_expr("1/(x1 - 1)", 1, 1),), dist)
        traj = model.simulate(sys, [2.0], 10, seed=0)  # 2 -> 1 -> divide by zero
        assert traj.error is not None
        assert traj.states.shape[0] == 2


class TestExpectation:
    def test_constant(self):
        walk = make_walk(0.5)
        assert one_step_mean(walk, [3.0], lambda y: 7.5) == pytest.approx(7.5, abs=1e-15)

    def test_symmetric_mean(self):
        walk = make_walk(0.5)
        assert one_step_mean(walk, [3.0], lambda y: y[0]) == pytest.approx(3.0, abs=1e-12)

    def test_biased_mean(self):
        walk = make_walk(0.6)
        assert one_step_mean(walk, [3.0], lambda y: y[0]) == pytest.approx(3.2, abs=1e-12)

    def test_linearity(self):
        walk = make_walk(0.6)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = [rng.uniform(0, 10)]
            g1 = lambda y: math.sin(y[0])
            g2 = lambda y: y[0] ** 2
            lhs = one_step_mean(walk, x, lambda y: g1(y) + g2(y))
            rhs = one_step_mean(walk, x, g1) + one_step_mean(walk, x, g2)
            assert abs(lhs - rhs) <= 1e-12

    def test_indicator_in_unit_interval(self):
        walk = make_walk(0.5)
        val = one_step_mean(walk, [9.0], lambda y: 1.0 if y[0] >= 10 else 0.0)
        assert 0.0 <= val <= 1.0


class TestQuantize:
    def test_uniform_two_atoms(self):
        dist = model.quantize_uniform(-1.0, 1.0, 2)
        assert dist.atoms.ravel().tolist() == [-0.5, 0.5]
        assert dist.probs.tolist() == [0.5, 0.5]

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            model.quantize_uniform(1.0, 1.0, 2)

    def test_gaussian_single_atom(self):
        dist = model.quantize_gaussian(0.0, 1.0, 1)
        assert dist.atoms.ravel().tolist() == [0.0]
        assert dist.probs.tolist() == [1.0]

    def test_gaussian_rejects_bad_std(self):
        with pytest.raises(ValueError):
            model.quantize_gaussian(0.0, 0.0, 4)

    def test_gaussian_eight_atoms_mass(self):
        dist = model.quantize_gaussian(0.0, 1.0, 8)
        assert abs(dist.probs.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(dist.probs, dist.probs[::-1], atol=1e-14)
        np.testing.assert_allclose(dist.atoms.ravel(), -dist.atoms.ravel()[::-1],
                                   atol=1e-14)

    def test_gaussian_masses_match_quadrature(self):
        mean, std, k = 0.3, 0.7, 6
        dist = model.quantize_gaussian(mean, std, k)
        pdf = lambda z: math.exp(-0.5 * ((z - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
        edges = np.linspace(mean - 4 * std, mean + 4 * std, k + 1)
        masses = np.array([integrate.quad(pdf, a, b)[0] for a, b in zip(edges[:-1], edges[1:])])
        np.testing.assert_allclose(dist.probs, masses / masses.sum(), atol=1e-10)
