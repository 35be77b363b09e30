import numpy as np
import pytest

from stochcert import expr, model, regions
from stochcert.regions import Box, StateClass, classify_batch

from conftest import make_contraction, make_identity, make_walk, walk_grid, walk_regions
from scalar_reference import scalar_predicate


def classify_at(reg, x) -> StateClass:
    """The class of one point, classified as a batch of one."""
    codes = classify_batch(reg, [x])
    assert codes.shape == (1,)
    return StateClass(codes[0])


class TestClassify:
    def test_three_way(self):
        reg = walk_regions()
        assert classify_at(reg, [3.0]) == StateClass.SAFE
        assert classify_at(reg, [10.0]) == StateClass.TARGET
        assert classify_at(reg, [0.0]) == StateClass.UNSAFE  # strict boundary

    def test_partition_property(self):
        reg = walk_regions()
        rng = np.random.default_rng(17)
        pts = np.vstack([rng.uniform(-2, 13, size=(500, 1)), [[0.0], [10.0], [11.0]]])
        codes = classify_batch(reg, pts)
        for x, code in zip(pts, codes):
            assert code == int(classify_at(reg, x))
            in_target = scalar_predicate(reg.target, x)
            in_safe = scalar_predicate(reg.safe, x)
            assert code == (StateClass.TARGET if in_target else
                            StateClass.SAFE if in_safe else StateClass.UNSAFE)
            indicators = [in_target, in_safe and not in_target,
                          not in_safe and not in_target]
            assert sum(indicators) == 1


class TestNesting:
    def test_pass(self):
        reg = walk_regions()
        rng = np.random.default_rng(3)
        report = regions.validate_nesting(reg, rng.uniform(-1, 12, size=(10_000, 1)))
        assert report.passed and report.target_seen and not report.vacuous

    def test_violation_witnesses(self):
        bad = regions.RegionSpec(
            safe=expr.parse_predicate("x1 > 0 && x1 < 5", 1),
            target=expr.parse_predicate("x1 >= 10 && x1 < 11", 1),
        )
        rng = np.random.default_rng(4)
        report = regions.validate_nesting(bad, rng.uniform(-1, 12, size=(10_000, 1)))
        assert not report.passed
        assert all(10 <= w[0] < 11 for w in report.witnesses)

    def test_vacuous_pass(self):
        reg = regions.RegionSpec(
            safe=expr.parse_predicate("x1 > 0 && x1 < 5", 1),
            target=expr.parse_predicate("x1 > 1e9", 1),
        )
        rng = np.random.default_rng(5)
        report = regions.validate_nesting(reg, rng.uniform(-1, 12, size=(1000, 1)))
        assert report.passed and report.vacuous

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            regions.validate_nesting(walk_regions(), np.empty((0, 1)))


def _box_samples(box: Box, n: int, seed: int) -> np.ndarray:
    return box.sample(n, np.random.default_rng(seed))


class TestOmega:
    def test_walk_covers_one_step_images(self):
        system = make_walk(0.5)
        grid = walk_grid()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 4000, 0)])
        omega = regions.compute_omega(system, grid.box, walk_regions(), samples)
        assert omega.lower[0] <= -1.0 and omega.upper[0] >= 12.0

    def test_identity_fixed_point(self):
        system, reg, grid = make_identity()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 4000, 1)])
        omega = regions.compute_omega(system, grid.box, reg, samples)
        # image of X is X itself: omega is the sampled X bounding box plus padding
        assert omega.lower[0] <= 0.01 and omega.upper[0] >= 10.99
        assert omega.upper[0] <= 11.5

    def test_contraction_contains_safe_box(self):
        system, reg, grid = make_contraction()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 4000, 2)])
        omega = regions.compute_omega(system, grid.box, reg, samples)
        assert omega.lower[0] <= -1.0 and omega.upper[0] >= 1.0

    def test_contains_sampled_safe_bbox(self):
        system = make_walk(0.6)
        grid = walk_grid()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 2000, 3)])
        reg = walk_regions()
        omega = regions.compute_omega(system, grid.box, reg, samples)
        codes = classify_batch(reg, samples)
        inside = samples[codes != int(StateClass.UNSAFE)]
        assert omega.lower[0] <= inside.min() and omega.upper[0] >= inside.max()

    def test_transient_only_excludes_post_target(self):
        # images of X\Xr reach at most 11; the target's own successors
        # ([11, 12)) are excluded so synthesis never samples them
        system = make_walk(0.5)
        grid = walk_grid()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 4000, 4)])
        omega = regions.compute_omega(system, grid.box, walk_regions(), samples,
                                      transient_only=True)
        assert omega.upper[0] < 11.0
        assert omega.lower[0] >= -1.0

    def test_no_safe_samples_error(self):
        system = make_walk(0.5)
        grid = walk_grid()
        bad = np.full((10, 1), -5.0)
        with pytest.raises(ValueError, match="inside the safe set"):
            regions.compute_omega(system, grid.box, walk_regions(), bad)

    def test_nonfinite_image_error(self):
        dist = model.DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        system = model.SystemModel(
            1, 1, (expr.parse_expr("exp(x1*1000)", 1, 1),), dist)
        grid = walk_grid()
        samples = grid.nodes()
        with pytest.raises(expr.EvalError):
            regions.compute_omega(system, grid.box, walk_regions(), samples)


class TestBox:
    def test_contains_and_sample(self):
        box = Box([0.0, -1.0], [2.0, 1.0])
        assert box.contains([[1.0, 0.0]])[0]
        assert not box.contains([[3.0, 0.0]])[0]
        pts = box.sample(100, np.random.default_rng(0))
        assert box.contains(pts).all()

    def test_invalid(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])
