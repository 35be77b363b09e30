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


def _separate_codes(reg, xs):
    """Class codes from the target and then the safe predicate, each
    evaluated alone, or the message of the first EvalError."""
    try:
        in_target = expr.eval_predicate_batch(reg.target, xs)
        in_safe = expr.eval_predicate_batch(reg.safe, xs)
    except expr.EvalError as exc:
        return str(exc)
    return np.where(in_target, StateClass.TARGET,
                    np.where(in_safe, StateClass.SAFE, StateClass.UNSAFE))


class TestSharedSubexpressions:
    def test_disc_squares_each_coordinate_once(self, monkeypatch):
        bases = []
        power = expr._UFUNCS["^"]
        monkeypatch.setitem(expr._UFUNCS, "^",
                            lambda *args, **kw: bases.append(args[0]) or power(*args, **kw))
        # fresh trees, compiled under the counting power
        reg = regions.RegionSpec(expr.parse_predicate("x1^2 + x2^2 < 1.0", 2),
                                 expr.parse_predicate("x1^2 + x2^2 < 0.04", 2))
        xs = np.random.default_rng(0).uniform(-1.2, 1.2, size=(200, 2))
        codes = classify_batch(reg, xs)
        assert len(bases) == 2
        assert np.array_equal(bases[0], xs[:, 0]) and np.array_equal(bases[1], xs[:, 1])
        assert np.array_equal(codes, _separate_codes(reg, xs))

    @pytest.mark.parametrize("safe, target", [
        ("x1^2 + x2^2 < 1.0", "x1^2 + x2^2 < 0.04"),
        ("x1^2 + x2^2 < 1.0 && 1/(x1 - 0.5) > -40", "1/(x1 - 0.5) > 40 || x1^2 + x2^2 < 0.04"),
        ("x1^2 + x2^2 < 1.0 && 1/(x2 - 0.5) > -40", "x1^2 + x2^2 < 0.04"),
        ("!(exp(400*x1) > 1e30) && abs(x2) < 1", "exp(400*x1) < 2 && !(abs(x2) < 1 && x2 > 0.5)"),
        # the target tolerates the overflow that the safe set raises on
        ("exp(400*x1) - 1 < x1^2 + 5", "min(exp(400*x1), 1) < 2 && x1^2 < 0.5"),
    ])
    def test_codes_and_errors_match_separate_evaluation(self, safe, target):
        # grid-rounded points put some rows on the poles and past the
        # overflow, so some batches raise and some do not
        reg = regions.RegionSpec(expr.parse_predicate(safe, 2), expr.parse_predicate(target, 2))
        rng = np.random.default_rng(9)
        raised = 0
        for _ in range(60):
            xs = np.round(rng.uniform(-2, 2, size=(10, 2)), 1)
            want = _separate_codes(reg, xs)
            try:
                got = classify_batch(reg, xs)
            except expr.EvalError as exc:
                got = str(exc)
            if isinstance(want, str):
                raised += 1
                assert got == want
            else:
                assert np.array_equal(got, want)
                assert got.tolist() == [StateClass.TARGET if scalar_predicate(reg.target, x)
                                        else StateClass.SAFE if scalar_predicate(reg.safe, x)
                                        else StateClass.UNSAFE for x in xs]
        assert raised < 60


def _box_samples(box: Box, n: int, seed: int) -> np.ndarray:
    return box.sample(n, np.random.default_rng(seed))


class TestOmega:
    def test_walk_covers_one_step_images(self):
        system = make_walk(0.5)
        grid = walk_grid()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 4000, 0)])
        omega = regions.compute_omega(system, walk_regions(), samples)
        assert omega.lower[0] <= -1.0 and omega.upper[0] >= 12.0

    def test_identity_fixed_point(self):
        system, reg, grid = make_identity()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 4000, 1)])
        omega = regions.compute_omega(system, reg, samples)
        # image of X is X itself: omega is the sampled X bounding box plus padding
        assert omega.lower[0] <= 0.01 and omega.upper[0] >= 10.99
        assert omega.upper[0] <= 11.5

    def test_contraction_contains_safe_box(self):
        system, reg, grid = make_contraction()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 4000, 2)])
        omega = regions.compute_omega(system, reg, samples)
        assert omega.lower[0] <= -1.0 and omega.upper[0] >= 1.0

    def test_contains_sampled_safe_bbox(self):
        system = make_walk(0.6)
        grid = walk_grid()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 2000, 3)])
        reg = walk_regions()
        omega = regions.compute_omega(system, reg, samples)
        codes = classify_batch(reg, samples)
        inside = samples[codes != int(StateClass.UNSAFE)]
        assert omega.lower[0] <= inside.min() and omega.upper[0] >= inside.max()

    def test_transient_only_excludes_post_target(self):
        # images of X\Xr reach at most 11; the target's own successors
        # ([11, 12)) are excluded so synthesis never samples them
        system = make_walk(0.5)
        grid = walk_grid()
        samples = np.vstack([grid.nodes(), _box_samples(grid.box, 4000, 4)])
        omega = regions.compute_omega(system, walk_regions(), samples,
                                      transient_only=True)
        assert omega.upper[0] < 11.0
        assert omega.lower[0] >= -1.0

    def test_no_safe_samples_error(self):
        system = make_walk(0.5)
        bad = np.full((10, 1), -5.0)
        with pytest.raises(ValueError, match="inside the safe set"):
            regions.compute_omega(system, walk_regions(), bad)

    def test_no_transient_samples_error(self):
        # target samples only: X \ X_r holds none of them
        system = make_walk(0.5)
        with pytest.raises(ValueError, match=r"in X \\ X_r"):
            regions.compute_omega(system, walk_regions(), np.full((10, 1), 10.5),
                                  transient_only=True)

    def test_pad_fraction(self):
        # the identity maps X onto itself: the box is the safe samples' span
        # widened by OMEGA_PAD of its side on each end
        system, reg, _ = make_identity()
        samples = np.array([[1.0], [5.0], [9.0]])
        omega = regions.compute_omega(system, reg, samples)
        pad = regions.OMEGA_PAD * 8.0
        np.testing.assert_allclose([omega.lower[0], omega.upper[0]], [1.0 - pad, 9.0 + pad])
        exact = regions.compute_omega(system, reg, samples, transient_only=True)
        assert (exact.lower[0], exact.upper[0]) == (1.0, 9.0)

    def test_nonfinite_image_error(self):
        dist = model.DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        system = model.SystemModel(
            1, 1, (expr.parse_expr("exp(x1*1000)", 1, 1),), dist)
        grid = walk_grid()
        samples = grid.nodes()
        with pytest.raises(expr.EvalError):
            regions.compute_omega(system, walk_regions(), samples)


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
