from pathlib import Path

import numpy as np
import pytest
import yaml

from stochcert import certificate as cm
from stochcert import cli, dp, expr, model, regions
from stochcert.certificate import (
    KIND_LIVENESS_UPPER_DISCOUNTED,
    KIND_RA_LOWER_A1,
    KIND_RA_LOWER_DISCOUNTED,
    KIND_RA_LOWER_PAIR,
    KIND_SAFETY_LOWER,
    KIND_UNSAFE_REACH_UPPER,
    Condition,
    ConstCert,
    GridCert,
    PolyCert,
    build_check_points,
    check_condition,
    eval_cert_batch,
    extract_certificate,
    load_certificate,
    save_certificate,
)
from stochcert.dp import ValueField, eval_field_batch, solve_discounted, solve_exact_small

from conftest import make_identity, one_step_mean, ruin_probability

# the pins of a reach-avoid field: one on the target, zero off X
REACH_PINS = ((int(regions.StateClass.TARGET), 1.0), (int(regions.StateClass.UNSAFE), 0.0))


def solved_fields(fix, gamma=0.5):
    return {
        "reach_avoid": solve_exact_small(fix["reach_kernel"]),
        "safety_exit": dp.solve_safety_exit(fix["safety_kernel"], tol=1e-12),
        "discounted": solve_exact_small(fix["reach_kernel"], gamma=gamma),
        "discounted_exit": solve_exact_small(fix["safety_kernel"], gamma=gamma),
        "gamma": gamma,
        "regions": fix["regions"],
    }


def check_points(fix, interior=False, n_random=200, seed=7):
    samples = np.vstack([
        fix["grid"].nodes(),
        fix["grid"].box.sample(2000, np.random.default_rng(seed)),
    ])
    omega, _ = regions.compute_omega(fix["system"], fix["regions"], samples)
    return build_check_points(fix["grid"], omega, n_random, seed, interior_random=interior)


class TestEvalCert:
    def test_constant(self):
        assert eval_cert_batch(ConstCert(0.0), [1.0, 2.0])[0] == 0.0

    def test_polynomial(self):
        cert = PolyCert(((0,), (2,)), (0.0, 1.0))  # x1^2
        assert eval_cert_batch(cert, [3.0])[0] == 9.0

    def test_polynomial_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            PolyCert(((0,), (0,)), (1.0, 2.0))
        with pytest.raises(ValueError, match="count"):
            PolyCert(((0,), (1,)), (1.0,))

    def test_grid_at_node(self, gambler):
        fld = ValueField(np.arange(12, dtype=float), gambler["grid"])
        assert eval_cert_batch(GridCert(fld), [5.0])[0] == 5.0

    def test_region_pins_override_interpolation(self, gambler):
        fld = ValueField(np.zeros(12), gambler["grid"], outside_default=0.0, absorbed=REACH_PINS)
        cert = GridCert(fld, regions=gambler["regions"])
        assert eval_cert_batch(cert, [10.7])[0] == 1.0  # inside the target, off the lattice
        assert eval_cert_batch(cert, [5.0])[0] == 0.0


class TestCheckCondition:
    def test_extracted_ra_lower_passes(self, gambler):
        fields = solved_fields(gambler)
        cert = extract_certificate(fields, KIND_RA_LOWER_A1)
        cond = Condition(KIND_RA_LOWER_A1, 0.29)
        report = check_condition(gambler["system"], gambler["regions"], cert, cond,
                                 [3.0], check_points(gambler))
        assert report.passed
        x0_clause = next(c for c in report.clauses if c.name.startswith("initial"))
        assert x0_clause.min_slack == pytest.approx(0.01, abs=1e-9)

    def test_perturbed_cert_fails_near_absorption(self, gambler):
        # bumping the field on X\Xr breaks the sub-fixed-point inequality
        # wherever absorbing mass is positive
        fields = solved_fields(gambler)
        fld = fields["reach_avoid"]
        bumped = fld.values.copy()
        bumped[gambler["reach_kernel"].transient] += 0.05
        cert = GridCert(ValueField(bumped, fld.grid, 0.0))
        cond = Condition(KIND_RA_LOWER_A1, 0.29)
        report = check_condition(gambler["system"], gambler["regions"], cert, cond,
                                 [3.0], gambler["grid"].nodes())
        assert not report.passed
        clause = next(c for c in report.clauses if "E[v o f]" in c.name)
        assert clause.min_slack == pytest.approx(-0.025, abs=1e-9)
        assert clause.worst_point[0] in (1.0, 9.0)

    def test_constant_zero_passes_every_lower_kind_at_zero(self, gambler):
        # degenerate threshold: the all-zero function satisfies each
        # lower-bound condition at eps = 0
        zero = ConstCert(0.0)
        pts = check_points(gambler, interior=True)
        conds = [
            Condition(KIND_RA_LOWER_A1, 0.0),
            Condition(KIND_RA_LOWER_DISCOUNTED, 0.0, gamma=0.5),
            Condition(KIND_LIVENESS_UPPER_DISCOUNTED, 0.0, gamma=0.5),
            Condition(KIND_RA_LOWER_PAIR, 0.0, w=zero),
        ]
        for cond in conds:
            report = check_condition(gambler["system"], gambler["regions"], zero,
                                     cond, [3.0], pts)
            assert report.passed, cond.kind

    def test_safety_lower_on_invariant_contraction(self, contraction):
        fields = solved_fields(contraction, gamma=0.9)
        cert = extract_certificate(fields, KIND_SAFETY_LOWER)
        cond = Condition(KIND_SAFETY_LOWER, 0.99)
        report = check_condition(contraction["system"], contraction["regions"], cert,
                                 cond, contraction["x0"], check_points(contraction))
        assert report.passed

    def test_discounted_kinds_on_contraction(self, contraction):
        # images of nodes land inside the target off the lattice; the pinned
        # rendering keeps the clauses exact there
        fields = solved_fields(contraction, gamma=0.9)
        for kind in (KIND_RA_LOWER_DISCOUNTED, KIND_RA_LOWER_PAIR):
            extracted = extract_certificate(fields, kind)
            if kind == KIND_RA_LOWER_PAIR:
                cert, w = extracted
                cond = Condition(kind, 0.0, gamma=0.9, w=w)
            else:
                cert = extracted
                cond = Condition(kind, 0.0, gamma=0.9)
            report = check_condition(contraction["system"], contraction["regions"],
                                     cert, cond, contraction["x0"],
                                     check_points(contraction))
            assert report.passed, f"{kind}: {report.witnesses[:2]}"

    def test_multiple_initial_states(self, gambler):
        fields = solved_fields(gambler)
        cert = extract_certificate(fields, KIND_RA_LOWER_A1)
        cond = Condition(KIND_RA_LOWER_A1, 0.19)
        report = check_condition(gambler["system"], gambler["regions"], cert, cond,
                                 [[2.0], [3.0], [5.0]], check_points(gambler))
        assert report.passed  # min over the set is 0.2 >= 0.19
        cond_hi = Condition(KIND_RA_LOWER_A1, 0.21)
        report = check_condition(gambler["system"], gambler["regions"], cert, cond_hi,
                                 [[2.0], [3.0], [5.0]], check_points(gambler))
        assert not report.passed

    def test_discounted_initial_set_caveat(self, gambler):
        fields = solved_fields(gambler)
        cert = extract_certificate(fields, KIND_RA_LOWER_DISCOUNTED)
        cond = Condition(KIND_RA_LOWER_DISCOUNTED, 0.0, gamma=0.5)
        report = check_condition(gambler["system"], gambler["regions"], cert, cond,
                                 [[2.0], [3.0]], check_points(gambler))
        assert any("initial-set" in c for c in report.caveats)

    def test_evaluation_error_recorded_as_violation(self, gambler):
        dist = model.DisturbanceDist(atoms=[[0.0]], probs=[1.0])
        system = model.SystemModel(1, 1, (expr.parse_expr("1/(x1 - 5)", 1, 1),), dist)
        cond = Condition(KIND_RA_LOWER_A1, 0.0)
        pts = np.array([[5.0], [4.0]])
        report = check_condition(system, gambler["regions"], ConstCert(0.0), cond,
                                 [3.0], pts)
        assert not report.passed
        assert any(name.startswith("on X\\Xr") for _, name, _, _ in report.witnesses)


class TestExtraction:
    def test_pair_gamma_algebra(self, gambler):
        fields = solved_fields(gambler, gamma=0.5)
        v, w = extract_certificate(fields, KIND_RA_LOWER_PAIR)
        # gamma1 = gamma0/(1-gamma0) = 1, so w equals v and gamma1/(1+gamma1) = 0.5
        np.testing.assert_allclose(w.fld.values, v.fld.values)
        nodes = gambler["grid"].nodes()[gambler["reach_kernel"].transient]
        for x in nodes:
            e_w = one_step_mean(gambler["system"], x, lambda y: eval_cert_batch(w, y)[0])
            slack = e_w - eval_cert_batch(w, x)[0] - eval_cert_batch(v, x)[0]
            assert slack >= -1e-9

    def test_outside_defaults(self, gambler):
        fields = solved_fields(gambler)
        upper = extract_certificate(fields, KIND_SAFETY_LOWER)
        lower = extract_certificate(fields, KIND_RA_LOWER_A1)
        assert upper.fld.outside_default == 1.0
        assert lower.fld.outside_default == 0.0

    def test_necessity_round_trip_all_kinds(self, gambler, contraction):
        # each extraction passes its own condition at the field's value less a
        # margin of ten tolerances
        tol = 1e-6
        margin = 10 * tol
        g_fields = solved_fields(gambler, gamma=0.5)
        c_fields = solved_fields(contraction, gamma=0.9)
        x0g, x0c = [3.0], contraction["x0"]
        reach_v = eval_field_batch(g_fields["reach_avoid"], x0g)[0]
        cases = [
            (gambler, g_fields, KIND_UNSAFE_REACH_UPPER, reach_v + margin, None, x0g),
            (gambler, g_fields, KIND_RA_LOWER_A1, reach_v - margin, None, x0g),
            (gambler, g_fields, KIND_RA_LOWER_DISCOUNTED,
             eval_field_batch(g_fields["discounted"], x0g)[0] - margin, 0.5, x0g),
            (gambler, g_fields, KIND_LIVENESS_UPPER_DISCOUNTED,
             eval_field_batch(g_fields["discounted_exit"], x0g)[0] - margin, 0.5, x0g),
            (contraction, c_fields, KIND_SAFETY_LOWER,
             1.0 - eval_field_batch(c_fields["safety_exit"], x0c)[0] - margin, None, x0c),
        ]
        for fix, fields, kind, eps, gamma, x0 in cases:
            cert = extract_certificate(fields, kind)
            cond = Condition(kind, max(eps, 0.0), gamma=gamma)
            report = check_condition(fix["system"], fix["regions"], cert, cond, x0,
                                     check_points(fix), tol)
            assert report.passed, f"{kind} failed: {report.witnesses[:2]}"
        v, w = extract_certificate(g_fields, KIND_RA_LOWER_PAIR)
        eps = max(eval_field_batch(g_fields["discounted"], x0g)[0] - margin, 0.0)
        cond = Condition(KIND_RA_LOWER_PAIR, eps, gamma=0.5, w=w)
        report = check_condition(gambler["system"], gambler["regions"], v, cond, x0g,
                                 check_points(gambler), tol)
        assert report.passed


class TestBestThreshold:
    """The best threshold a certificate supports: ``tight_threshold`` of its
    values at the initial states, once it passes every structural clause
    (all but clause 0, the initial one) of a probe check at threshold 0."""

    @staticmethod
    def structural_failures(case, cert, kind, x0, points) -> list[str]:
        probe = check_condition(case["system"], case["regions"], cert, Condition(kind, 0.0),
                                x0, points)
        return [c.name for c in probe.clauses[1:] if c.min_slack < -1e-6]

    def test_reach_field_threshold(self, gambler):
        fields = solved_fields(gambler)
        cert = extract_certificate(fields, KIND_RA_LOWER_A1)
        assert not self.structural_failures(gambler, cert, KIND_RA_LOWER_A1, [3.0],
                                            check_points(gambler))
        eps = cm.tight_threshold(KIND_RA_LOWER_A1, eval_cert_batch(cert, [3.0]))
        assert eps == pytest.approx(0.3, abs=1e-9)

    def test_safety_lower_at_fixed_point(self, contraction):
        fields = solved_fields(contraction, gamma=0.9)
        cert = extract_certificate(fields, KIND_SAFETY_LOWER)
        assert not self.structural_failures(contraction, cert, KIND_SAFETY_LOWER, [0.0],
                                            check_points(contraction))
        eps = cm.tight_threshold(KIND_SAFETY_LOWER, eval_cert_batch(cert, [0.0]))
        assert eps == pytest.approx(1.0, abs=1e-12)

    def test_failing_cert_rejected(self, gambler):
        bad = ConstCert(0.5)  # violates v <= 0 outside X
        assert self.structural_failures(gambler, bad, KIND_RA_LOWER_A1, [3.0],
                                        check_points(gambler, interior=True))

    def test_upper_kind_ignores_the_probe_initial_clause(self, gambler):
        # the probe checks at eps = 0, where v(x0) <= eps fails for v(x0) > 0
        cert = extract_certificate(solved_fields(gambler), KIND_UNSAFE_REACH_UPPER)
        points = check_points(gambler)
        probe = check_condition(gambler["system"], gambler["regions"], cert,
                                Condition(KIND_UNSAFE_REACH_UPPER, 0.0), [3.0], points)
        initial, *structural = probe.clauses
        assert initial.min_slack < -0.1
        assert all(c.min_slack >= -1e-6 for c in structural)
        eps = cm.tight_threshold(KIND_UNSAFE_REACH_UPPER, eval_cert_batch(cert, [3.0]))
        assert eps == pytest.approx(0.3, abs=1e-9)


class TestTightThreshold:
    def test_worst_initial_state(self):
        assert cm.tight_threshold(KIND_RA_LOWER_A1, [0.5, 0.25]) == 0.25
        assert cm.tight_threshold(KIND_UNSAFE_REACH_UPPER, [0.5, 0.25]) == 0.5
        assert cm.tight_threshold(KIND_SAFETY_LOWER, [0.5, 0.25]) == 0.5

    @pytest.mark.parametrize("kind, values, clipped", [
        (KIND_RA_LOWER_A1, [-0.2, 0.5], 0.0),
        (KIND_RA_LOWER_A1, [1.5, 1.2], 1.0),
        (KIND_UNSAFE_REACH_UPPER, [-0.4], 0.0),
        (KIND_UNSAFE_REACH_UPPER, [0.5, 1.3], 1.0),
        (KIND_SAFETY_LOWER, [0.5, 1.5], 0.0),
        (KIND_SAFETY_LOWER, [-0.5], 1.0),
    ])
    def test_clipped_to_unit_interval(self, kind, values, clipped):
        assert cm.tight_threshold(kind, values) == clipped


class TestSoundness:
    def test_accepted_thresholds_below_oracle(self, gambler):
        # only-if direction: an accepted lower-bound threshold cannot exceed
        # the exact probability beyond tolerance (the grid is exact here)
        fields = solved_fields(gambler)
        cert = extract_certificate(fields, KIND_RA_LOWER_A1)
        pts = check_points(gambler)
        rng = np.random.default_rng(20)
        for _ in range(20):
            i = int(rng.integers(1, 10))
            oracle = ruin_probability(i, 10, 0.5)
            eps = max(oracle - float(rng.uniform(1e-3, 0.2)), 0.0)
            cond = Condition(KIND_RA_LOWER_A1, eps)
            report = check_condition(gambler["system"], gambler["regions"], cert,
                                     cond, [float(i)], pts)
            assert report.passed
            claimed = cm.tight_threshold(KIND_RA_LOWER_A1, eval_cert_batch(cert, [float(i)]))
            assert claimed <= oracle + 1e-4


class TestSerialization:
    def test_polynomial_round_trip(self, tmp_path):
        cert = PolyCert(((0,), (1,)), (0.25, -0.5))
        cond = Condition(KIND_RA_LOWER_A1, 0.1)
        path = tmp_path / "poly.yaml"
        save_certificate(path, cond, cert)
        cond2, cert2 = load_certificate(path)
        assert cond2.kind == cond.kind and cond2.epsilon == cond.epsilon
        assert cert2 == cert

    def test_masked_grid_round_trip(self, tmp_path, gambler):
        fields = solved_fields(gambler)
        cert = extract_certificate(fields, KIND_RA_LOWER_A1)
        cond = Condition(KIND_RA_LOWER_A1, 0.29)
        path = tmp_path / "grid.yaml"
        save_certificate(path, cond, cert)
        _, cert2 = load_certificate(path)
        pts = np.linspace(-2, 13, 301).reshape(-1, 1)
        np.testing.assert_allclose(cm.eval_cert_batch(cert2, pts),
                                   cm.eval_cert_batch(cert, pts), atol=0)

    def test_pair_round_trip(self, tmp_path, gambler):
        fields = solved_fields(gambler)
        v, w = extract_certificate(fields, KIND_RA_LOWER_PAIR)
        cond = Condition(KIND_RA_LOWER_PAIR, 0.0, gamma=0.5, w=w)
        path = tmp_path / "pair.yaml"
        save_certificate(path, cond, v)
        assert "omega" not in yaml.safe_load(path.read_text())
        # a file written with an Omega box still loads; the box is ignored
        path.write_text(path.read_text() + "omega: {lower: [-1.2], upper: [12.2]}\n")
        cond2, v2 = load_certificate(path)
        assert cond2.w is not None
        assert (cond2.kind, cond2.epsilon, cond2.gamma) == (KIND_RA_LOWER_PAIR, 0.0, 0.5)
        pts = np.linspace(-2, 13, 101).reshape(-1, 1)
        np.testing.assert_allclose(cm.eval_cert_batch(cond2.w, pts),
                                   cm.eval_cert_batch(w, pts), atol=0)


    def test_files_match_pure_python_yaml(self, tmp_path, gambler):
        # libyaml, where PyYAML has it, must read and write the same documents
        # as PyYAML's pure-Python SafeLoader and SafeDumper
        fields = solved_fields(gambler)
        saved = [(Condition(KIND_RA_LOWER_A1, 0.1), PolyCert(((0,), (1,)), (0.25, -0.5)))]
        for kind in cm.ALL_KINDS:
            cert, w = extract_certificate(fields, kind), None
            if kind == KIND_RA_LOWER_PAIR:
                cert, w = cert
            gamma = 0.5 if kind in (KIND_RA_LOWER_DISCOUNTED, KIND_LIVENESS_UPPER_DISCOUNTED,
                                    KIND_RA_LOWER_PAIR) else None
            saved.append((Condition(kind, 0.0, gamma=gamma, w=w), cert))
        # a 2-D grid, with the floats whose text PyYAML writes specially
        specials = [1e-05, 1e+16, -0.0, 5e-324, np.inf, -np.inf, np.nan, 0.1, 1 / 3, 2.5e-300]
        values = np.concatenate([specials, np.random.default_rng(3).normal(size=20) * 1e3])
        grid2 = dp.Grid([-1.0, -2.0], [1.0, 2.0], [5, 6])
        disc = regions.RegionSpec(expr.parse_predicate("x1^2 + x2^2 < 1.0", 2),
                                  expr.parse_predicate("x1^2 + x2^2 < 0.04", 2))
        cert2 = GridCert(ValueField(values, grid2, outside_default=-0.0, absorbed=REACH_PINS),
                         regions=disc)
        w2 = GridCert(ValueField(values[::-1].copy(), grid2))
        saved.append((Condition(KIND_RA_LOWER_A1, 0.2), cert2))
        saved.append((Condition(KIND_RA_LOWER_PAIR, 0.0, gamma=0.5, w=w2), cert2))

        def same(a, b):  # equality, with nan equal to nan
            if isinstance(a, dict):
                return isinstance(b, dict) and list(a) == list(b) and all(
                    same(a[k], b[k]) for k in a)
            if isinstance(a, list):
                return isinstance(b, list) and len(a) == len(b) and all(map(same, a, b))
            if isinstance(a, float) and np.isnan(a):
                return isinstance(b, float) and np.isnan(b)
            return type(a) is type(b) and a == b

        for i, (cond, cert) in enumerate(saved):
            path = tmp_path / f"cert{i}.yaml"
            save_certificate(path, cond, cert)
            text = path.read_text()
            doc = yaml.load(text, Loader=yaml.SafeLoader)
            assert same(yaml.load(text, Loader=cm.YAML_LOADER), doc)
            assert yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False) == text
        # the special values read back as written, -0.0 with its sign
        doc = yaml.load(text, Loader=yaml.SafeLoader)
        for body, want in ((doc["function"], values), (doc["pair_w"], values[::-1])):
            got = np.array(body["values"])
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got[got == 0.0]), np.signbit(want[want == 0.0]))
        assert np.signbit(doc["function"]["outside_default"])


class TestConditionValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            Condition(KIND_RA_LOWER_A1, 1.5)

    def test_gamma_required(self):
        with pytest.raises(ValueError):
            Condition(KIND_RA_LOWER_DISCOUNTED, 0.1)

    def test_pair_needs_w(self):
        with pytest.raises(ValueError):
            Condition(KIND_RA_LOWER_PAIR, 0.1, gamma=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Condition("mystery", 0.1)


_CHECKED = [*(Path(__file__).resolve().parent.parent / "scenarios" / f"{walk}.yaml"
              for walk in ("symmetric_walk", "biased_walk", "invariant_contraction")),
            Path(__file__).resolve().parent / "disc_walk_two_starts.yaml"]


class TestStepOperator:
    """E[v o f] of a grid function read from ``dp.step_operator`` equals the
    per-atom reference, ``one_step_mean`` over ``eval_cert_batch``, bit for
    bit: both sum the atoms in atom order."""

    @staticmethod
    def extracted(path) -> tuple:
        """The scenario, every extracted function (the pair kind's w too), and
        every fourth grid check point plus 30 random points inside the grid
        box: the reference steps one point at a time."""
        sc = cli.load_scenario(path)
        r = cli.Run(sc)
        fields = {**r.fields, "gamma": sc.gamma, "regions": sc.regions}
        functions = {}
        for kind in cm.ALL_KINDS:
            cert = extract_certificate(fields, kind)
            if kind in cm.PAIR_KINDS:
                cert, functions[f"{kind} w"] = cert
            functions[kind] = cert
        inside = sc.grid.box.sample(30, np.random.default_rng(3))
        return sc, functions, np.vstack([r.grid_check_points[0][::4], inside])

    @staticmethod
    def reference(system, fn, points) -> np.ndarray:
        return np.array([one_step_mean(system, x, lambda y: eval_cert_batch(fn, y)[0])
                         for x in points])

    @pytest.mark.parametrize("path", _CHECKED, ids=lambda path: path.stem)
    def test_every_extracted_function_matches_the_reference(self, path):
        sc, functions, points = self.extracted(path)
        op = dp.step_operator(sc.system, sc.grid, sc.regions, points, strict=False)
        assert len(functions) == 7
        for name, fn in functions.items():
            got = op.mean(fn.fld)
            np.testing.assert_array_equal(got, self.reference(sc.system, fn, points), name)

    def test_checks_read_no_per_atom_mean_for_grid_functions(self, monkeypatch, gambler):
        def refuse(*args, **kwargs):
            raise AssertionError("per-atom mean of a grid function")

        fields = solved_fields(gambler)
        v, w = extract_certificate(fields, KIND_RA_LOWER_PAIR)
        monkeypatch.setattr(cm, "expectation", refuse)
        report = check_condition(gambler["system"], gambler["regions"], v,
                                 Condition(KIND_RA_LOWER_PAIR, 0.0, w=w), [3.0],
                                 check_points(gambler))
        assert report.passed

    @pytest.mark.parametrize("pins", ["none", "other"])
    def test_function_off_the_scenario_pins(self, monkeypatch, gambler, pins):
        # a file with no region pins, or with pins that are not the scenario's
        # regions, is read on its own pins (the scenario's where it has none)
        fld = solved_fields(gambler)["reach_avoid"]
        other = regions.RegionSpec(safe=gambler["regions"].safe,
                                   target=expr.parse_predicate("x1 >= 8 && x1 < 11", 1))
        cert = (GridCert(ValueField(fld.values, fld.grid, 0.0)) if pins == "none" else
                GridCert(ValueField(fld.values, fld.grid, 0.0, absorbed=REACH_PINS), regions=other))
        system, points = gambler["system"], check_points(gambler, interior=True)
        # the checks read one-step means in X only
        in_x = points[regions.classify_batch(gambler["regions"], points)
                      != regions.StateClass.UNSAFE]
        own_pins = cert.regions or gambler["regions"]
        own = dp.step_operator(system, fld.grid, own_pins, in_x, strict=False)
        np.testing.assert_array_equal(own.mean(cert.fld),
                                      self.reference(system, cert, in_x))
        built, step = [], dp.step_operator
        monkeypatch.setattr(dp, "step_operator",
                            lambda *args, **kwargs: built.append(args[2]) or step(*args, **kwargs))
        cond = Condition(KIND_RA_LOWER_A1, 0.0)
        report = check_condition(system, gambler["regions"], cert, cond, [3.0], points)
        assert built == [own_pins]
        given = check_condition(system, gambler["regions"], cert, cond, [3.0], points,
                                operator=own)
        assert [c.min_slack for c in report.clauses] == [c.min_slack for c in given.clauses]

    def test_failed_image_reads_nan_and_fails_its_clause(self):
        # every image of x = 5 divides by zero
        system = model.SystemModel(
            n=1, m=1, dynamics=(expr.parse_expr("x1 + th1 + 0 * (1 / (x1 - 5))", 1, 1),),
            dist=model.DisturbanceDist(atoms=[[-1.0], [1.0]], probs=[0.5, 0.5]))
        reg = regions.RegionSpec(safe=expr.parse_predicate("x1 > 0 && x1 < 11", 1),
                                 target=expr.parse_predicate("x1 >= 10 && x1 < 11", 1))
        grid = dp.Grid([-0.5], [11.5], [12])
        cert = GridCert(ValueField(np.zeros(12), grid, 0.0, absorbed=REACH_PINS), regions=reg)
        points = grid.nodes()
        op = dp.step_operator(system, grid, reg, points, strict=False)
        mean = op.mean(cert.fld)
        assert np.isnan(mean).tolist() == (points[:, 0] == 5.0).tolist()
        assert (op.classes[5] == -1).all() and not op.inside[5].any()
        report = check_condition(system, reg, cert, Condition(KIND_RA_LOWER_A1, 0.0), [3.0],
                                 points)
        clause = report.clauses[1]
        assert not report.passed and clause.min_slack == -np.inf
        assert clause.worst_point.tolist() == [5.0]


# the source field -> the (target_value, unsafe_value) its certificates' files hold
SOURCE_PINS = {"reach_avoid": (1.0, 0.0), "discounted": (1.0, 0.0),
               "safety_exit": (None, 1.0), "discounted_exit": (None, 1.0)}

# a grid certificate file as save_certificate writes it, its target not pinned
HAND_WRITTEN = """\
kind: safety_lower
epsilon: 0.5
gamma: null
function:
  representation: grid
  lower:
  - -0.5
  upper:
  - 11.5
  cells:
  - 3
  outside_default: 1.0
  values:
  - 0.25
  - 0.5
  - 0.75
  region_pins:
    safe: x1 > 0.0 && x1 < 11.0
    target: x1 >= 10.0 && x1 < 11.0
    target_value: null
    unsafe_value: 1.0
"""


class TestPins:
    """A grid function's pins are its field's ``absorbed`` classes, written
    to a file's ``region_pins`` and read back from it."""

    @staticmethod
    def resaved(tmp_path, text: str) -> tuple[str, GridCert]:
        """The file ``text`` loaded and saved again, and its function."""
        first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
        first.write_text(text)
        cond, cert = load_certificate(first)
        save_certificate(second, cond, cert)
        return second.read_text(), cert

    @pytest.mark.parametrize("path", _CHECKED, ids=lambda path: path.stem)
    def test_extracted_files_round_trip(self, tmp_path, path):
        sc = cli.load_scenario(path)
        fields = {**cli.Run(sc).fields, "gamma": sc.gamma, "regions": sc.regions}
        gamma1 = sc.gamma / (1.0 - sc.gamma)
        for kind in cm.ALL_KINDS:
            cert, w = extract_certificate(fields, kind), None
            if kind in cm.PAIR_KINDS:
                cert, w = cert
                assert w.fld.absorbed == tuple((c, gamma1 * v) for c, v in cert.fld.absorbed)
            source = cm.KINDS[kind]["source"][0]
            assert cert.fld.absorbed == fields[source].absorbed
            cond = Condition(kind, 0.0, gamma=sc.gamma if cm.KINDS[kind]["gamma"] else None, w=w)
            save_certificate(tmp_path / "extracted.yaml", cond, cert)
            text = (tmp_path / "extracted.yaml").read_text()
            pins = yaml.safe_load(text)["function"]["region_pins"]
            assert (pins["target_value"], pins["unsafe_value"]) == SOURCE_PINS[source], kind
            again, loaded = self.resaved(tmp_path, text)
            assert again == text, kind
            assert dict(loaded.fld.absorbed) == dict(cert.fld.absorbed)

    def test_hand_written_file_with_one_null_pin(self, tmp_path):
        again, cert = self.resaved(tmp_path, HAND_WRITTEN)
        assert again == HAND_WRITTEN
        assert cert.fld.absorbed == ((int(regions.StateClass.UNSAFE), 1.0),)
        # 0 is off X, pinned to 1; 10.5 is in the unpinned target and reads
        # the interpolant, clamped to the last node
        assert eval_cert_batch(cert, [[0.0], [10.5]]).tolist() == [1.0, 0.75]

    def test_hand_written_file_without_region_pins(self, tmp_path):
        text = HAND_WRITTEN[:HAND_WRITTEN.index("  region_pins:")]
        again, cert = self.resaved(tmp_path, text)
        assert again == text
        assert cert.regions is None and cert.fld.absorbed == ()
        assert eval_cert_batch(cert, [[0.0], [10.5]]).tolist() == [0.25, 0.75]

    def test_solved_field_without_regions_pins_nothing(self, gambler):
        fld = solved_fields(gambler)["reach_avoid"]
        cert = GridCert(fld)
        assert fld.absorbed and cert.fld.absorbed == ()
        # 10.5 lies in the target, off the lattice: between node 10 (1) and
        # node 11 (0, off X) the bare field reads 0.5
        points = np.array([[10.5], [9.5]])
        assert eval_cert_batch(cert, points).tolist() == [0.5, 0.95]
        # so does the image 10.5 of 9.5, which the pinned field reads as 1
        op = dp.step_operator(gambler["system"], fld.grid, gambler["regions"], points,
                              strict=False)
        np.testing.assert_array_equal(op.mean(cert.fld),
                                      TestStepOperator.reference(gambler["system"], cert, points))
        assert op.mean(cert.fld)[1] == pytest.approx(0.675)
        assert op.mean(fld)[1] == pytest.approx(0.925)
