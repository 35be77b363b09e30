import math
import random

import numpy as np
import pytest

from stochcert import expr
from stochcert.expr import (
    BinOp,
    Const,
    DisturbVar,
    EvalError,
    ExprError,
    Neg,
    StateVar,
    eval_expr_batch,
    eval_predicate_batch,
    parse_expr,
    parse_predicate,
    pretty,
)

from scalar_reference import scalar_expr, scalar_predicate


def expr_at(ast, x, th=None) -> float:
    """The batch evaluator at a batch of one point."""
    out = eval_expr_batch(ast, [x], None if th is None else [th])
    assert out.shape == (1,) and out.dtype == float
    return float(out[0])


def holds_at(ast, x) -> bool:
    """The batch predicate at a batch of one point."""
    out = eval_predicate_batch(ast, [x])
    assert out.shape == (1,) and out.dtype == bool
    return bool(out[0])


class TestParse:
    def test_add_state_disturbance(self):
        ast = parse_expr("x1 + th1", 1, 1)
        assert ast == BinOp("+", StateVar(1), DisturbVar(1))

    def test_precedence_structure(self):
        ast = parse_expr("0.5*x1 - x2^2", 2, 0)
        assert ast == BinOp(
            "-",
            BinOp("*", Const(0.5), StateVar(1)),
            BinOp("^", StateVar(2), Const(2.0)),
        )

    def test_trees_are_frozen_records(self):
        ast = parse_expr("x1 + 2", 1, 0)
        assert repr(ast) == "BinOp(op='+', left=StateVar(index=1), right=Const(value=2.0))"
        twin = parse_expr("x1+2.0", 1, 0)
        assert twin == ast and twin is not ast and hash(twin) == hash(ast)
        assert StateVar(1) == StateVar(1) and StateVar(1) != DisturbVar(1)
        with pytest.raises(AttributeError):
            ast.op = "-"

    def test_syntax_error_offset(self):
        with pytest.raises(ExprError) as err:
            parse_expr("x1 +", 1, 1)
        assert err.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExprError, match="unknown identifier"):
            parse_expr("x1 + foo", 1, 0)

    def test_variable_out_of_range(self):
        with pytest.raises(ExprError, match="out of range"):
            parse_expr("x3", 2, 0)
        with pytest.raises(ExprError, match="out of range"):
            parse_expr("th2", 1, 1)

    def test_empty(self):
        with pytest.raises(ExprError):
            parse_expr("   ", 1, 0)

    def test_trailing_garbage(self):
        with pytest.raises(ExprError, match="trailing"):
            parse_expr("x1 1", 1, 0)

    def test_power_requires_nonneg_integer(self):
        parse_expr("x1^0", 1, 0)
        parse_expr("x1^3", 1, 0)
        with pytest.raises(ExprError, match="exponent"):
            parse_expr("x1^2.5", 1, 0)
        with pytest.raises(ExprError):
            parse_expr("x1^-2", 1, 0)
        with pytest.raises(ExprError, match="exponent"):
            parse_expr("x1^x1", 1, 0)

    def test_unary_minus_binds_below_power(self):
        # -x^2 reads as -(x^2)
        ast = parse_expr("-x1^2", 1, 0)
        assert ast == Neg(BinOp("^", StateVar(1), Const(2.0)))

    def test_functions(self):
        assert expr_at(parse_expr("min(x1, 2)", 1, 0), [5.0]) == 2.0
        assert expr_at(parse_expr("max(x1, 2)", 1, 0), [5.0]) == 5.0
        assert expr_at(parse_expr("abs(-3)", 1, 0), [0.0]) == 3.0
        with pytest.raises(ExprError, match="argument"):
            parse_expr("min(x1)", 1, 0)

    def test_predicate_rejects_disturbance(self):
        with pytest.raises(ExprError, match="not allowed"):
            parse_predicate("th1 > 0", 1)

    def test_predicate_grouping(self):
        ast = parse_predicate("(x1 + 1) > 0 && !(x1 > 5 || x1 < -5)", 1)
        assert holds_at(ast, [0.0])
        assert not holds_at(ast, [6.0])
        assert not holds_at(ast, [-2.0])


class TestEval:
    def test_arith_examples(self):
        assert expr_at(parse_expr("x1 + th1", 1, 1), [3.0], [-1.0]) == 2.0
        assert expr_at(parse_expr("0.5*x1", 1, 0), [4.0]) == 2.0

    def test_division_by_zero(self):
        ast = parse_expr("1/x1", 1, 0)
        with pytest.raises(EvalError, match="division"):
            expr_at(ast, [0.0])

    def test_nonfinite_result(self):
        ast = parse_expr("exp(x1)", 1, 0)
        with pytest.raises(EvalError):
            expr_at(ast, [1e6])

    def test_deterministic(self):
        ast = parse_expr("sin(x1)*cos(th1) + x1^3/7", 1, 1)
        a = expr_at(ast, [0.7312], [1.111])
        b = expr_at(ast, [0.7312], [1.111])
        assert a == b  # bit identical

    def test_batch_matches_scalar(self):
        ast = parse_expr("0.3*x1^2 - min(x2, th1) + exp(-x1)", 2, 1)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(64, 2))
        ths = rng.normal(size=(64, 1))
        batch = eval_expr_batch(ast, xs, ths)
        scalar = np.array([scalar_expr(ast, x, th) for x, th in zip(xs, ths)])
        # libm vs numpy transcendentals may differ in the last ulp
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=1e-14)

    def test_batch_strict_division(self):
        ast = parse_expr("1/x1", 1, 0)
        with pytest.raises(EvalError):
            eval_expr_batch(ast, np.array([[1.0], [0.0]]))
        loose = eval_expr_batch(ast, np.array([[1.0], [0.0]]), strict=False)
        assert loose[0] == 1.0 and not np.isfinite(loose[1])

    def test_precedence_property(self):
        rng = random.Random(42)
        ast = parse_expr("x1 + x2 * x3", 3, 0)
        for _ in range(100):
            a, b, c = (rng.uniform(-10, 10) for _ in range(3))
            assert expr_at(ast, [a, b, c]) == a + (b * c)


class TestPredicates:
    def test_examples(self):
        ast = parse_predicate("x1 > 0 && x1 < 10", 1)
        assert holds_at(ast, [3.0]) is True
        assert holds_at(ast, [10.0]) is False
        assert holds_at(parse_predicate("x1 >= 10", 1), [3.0]) is False

    def test_boundaries_are_strict(self):
        ast = parse_predicate("x1 > 0", 1)
        assert not holds_at(ast, [0.0])

    def test_batch_matches_scalar(self):
        ast = parse_predicate("(x1 > 0 && x1 < 10) || x2 == 1", 2)
        rng = np.random.default_rng(6)
        xs = rng.uniform(-2, 12, size=(128, 2))
        xs[::7, 1] = 1.0
        batch = eval_predicate_batch(ast, xs)
        scalar = np.array([scalar_predicate(ast, x) for x in xs])
        assert np.array_equal(batch, scalar)


def _random_expr_src(rng: random.Random, n: int, m: int, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        choices = [f"{rng.uniform(0, 9):.3f}", f"x{rng.randint(1, n)}"]
        if m:
            choices.append(f"th{rng.randint(1, m)}")
        return rng.choice(choices)
    kind = rng.randint(0, 5)
    a = _random_expr_src(rng, n, m, depth - 1)
    b = _random_expr_src(rng, n, m, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a} * {b})"
    if kind == 3:
        return f"-{a}"
    if kind == 4:
        return f"{rng.choice(['min', 'max'])}({a}, {b})"
    return f"({a})^{rng.randint(0, 3)}"


def test_pretty_round_trip():
    rng = random.Random(2024)
    for _ in range(200):
        src = _random_expr_src(rng, 3, 2, 3)
        ast = parse_expr(src, 3, 2)
        assert parse_expr(pretty(ast), 3, 2) == ast


def test_pretty_round_trip_predicates():
    rng = random.Random(7)
    ops = ["<", "<=", ">", ">=", "==", "!="]
    for _ in range(100):
        left = _random_expr_src(rng, 2, 0, 2)
        right = _random_expr_src(rng, 2, 0, 2)
        src = f"{left} {rng.choice(ops)} {right} && !(x1 > 1) || x2 < 5"
        ast = parse_predicate(src, 2)
        assert parse_predicate(pretty(ast), 2) == ast


def test_batch_matches_scalar_reference_on_random_expressions():
    # exact for + - * min max and negation; np.power may differ from
    # Python's ** in the last ulp, as in test_batch_matches_scalar
    rng = random.Random(99)
    points = np.random.default_rng(99).uniform(-3, 3, size=(16, 5))
    for _ in range(200):
        ast = parse_expr(_random_expr_src(rng, 3, 2, 3), 3, 2)
        batch = eval_expr_batch(ast, points[:, :3], points[:, 3:])
        scalar = np.array([scalar_expr(ast, p[:3], p[3:]) for p in points])
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=1e-14)


def test_batch_predicates_match_scalar_reference_on_random_predicates():
    rng = random.Random(5)
    ops = ["<", "<=", ">", ">=", "==", "!="]
    points = np.round(np.random.default_rng(5).uniform(-3, 3, size=(64, 2)), 1)
    for _ in range(100):
        left = _random_expr_src(rng, 2, 0, 2)
        right = _random_expr_src(rng, 2, 0, 2)
        ast = parse_predicate(f"!({left} {rng.choice(ops)} {right}) || x2 < 0 && x1 >= 1", 2)
        batch = eval_predicate_batch(ast, points)
        assert batch.tolist() == [scalar_predicate(ast, p) for p in points]


class TestCompiledPrograms:
    def test_built_once_per_tree(self, monkeypatch):
        builds = []
        build = expr._build
        monkeypatch.setattr(expr, "_build", lambda ast: builds.append(ast) or build(ast))
        f = parse_expr("0.5*x1 - x2^2 + th1", 2, 1)
        xs, ths = np.ones((4, 2)), np.zeros((4, 1))
        first = eval_expr_batch(f, xs, ths)
        for _ in range(5):
            assert np.array_equal(eval_expr_batch(f, xs, ths), first)
        assert builds == [f]
        # the cache is keyed by identity: an equal tree parsed again is its own entry
        g = parse_expr("0.5*x1 - x2^2 + th1", 2, 1)
        eval_expr_batch(g, xs, ths)
        assert len(builds) == 2 and builds[1] is g

    @pytest.mark.parametrize("src", ["x1", "-x1", "abs(x1)", "x1^2", "(x1 + 1) * x1",
                                     "min(x1 - 1, x1)", "2 * 3"])
    def test_inputs_never_overwritten(self, src):
        xs = np.array([[1.5], [-2.0], [0.25]])
        before = xs.copy()
        out = eval_expr_batch(parse_expr(src, 1, 0), xs)
        assert np.array_equal(xs, before)
        assert out.shape == (3,) and not np.shares_memory(out, xs)
        out[:] = 7.0
        assert np.array_equal(xs, before)

    def test_constant_predicate_gives_one_flag_per_row(self):
        assert eval_predicate_batch(parse_predicate("1 < 2", 1), np.zeros((3, 1))).tolist() \
            == [True, True, True]

    def test_predicate_sides_are_strict(self):
        ast = parse_predicate("1 / x1 > 0", 1)
        with pytest.raises(EvalError, match="division"):
            eval_predicate_batch(ast, [[1.0], [0.0]])
        ast = parse_predicate("exp(x1) > 0", 1)
        with pytest.raises(EvalError, match="row 2"):
            eval_predicate_batch(ast, [[1.0], [2.0], [1e6]])
