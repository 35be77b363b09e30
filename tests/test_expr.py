"""Tests of the expression language: parsing, printing and batch evaluation.

``tests/parse_corpus.json`` records, for a few thousand inputs, the tree and
printed form that ``parse_expr`` and ``parse_predicate`` give, or the
ExprError they raise.  Rewrite it after an intended parser change with

    python tests/test_expr.py --record
"""

import ast as python_ast
import importlib.util
import json
import math
import random
import re
import sys
import textwrap
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest
import yaml

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


def _listed_operators(block: str) -> list[str]:
    """The symbols in the first column of an operator listing; a line that
    starts with a space continues the line above."""
    return [symbol for line in block.splitlines() if line and not line[0].isspace()
            for symbol in re.split(r"\s{2,}", line)[0].split()]


def test_docs_list_the_operator_table_in_binding_order():
    bps = [bp for bp, _, _ in expr._OPERATORS.values()]
    assert bps == sorted(bps)
    table = [symbol for symbol, _ in expr._OPERATORS]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listing = readme.split("Expression grammar", 1)[1].split("```text\n", 1)[1].split("```")[0]
    assert _listed_operators(listing) == table
    docstring = expr.__doc__.split("Operators, loosest first::\n\n", 1)[1].split("\n\n")[0]
    assert _listed_operators(textwrap.dedent(docstring)) == table


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


def _random_expr_srcs(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [_random_expr_src(rng, 3, 2, 3) for _ in range(200)]


def test_pretty_round_trip():
    for src in _random_expr_srcs(2024):
        ast = parse_expr(src, 3, 2)
        assert parse_expr(pretty(ast), 3, 2) == ast


def _random_relation_src(rng: random.Random) -> str:
    left = _random_expr_src(rng, 2, 0, 2)
    right = _random_expr_src(rng, 2, 0, 2)
    return f"{left} {rng.choice(['<', '<=', '>', '>=', '==', '!='])} {right}"


def _round_trip_predicate_srcs() -> list[str]:
    rng = random.Random(7)
    return [f"{_random_relation_src(rng)} && !(x1 > 1) || x2 < 5" for _ in range(100)]


def _scalar_predicate_srcs() -> list[str]:
    rng = random.Random(5)
    return [f"!({_random_relation_src(rng)}) || x2 < 0 && x1 >= 1" for _ in range(100)]


def test_pretty_round_trip_predicates():
    for src in _round_trip_predicate_srcs():
        ast = parse_predicate(src, 2)
        assert parse_predicate(pretty(ast), 2) == ast


@pytest.mark.parametrize("src, text", [
    ("x1^2^3", "x1 ^ 2.0 ^ 3.0"),
    ("-x1^2", "-x1 ^ 2.0"),
    ("- -x1", "-(-x1)"),
    ("(-x1)^2", "(-x1) ^ 2.0"),
    ("2 - -x1", "2.0 - -x1"),
])
def test_pretty_round_trip_expression_cases(src, text):
    ast = parse_expr(src, 2, 1)
    assert pretty(ast) == text and parse_expr(text, 2, 1) == ast


@pytest.mark.parametrize("src, text", [
    ("!!(x1 > 0)", "!!(x1 > 0.0)"),
    ("!(x1 + 1 > 0) && x2 < 1", "!(x1 + 1.0 > 0.0) && x2 < 1.0"),
    ("(x1 + 1) * 2 > x2", "(x1 + 1.0) * 2.0 > x2"),
    ("x2 < (x1 - 1) ^ 2", "x2 < (x1 - 1.0) ^ 2.0"),
    ("((x1)) >= -(x2)", "x1 >= -x2"),
    ("!(x1 > 0 || x2 < 1)", "!(x1 > 0.0 || x2 < 1.0)"),
    ("!(x1 > 0 && !(x2 < 1))", "!(x1 > 0.0 && !(x2 < 1.0))"),
])
def test_pretty_round_trip_predicate_cases(src, text):
    ast = parse_predicate(src, 2)
    assert pretty(ast) == text and parse_predicate(text, 2) == ast


def test_batch_matches_scalar_reference_on_random_expressions():
    # exact for + - * min max and negation; np.power may differ from
    # Python's ** in the last ulp, as in test_batch_matches_scalar
    points = np.random.default_rng(99).uniform(-3, 3, size=(16, 5))
    for src in _random_expr_srcs(99):
        ast = parse_expr(src, 3, 2)
        batch = eval_expr_batch(ast, points[:, :3], points[:, 3:])
        scalar = np.array([scalar_expr(ast, p[:3], p[3:]) for p in points])
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=1e-14)


def test_batch_predicates_match_scalar_reference_on_random_predicates():
    points = np.round(np.random.default_rng(5).uniform(-3, 3, size=(64, 2)), 1)
    for src in _scalar_predicate_srcs():
        ast = parse_predicate(src, 2)
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

    def test_square_is_power_bit_for_bit(self):
        # 10^6 random bit patterns, with zeros, inf and nan of both signs,
        # subnormals, and values whose squares are subnormal
        rng = np.random.default_rng(2)
        bits = np.frombuffer(rng.bytes(8 * 10 ** 6), dtype=np.uint64).copy()
        bits[8:1000] &= np.uint64(0x800FFFFFFFFFFFFF)  # exponent field 0: subnormal
        xs = bits.view(float)
        xs[:8] = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan]
        xs[1000:2000] = 10.0 ** rng.uniform(-165, -150, 1000)
        with np.errstate(all="ignore"):
            want = np.power(xs, 2)
        got = eval_expr_batch(parse_expr("x1^2", 1, 0), xs[:, None], strict=False)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_tuple_gives_one_row_per_tree(self):
        xs = np.array([[1.5], [-2.0]])
        trees = (parse_expr("x1", 1, 0), parse_expr("2", 1, 0), parse_expr("x1 * x1", 1, 0))
        out = eval_expr_batch(trees, xs)
        assert out.shape == (3, 2) and not np.shares_memory(out, xs)
        assert out.tolist() == [[1.5, -2.0], [2.0, 2.0], [2.25, 4.0]]

    def test_checks_skipped_only_where_no_error_can_arise(self):
        # a literal that parses to inf is not a finite constant: still checked
        with pytest.raises(EvalError, match="row 0"):
            eval_predicate_batch(parse_predicate("x1 < 1e999", 1), [[1.0], [2.0]])
        # a subtree shared by two predicates is checked where first compared
        shared = (parse_predicate("exp(x1) > 1", 1), parse_predicate("exp(x1) < 5", 1))
        with pytest.raises(EvalError, match="row 2"):
            eval_predicate_batch(shared, [[1.0], [2.0], [1e6]])
        assert [v.tolist() for v in eval_predicate_batch(shared, [[-1.0], [1.0], [2.0]])] \
            == [[False, True, True], [True, True, False]]

    def test_predicate_sides_are_strict(self):
        ast = parse_predicate("1 / x1 > 0", 1)
        with pytest.raises(EvalError, match="division"):
            eval_predicate_batch(ast, [[1.0], [0.0]])
        ast = parse_predicate("exp(x1) > 0", 1)
        with pytest.raises(EvalError, match="row 2"):
            eval_predicate_batch(ast, [[1.0], [2.0], [1e6]])


# parser-parity corpus ---------------------------------------------------

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
CORPUS = TESTS / "parse_corpus.json"
CORPUS_N, CORPUS_M = 3, 2  # every corpus input is parsed over x1..x3 and th1..th2
_OPERANDS = ["x1", "x2", "x3", "0", "2", "0.5", "1e3", "2.5"]
_TOKENS = _OPERANDS + ["th1", "th2", "x4", "th3", "+", "-", "*", "/", "^", "(", ")", "<", "<=",
                       ">", ">=", "==", "!=", "&&", "||", "!", "min", "abs", "exp", ",", "foo", "$"]
_VARIABLE = re.compile(r"\b(x|th)\d+\b")


def _literal_srcs() -> list[str]:
    """Every expression and predicate written in the tests, the bundled
    scenarios and the disc-walk generator: a string that names a variable,
    or the text handed to a parse call."""
    found, parsed = set(), set()
    for path in sorted(TESTS.glob("*.py")):
        for node in python_ast.walk(python_ast.parse(path.read_text())):
            if isinstance(node, python_ast.Call) and getattr(node.func, "id", None) in (
                    "parse_expr", "parse_predicate") and node.args:
                arg = node.args[0]
                if isinstance(arg, python_ast.Constant) and isinstance(arg.value, str):
                    parsed.add(arg.value)
            elif isinstance(node, python_ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    docs = [yaml.safe_load(path.read_text())
            for path in sorted([*TESTS.rglob("*.yaml"), *(ROOT / "scenarios").glob("*.yaml")])]
    spec = importlib.util.spec_from_file_location("discwalk", ROOT / "perfbench" / "discwalk.py")
    discwalk = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(discwalk)
    docs.append(yaml.safe_load(discwalk.scenario_yaml(1, 50)))

    def strings(value):
        if isinstance(value, str):
            yield value
        elif isinstance(value, dict):
            for item in value.values():
                yield from strings(item)
        elif isinstance(value, list):
            for item in value:
                yield from strings(item)

    for doc in docs:
        found.update(strings(doc))
    return sorted(parsed | {text for text in found
                            if "\n" not in text and len(text) <= 200 and _VARIABLE.search(text)})


def _token_expr(rng: random.Random, depth: int, operands: list[str]) -> list[str]:
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        return [rng.choice(operands)]

    def sub():
        return _token_expr(rng, depth - 1, operands)

    if pick < 0.4:
        return ["-", *sub()]
    if pick < 0.5:
        return ["(", *sub(), ")"]
    if pick < 0.6:
        args = [sub() for _ in range(rng.randint(1, 2))]
        return [rng.choice(["min", "abs", "exp"]), "(", *args[0],
                *[tok for arg in args[1:] for tok in (",", *arg)], ")"]
    if pick < 0.7:
        return [*sub(), "^", rng.choice(["0", "2", "3", "2.5", "x1"])]
    return [*sub(), rng.choice("+-*/"), *sub()]


def _token_predicate(rng: random.Random, depth: int) -> list[str]:
    pick = rng.random()
    if depth == 0 or pick < 0.4:
        relation = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return [*_token_expr(rng, 2, _OPERANDS), relation, *_token_expr(rng, 2, _OPERANDS)]
    if pick < 0.55:
        return ["!", *_token_predicate(rng, depth - 1)]
    if pick < 0.7:
        return ["(", *_token_predicate(rng, depth - 1), ")"]
    return [*_token_predicate(rng, depth - 1), rng.choice(["&&", "||"]),
            *_token_predicate(rng, depth - 1)]


def _random_token_srcs(count: int) -> list[str]:
    """Random expressions and predicates as token strings, half of them
    with one to three tokens replaced, inserted or deleted."""
    rng = random.Random(22)
    srcs = []
    for i in range(count):
        if i % 2:
            tokens = _token_expr(rng, 3, [*_OPERANDS, "th1", "th2"])
        else:
            tokens = _token_predicate(rng, 2)
        for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
            at = rng.randrange(len(tokens) + 1)
            edit = rng.choice(["replace", "insert", "delete"])
            if edit == "insert" or at == len(tokens):
                tokens.insert(at, rng.choice(_TOKENS))
            elif edit == "replace":
                tokens[at] = rng.choice(_TOKENS)
            else:
                del tokens[at]
        srcs.append(rng.choice([" ", ""]).join(tokens))
    return srcs


def _corpus_srcs() -> list[str]:
    srcs = [*_literal_srcs(), *_random_expr_srcs(2024), *_random_expr_srcs(99),
            *_round_trip_predicate_srcs(), *_scalar_predicate_srcs(), *_random_token_srcs(4000)]
    return list(dict.fromkeys(srcs))


def _outcome(parse, text: str) -> dict:
    try:
        ast = parse(text)
    except ExprError as err:
        return {"error": str(err), "offset": err.offset}
    return {"repr": repr(ast), "pretty": pretty(ast)}


def _corpus_entry(text: str) -> dict:
    return {"text": text,
            "expr": _outcome(lambda s: parse_expr(s, CORPUS_N, CORPUS_M), text),
            "predicate": _outcome(lambda s: parse_predicate(s, CORPUS_N), text)}


def test_parser_matches_corpus():
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) > 2000
    differ = [(entry, got) for entry in corpus if (got := _corpus_entry(entry["text"])) != entry]
    assert not differ, f"{len(differ)} corpus inputs parse differently, first: {differ[0]}"


def record() -> None:
    corpus = [_corpus_entry(text) for text in _corpus_srcs()]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in corpus) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_expr.py --record")
    record()
