"""Arithmetic expressions and boolean set predicates, parsed from scenario text.

Dynamics are arithmetic expressions over state variables ``x1..xn`` and
disturbance variables ``th1..thm``; sets are boolean combinations of
comparisons over state variables only.  ASTs are frozen dataclasses:
immutable after construction and safe to evaluate concurrently.

There is one evaluator, over batches: ``eval_expr_batch`` and
``eval_predicate_batch`` take B points at once (B = 1 for a single point).
Each AST is compiled on its first evaluation into a program of numpy
closures, one per node, and cached by object identity, so repeated calls
(one per Monte Carlo step) pay no tree walk.

Grammar (standard precedence, left associative)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := primary ('^' primary)*          # exponent: non-negative integer
    primary:= NUMBER | x<k> | th<k> | fn '(' args ')' | '(' expr ')'
    fn     := min | max | abs | exp | sin | cos

    pred   := conj ('||' conj)*
    conj   := unit ('&&' unit)*
    unit   := '!' unit | '(' pred ')' | expr relop expr
    relop  := '<' | '<=' | '>' | '>=' | '==' | '!='
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "NumericError",
    "ExprError",
    "EvalError",
    "Const",
    "StateVar",
    "DisturbVar",
    "Neg",
    "BinOp",
    "Call",
    "Comparison",
    "BoolOp",
    "Not",
    "ExprAst",
    "PredicateAst",
    "parse_expr",
    "parse_predicate",
    "pretty",
    "eval_expr_batch",
    "eval_predicate_batch",
]


class NumericError(Exception):
    """Base of every numeric failure a command reports with exit code 4.

    Each subclass keeps its standard base (``ArithmeticError`` or
    ``RuntimeError``) as a second parent, so handlers of those still match."""


class ExprError(ValueError):
    """Parse or validation failure; ``offset`` is the byte position in the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(NumericError, ArithmeticError):
    """Runtime evaluation failure (division by zero, non-finite result)."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class StateVar:
    index: int  # 1-based, x1..xn


@dataclass(frozen=True)
class DisturbVar:
    index: int  # 1-based, th1..thm


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str  # min max abs exp sin cos
    args: tuple


ExprAst = Union[Const, StateVar, DisturbVar, Neg, BinOp, Call]


@dataclass(frozen=True)
class Comparison:
    op: str  # < <= > >= == !=
    left: ExprAst
    right: ExprAst


@dataclass(frozen=True)
class BoolOp:
    op: str  # && ||
    left: "PredicateAst"
    right: "PredicateAst"


@dataclass(frozen=True)
class Not:
    operand: "PredicateAst"


PredicateAst = Union[Comparison, BoolOp, Not]

_FUNCTIONS = {"min": 2, "max": 2, "abs": 1, "exp": 1, "sin": 1, "cos": 1}

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/^()<>!,])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


_VAR_RE = re.compile(r"^(x|th)(\d+)$")


class _Parser:
    def __init__(self, text: str, n: int, m: int, allow_disturbance: bool):
        if not text or not text.strip():
            raise ExprError("empty expression", 0)
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.m = m
        self.allow_disturbance = allow_disturbance

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprError(f"expected {op!r}", offset)

    def at_op(self, *ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    # arithmetic -------------------------------------------------------

    def parse_expr(self) -> ExprAst:
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> ExprAst:
        node = self.parse_factor()
        while self.at_op("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> ExprAst:
        if self.at_op("-"):
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> ExprAst:
        node = self.parse_primary()
        while self.at_op("^"):
            _, _, offset = self.advance()
            exponent = self.parse_primary()
            if not (
                isinstance(exponent, Const)
                and float(exponent.value).is_integer()
                and exponent.value >= 0
            ):
                raise ExprError("power exponent must be a non-negative integer", offset)
            node = BinOp("^", node, exponent)
        return node

    def parse_primary(self) -> ExprAst:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text))
        if kind == "ident":
            self.advance()
            var = _VAR_RE.match(text)
            if var:
                index = int(var.group(2))
                if var.group(1) == "x":
                    if not 1 <= index <= self.n:
                        raise ExprError(
                            f"state variable {text} out of range (n={self.n})", offset
                        )
                    return StateVar(index)
                if not self.allow_disturbance:
                    raise ExprError(
                        "disturbance variables are not allowed in set predicates", offset
                    )
                if not 1 <= index <= self.m:
                    raise ExprError(
                        f"disturbance variable {text} out of range (m={self.m})", offset
                    )
                return DisturbVar(index)
            if text in _FUNCTIONS:
                self.expect_op("(")
                args = [self.parse_expr()]
                while self.at_op(","):
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                if len(args) != _FUNCTIONS[text]:
                    raise ExprError(
                        f"{text} takes {_FUNCTIONS[text]} argument(s), got {len(args)}",
                        offset,
                    )
                return Call(text, tuple(args))
            raise ExprError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprError("expected a number, variable, or '('", offset)

    # predicates -------------------------------------------------------

    def parse_predicate(self) -> PredicateAst:
        node = self.parse_conj()
        while self.at_op("||"):
            self.advance()
            node = BoolOp("||", node, self.parse_conj())
        return node

    def parse_conj(self) -> PredicateAst:
        node = self.parse_unit()
        while self.at_op("&&"):
            self.advance()
            node = BoolOp("&&", node, self.parse_unit())
        return node

    def parse_unit(self) -> PredicateAst:
        if self.at_op("!"):
            self.advance()
            return Not(self.parse_unit())
        if self.at_op("("):
            # '(' may open a grouped predicate or a parenthesized arithmetic
            # expression inside a comparison; try the predicate reading first
            # and fall back on failure or a trailing operator.
            saved = self.pos
            try:
                self.advance()
                node = self.parse_predicate()
                self.expect_op(")")
                if not self.at_op("<", "<=", ">", ">=", "==", "!=", "+", "-", "*", "/", "^"):
                    return node
            except ExprError:
                pass
            self.pos = saved
        return self.parse_comparison()

    def parse_comparison(self) -> Comparison:
        left = self.parse_expr()
        kind, text, offset = self.peek()
        if kind == "op" and text in ("<", "<=", ">", ">=", "==", "!="):
            self.advance()
            return Comparison(text, left, self.parse_expr())
        raise ExprError("expected a comparison operator", offset)

    def finish(self):
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExprError(f"unexpected trailing input {text!r}", offset)


def parse_expr(text: str, n: int, m: int) -> ExprAst:
    """Parse an arithmetic expression over x1..xn and th1..thm."""
    parser = _Parser(text, n, m, allow_disturbance=True)
    node = parser.parse_expr()
    parser.finish()
    return node


def parse_predicate(text: str, n: int) -> PredicateAst:
    """Parse a set predicate over x1..xn (no disturbance variables)."""
    parser = _Parser(text, n, 0, allow_disturbance=False)
    node = parser.parse_predicate()
    parser.finish()
    return node


# pretty printing ------------------------------------------------------

_ARITH_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_NEG_PREC = 30
_BOOL_PREC = {"||": 1, "&&": 2}


def _wrap(text: str, inner: int, outer: int) -> str:
    return f"({text})" if inner < outer else text


def pretty(node) -> str:
    """Render an AST back to source text that re-parses to the same tree."""
    return _pretty(node, 0)


def _pretty(node, outer: int) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, StateVar):
        return f"x{node.index}"
    if isinstance(node, DisturbVar):
        return f"th{node.index}"
    if isinstance(node, Neg):
        text = f"-{_pretty(node.operand, _NEG_PREC + 1)}"
        return _wrap(text, _NEG_PREC, outer)
    if isinstance(node, BinOp):
        prec = _ARITH_PREC[node.op]
        # left associative: right subtree needs strictly higher precedence
        left = _pretty(node.left, prec)
        right = _pretty(node.right, prec + 1)
        return _wrap(f"{left} {node.op} {right}", prec, outer)
    if isinstance(node, Call):
        args = ", ".join(_pretty(a, 0) for a in node.args)
        return f"{node.func}({args})"
    if isinstance(node, Comparison):
        return f"{_pretty(node.left, 0)} {node.op} {_pretty(node.right, 0)}"
    if isinstance(node, BoolOp):
        prec = _BOOL_PREC[node.op]
        left = _pretty(node.left, prec)
        right = _pretty(node.right, prec + 1)
        return _wrap(f"{left} {node.op} {right}", prec, outer)
    if isinstance(node, Not):
        inner = _pretty(node.operand, 5)
        if isinstance(node.operand, (BoolOp, Comparison)):
            inner = f"({inner})"
        return f"!{inner}"
    raise TypeError(f"not an AST node: {node!r}")


# evaluation -----------------------------------------------------------
#
# An AST is compiled once into a program, one closure per node.  An
# expression program is called as f(xs, ths, strict) and returns an array of
# length B, or a scalar when its subtree is constant; a predicate program is
# called as f(xs) and returns a boolean array of length B.

_PROGRAMS: dict[int, tuple[object, object]] = {}


def _program(ast):
    """The compiled program of ``ast``, built on its first evaluation.

    The cache is keyed by object identity, so a lookup never hashes the
    tree.  Each entry holds ``ast`` itself, so an id cannot be reused by
    another tree while its entry stands.
    """
    entry = _PROGRAMS.get(id(ast))
    if entry is None:
        entry = _PROGRAMS[id(ast)] = (ast, _build(ast))
    return entry[1]


def _build(ast):
    if isinstance(ast, (Comparison, BoolOp, Not)):
        return _predicate(ast)
    return _arith(ast)[0]


_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "min": np.minimum,
    "max": np.maximum,
    "abs": np.abs,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
}


def _arith(node):
    """Compile an expression node to ``(closure, varies)``.

    ``varies`` is true when the value depends on the point, and the closure
    then returns an array.  A variable returns a view of its input column;
    every other node returns a new array, so its parent writes its own
    result over it instead of allocating another.
    """
    if isinstance(node, Const):
        value = node.value
        return (lambda xs, ths, strict: value), False
    if isinstance(node, StateVar):
        col = node.index - 1
        return (lambda xs, ths, strict: xs[:, col]), True
    if isinstance(node, DisturbVar):
        col = node.index - 1
        return (lambda xs, ths, strict: ths[:, col]), True
    if isinstance(node, Neg):
        fn, children = np.negative, (node.operand,)
    elif isinstance(node, BinOp):
        fn, children = _UFUNCS[node.op], (node.left, node.right)
    elif isinstance(node, Call):
        fn, children = _UFUNCS[node.func], node.args
    else:
        raise TypeError(f"not an expression node: {node!r}")
    compiled = [_arith(child) for child in children]
    if isinstance(node, BinOp) and node.op == "^":
        power = int(node.right.value)  # a non-negative integer, checked at parse time
        compiled[1] = (lambda xs, ths, strict: power), False
    operands = [f for f, _ in compiled]
    scratch = [i for i, (child, (_, varies)) in enumerate(zip(children, compiled))
               if varies and isinstance(child, (Neg, BinOp, Call))]
    slot = scratch[0] if scratch else None
    divides = isinstance(node, BinOp) and node.op == "/"

    def apply(xs, ths, strict):
        args = [f(xs, ths, strict) for f in operands]
        if divides and strict and np.any(np.equal(args[1], 0.0)):
            raise EvalError("division by zero")
        if slot is None:
            return fn(*args)
        return fn(*args, out=args[slot])

    return apply, any(varies for _, varies in compiled)


_COMPARE = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _predicate(node):
    if isinstance(node, Comparison):
        op = _COMPARE[node.op]
        (left, _), (right, _) = _arith(node.left), _arith(node.right)
        return lambda xs: op(_finite(left(xs, None, True), xs.shape[0]),
                             _finite(right(xs, None, True), xs.shape[0]))
    if isinstance(node, BoolOp):
        op = np.logical_and if node.op == "&&" else np.logical_or
        left, right = _predicate(node.left), _predicate(node.right)
        return lambda xs: op(left(xs), right(xs))
    if isinstance(node, Not):
        operand = _predicate(node.operand)
        return lambda xs: np.logical_not(operand(xs))
    raise TypeError(f"not a predicate node: {node!r}")


def _finite(values, rows: int):
    """``values`` (an array of length ``rows``, or a scalar standing for
    one); EvalError names the first non-finite row."""
    finite = np.isfinite(values)
    if rows and not finite.all():
        raise EvalError(f"non-finite result at row {int(np.argmin(finite))}")
    return values


def eval_expr_batch(ast: ExprAst, xs: np.ndarray, ths: np.ndarray | None = None,
                    strict: bool = True) -> np.ndarray:
    """Evaluate at a batch of points.

    ``xs`` has shape (B, n) and ``ths`` (B, m) or None; the result is a new
    float array of length B.  With ``strict`` a division by zero or
    non-finite result raises EvalError naming the first offending row;
    otherwise non-finite entries pass through for the caller to inspect.
    """
    xs = np.asarray(xs, dtype=float)
    if ths is not None:
        ths = np.asarray(ths, dtype=float)
    rows = xs.shape[0]
    with np.errstate(all="ignore"):
        values = _program(ast)(xs, ths, strict)
    # a node's result is a fresh array, except a variable's column view or a
    # constant, which are copied out
    if not (isinstance(values, np.ndarray) and values.base is None
            and values.shape == (rows,) and values.dtype == float):
        values = np.broadcast_to(np.asarray(values, dtype=float), (rows,)).copy()
    return _finite(values, rows) if strict else values


def eval_predicate_batch(ast: PredicateAst, xs: np.ndarray) -> np.ndarray:
    """Evaluate a set predicate at a (B, n) batch; returns a boolean array of
    length B.  Both sides of every comparison are evaluated strictly."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        inside = _program(ast)(xs)
    # only a predicate without variables gives a scalar
    return inside if np.ndim(inside) else np.full(xs.shape[0], inside)
