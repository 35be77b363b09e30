"""Arithmetic expressions and boolean set predicates, parsed from scenario text.

Dynamics are arithmetic expressions over state variables ``x1..xn`` and
disturbance variables ``th1..thm``; sets are boolean combinations of
comparisons over state variables only.  ASTs are frozen records:
immutable after construction and safe to evaluate concurrently.

There is one evaluator, over batches: ``eval_expr_batch`` and
``eval_predicate_batch`` take B points at once (B = 1 for a single point).
Each AST, or each tuple of ASTs evaluated together, is compiled on its
first evaluation into one program of numpy closures, one per node, and
cached by object identity, so repeated calls (one per Monte Carlo step) pay
no tree walk.  A subexpression the trees share is computed once per batch.

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
from typing import Union

import numpy as np

__all__ = [
    "Record",
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


class Record:
    """Base of the package's record classes.

    A subclass's fields are its own annotations, in order, and a class-level
    value is a field's default; a list default is copied per instance.
    ``__init__`` takes fields positionally, then by keyword, and then calls
    ``__post_init__``.  Instances are equal when their class and fields are.
    ``class C(Record, frozen=True)`` makes them hashable over their fields
    and refuses assignment.  The methods are shared by every subclass, not
    generated and compiled per class, which cost each command-line process
    27 ms at import (2-vCPU VM, Python 3.11).
    """

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = cls.__delattr__ = Record._refuse

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} fields, got {len(args)}")
        state = dict(zip(self._fields, args))
        for field in self._fields[len(args):]:
            if field in kwargs:
                state[field] = kwargs.pop(field)
            elif field in self._defaults:
                default = self._defaults[field]
                state[field] = default.copy() if isinstance(default, list) else default
            else:
                raise TypeError(f"{name}() missing field {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got unknown or repeated field(s) {', '.join(kwargs)}")
        self.__dict__.update(state)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash(self) -> int:
        return hash(self._values())

    def _refuse(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def replace(self, **changes):
        """A new instance with ``changes`` applied to this one's fields."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class Const(Record, frozen=True):
    value: float


class StateVar(Record, frozen=True):
    index: int  # 1-based, x1..xn


class DisturbVar(Record, frozen=True):
    index: int  # 1-based, th1..thm


class Neg(Record, frozen=True):
    operand: "ExprAst"


class BinOp(Record, frozen=True):
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


class Call(Record, frozen=True):
    func: str  # min max abs exp sin cos
    args: tuple


ExprAst = Union[Const, StateVar, DisturbVar, Neg, BinOp, Call]


class Comparison(Record, frozen=True):
    op: str  # < <= > >= == !=
    left: ExprAst
    right: ExprAst


class BoolOp(Record, frozen=True):
    op: str  # && ||
    left: "PredicateAst"
    right: "PredicateAst"


class Not(Record, frozen=True):
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
# A tuple of ASTs is compiled once into one program, one closure per node,
# each called as f(xs, ths, strict, memo).  An expression node returns an
# array of length B, or a scalar when its subtree is constant; a predicate
# node returns a boolean array of length B.  A subtree that more than one
# parent references, across all the trees and counting equal subtrees as
# one, is evaluated once per batch: its first use stores its value in
# ``memo``, a list that every program call starts empty.  The trees are
# evaluated in order and each child before its parent, as if compiled
# apart, so an evaluation error is raised where it would be without sharing.

_PROGRAMS: dict[tuple[int, ...], tuple[tuple, object]] = {}


def _program(asts: tuple):
    """The compiled program of ``asts``, built on their first evaluation.

    The cache is keyed by the trees' object identities, so a lookup never
    hashes a tree.  Each entry holds the trees themselves, so no id can be
    reused by another tree while its entry stands.
    """
    key = tuple(map(id, asts))
    entry = _PROGRAMS.get(key)
    if entry is None:
        entry = _PROGRAMS[key] = (asts, _build(*asts))
    return entry[1]


def _build(*asts):
    """One program for ``asts``: f(xs, ths, strict) -> [value of each tree]."""
    slots = _shared_subtrees(asts)
    roots = [_compile(ast, slots)[0] for ast in asts]
    n_slots = len(slots)

    def program(xs, ths, strict):
        memo = [None] * n_slots
        return [f(xs, ths, strict, memo) for f in roots]

    return program


def _children(node) -> tuple:
    if isinstance(node, (Neg, Not)):
        return (node.operand,)
    if isinstance(node, (BinOp, Comparison, BoolOp)):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def _shared_subtrees(asts: tuple) -> dict:
    """Memo slots of the inner subtrees that more than one parent references.

    ASTs are frozen records, so they hash and compare by structure.  A
    subtree's children are counted at its first occurrence only; leaves
    cost nothing to evaluate and are never shared.
    """
    seen: set = set()
    slots: dict = {}

    def visit(node):
        for child in _children(node):
            if child not in seen:
                seen.add(child)
                visit(child)
            elif _children(child):
                slots.setdefault(child, len(slots))

    for ast in asts:
        visit(ast)
    return slots


def _compile(node, slots: dict, child: bool = False):
    """Compile ``node`` to ``(closure, varies, owned)``.

    ``varies`` is true when the value depends on the point, and the closure
    then returns an array.  ``owned`` is true when that array is new and
    referenced nowhere else, so the parent writes its own result over it
    instead of allocating another.  A shared subtree reached as a child
    reads its value from the memo, and is never owned.
    """
    slot = slots.get(node) if child else None
    if slot is not None:
        evaluate, varies, _ = _compile(node, slots)

        def shared(xs, ths, strict, memo):
            value = memo[slot]
            if value is None:
                value = memo[slot] = evaluate(xs, ths, strict, memo)
            return value

        return shared, varies, False
    if isinstance(node, (Comparison, BoolOp, Not)):
        return _predicate(node, slots), True, False
    return _arith(node, slots)


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


def _arith(node, slots: dict):
    """``_compile`` for an expression node other than a shared one."""
    if isinstance(node, Const):
        value = node.value
        return (lambda xs, ths, strict, memo: value), False, False
    if isinstance(node, StateVar):
        col = node.index - 1
        return (lambda xs, ths, strict, memo: xs[:, col]), True, False
    if isinstance(node, DisturbVar):
        col = node.index - 1
        return (lambda xs, ths, strict, memo: ths[:, col]), True, False
    if isinstance(node, Neg):
        fn, children = np.negative, (node.operand,)
    elif isinstance(node, BinOp):
        fn, children = _UFUNCS[node.op], (node.left, node.right)
    elif isinstance(node, Call):
        fn, children = _UFUNCS[node.func], node.args
    else:
        raise TypeError(f"not an expression node: {node!r}")
    compiled = [_compile(c, slots, child=True) for c in children]
    if isinstance(node, BinOp) and node.op == "^":
        power = int(node.right.value)  # a non-negative integer, checked at parse time
        compiled[1] = (lambda xs, ths, strict, memo: power), False, False
    operands = [f for f, _, _ in compiled]
    owned = [i for i, (_, _, own) in enumerate(compiled) if own]
    slot = owned[0] if owned else None
    divides = isinstance(node, BinOp) and node.op == "/"

    def apply(xs, ths, strict, memo):
        args = [f(xs, ths, strict, memo) for f in operands]
        if divides and strict and np.any(np.equal(args[1], 0.0)):
            raise EvalError("division by zero")
        if slot is None:
            return fn(*args)
        return fn(*args, out=args[slot])

    varies = any(v for _, v, _ in compiled)
    return apply, varies, varies


_COMPARE = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _predicate(node, slots: dict):
    """The closure of a predicate node other than a shared one.  Both sides
    of a comparison are evaluated strictly."""
    if isinstance(node, Comparison):
        op = _COMPARE[node.op]
        left = _compile(node.left, slots, child=True)[0]
        right = _compile(node.right, slots, child=True)[0]
        return lambda xs, ths, strict, memo: op(
            _finite(left(xs, ths, True, memo), xs.shape[0]),
            _finite(right(xs, ths, True, memo), xs.shape[0]))
    if isinstance(node, BoolOp):
        op = np.logical_and if node.op == "&&" else np.logical_or
        left = _compile(node.left, slots, child=True)[0]
        right = _compile(node.right, slots, child=True)[0]
        return lambda xs, ths, strict, memo: op(left(xs, ths, strict, memo),
                                                right(xs, ths, strict, memo))
    if isinstance(node, Not):
        operand = _compile(node.operand, slots, child=True)[0]
        return lambda xs, ths, strict, memo: np.logical_not(operand(xs, ths, strict, memo))
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
        values = _program((ast,))(xs, ths, strict)[0]
    # a node's result is a fresh array, except a variable's column view or a
    # constant, which are copied out
    if not (isinstance(values, np.ndarray) and values.base is None
            and values.shape == (rows,) and values.dtype == float):
        values = np.broadcast_to(np.asarray(values, dtype=float), (rows,)).copy()
    return _finite(values, rows) if strict else values


def eval_predicate_batch(ast: PredicateAst | tuple, xs: np.ndarray):
    """Evaluate a set predicate at a (B, n) batch; returns a boolean array of
    length B.  Both sides of every comparison are evaluated strictly.

    ``ast`` may also be a tuple of predicates, evaluated as one program that
    computes a subexpression they share once; the result is then a list of
    one array per predicate, and an EvalError is the one that evaluating
    them in turn would raise.
    """
    xs = np.asarray(xs, dtype=float)
    asts = ast if isinstance(ast, tuple) else (ast,)
    with np.errstate(all="ignore"):
        values = _program(asts)(xs, None, True)
    # only a predicate without variables gives a scalar
    values = [v if np.ndim(v) else np.full(xs.shape[0], v) for v in values]
    return values if isinstance(ast, tuple) else values[0]
