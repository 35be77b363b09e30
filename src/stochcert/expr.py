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

Operators, loosest first::

    ||                      predicates; left associative
    &&                      predicates; left associative
    !                       prefix, on a predicate
    < <= > >= == !=         two expressions; relations do not chain
    + -                     expressions; left associative
    * /                     expressions; left associative
    -                       prefix, on an expression: -x1^2 is -(x1^2)
    ^                       left associative; the exponent is a non-negative
                            integer literal, bare or in parentheses: x1^(3)

Operands are numbers, ``x<k>``, ``th<k>`` (not in predicates), calls of
min max abs exp sin cos, and groups in parentheses.
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
    ``__post_init__``.  Instances are equal when their class and fields are,
    an array field compared by shape and elements (``np.array_equal``).
    ``class C(Record, frozen=True)`` makes them hashable over their fields,
    equal instances alike, and refuses assignment.  The methods are shared
    by every subclass, not generated and compiled per class, which cost each
    command-line process 27 ms at import (2-vCPU VM, Python 3.11).
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

    def _key(self) -> tuple:
        # an array as its shape and its elements as Python numbers, which
        # compare as np.array_equal does and hash -0.0 and 0.0 alike
        return tuple((v.shape, *v.ravel().tolist()) if isinstance(v, np.ndarray) else v
                     for v in self._values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def _hash(self) -> int:
        return hash(self._key())

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

# The operator table, in binding order: (symbol, operand count) -> (binding
# power, AST class, numpy function).  ``_Parser``, ``pretty`` and the compiled
# evaluator all read it.
_OPERATORS = {
    ("||", 2): (1, BoolOp, np.logical_or),
    ("&&", 2): (2, BoolOp, np.logical_and),
    ("!", 1): (3, Not, np.logical_not),
    ("<", 2): (4, Comparison, np.less),
    ("<=", 2): (4, Comparison, np.less_equal),
    (">", 2): (4, Comparison, np.greater),
    (">=", 2): (4, Comparison, np.greater_equal),
    ("==", 2): (4, Comparison, np.equal),
    ("!=", 2): (4, Comparison, np.not_equal),
    ("+", 2): (5, BinOp, np.add),
    ("-", 2): (5, BinOp, np.subtract),
    ("*", 2): (6, BinOp, np.multiply),
    ("/", 2): (6, BinOp, np.divide),
    ("-", 1): (7, Neg, np.negative),
    # np.square(x) is np.power(x, 2) bit for bit, in a third of the time
    ("^", 2): (8, BinOp, lambda x, k, out=None: np.square(x, out=out) if k == 2
               else np.power(x, k, out=out)),
}
# function name -> (argument count, numpy function)
_FUNCTIONS = {
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "abs": (1, np.abs),
    "exp": (1, np.exp),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
}
_PREFIX_SYMBOLS = {cls: symbol for (symbol, arity), (_, cls, _) in _OPERATORS.items()
                   if arity == 1}
_NO_OPERATOR = (-1, None, None)  # the entry of any other token: it binds nothing
_PREDICATES = (Comparison, BoolOp, Not)
_EXPR_BP = _OPERATORS["+", 2][0]  # an expression: any arithmetic operator
_PREDICATE_BP = _OPERATORS["!", 1][0]  # a predicate stands wherever '!' may


def _operator(node) -> tuple[str, int]:
    """The table key of an operator node."""
    if type(node) in _PREFIX_SYMBOLS:
        return _PREFIX_SYMBOLS[type(node)], 1
    return node.op, 2


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
    """Precedence climbing over ``_OPERATORS``.

    ``parse(bp)`` reads the longest operand whose operators all bind at least
    ``bp``.  An operator applies only to operands of its sort (expressions for
    arithmetic and relations, predicates for ``&&``, ``||`` and ``!``), so a
    relation never takes a comparison as its left side: relations do not chain.
    """

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

    def at_op(self, op: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text == op

    def parse(self, bp: int):
        node = self.prefix(bp)
        while True:
            _, text, offset = self.peek()
            op_bp, cls, _ = _OPERATORS.get((text, 2), _NO_OPERATOR)
            if op_bp < bp or isinstance(node, _PREDICATES) != (cls is BoolOp):
                return node
            self.advance()
            right = self.operand(op_bp + 1, cls is BoolOp)
            if text == "^" and not (
                isinstance(right, Const)
                and float(right.value).is_integer()
                and right.value >= 0
            ):
                raise ExprError("power exponent must be a non-negative integer", offset)
            node = cls(text, node, right)

    def operand(self, bp: int, predicate: bool):
        """``parse(bp)``, which must give a predicate when ``predicate`` is set."""
        node = self.parse(bp)
        if predicate and not isinstance(node, _PREDICATES):
            raise ExprError("expected a comparison operator", self.peek()[2])
        return node

    def prefix(self, bp: int):
        """A prefix operator and its operand, a group, or a primary.  A prefix
        operator binding looser than ``bp`` is refused, so a ``^`` exponent
        (bp above unary minus) is a number, variable, call or group."""
        kind, text, offset = self.advance()
        op_bp, cls, _ = _OPERATORS.get((text, 1), _NO_OPERATOR)
        if op_bp >= bp:
            return cls(self.operand(op_bp, cls is Not))
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            return self.name(text, offset)
        if kind == "op" and text == "(":
            node = self.parse(0 if bp <= _PREDICATE_BP else _EXPR_BP)
            self.expect_op(")")
            return node
        raise ExprError("expected a number, variable, or '('", offset)

    def name(self, text: str, offset: int):
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
        if text not in _FUNCTIONS:
            raise ExprError(f"unknown identifier {text!r}", offset)
        self.expect_op("(")
        args = [self.parse(_EXPR_BP)]
        while self.at_op(","):
            self.advance()
            args.append(self.parse(_EXPR_BP))
        self.expect_op(")")
        arity = _FUNCTIONS[text][0]
        if len(args) != arity:
            raise ExprError(
                f"{text} takes {arity} argument(s), got {len(args)}",
                offset,
            )
        return Call(text, tuple(args))

    def finish(self, node):
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExprError(f"unexpected trailing input {text!r}", offset)
        return node


def parse_expr(text: str, n: int, m: int) -> ExprAst:
    """Parse an arithmetic expression over x1..xn and th1..thm."""
    parser = _Parser(text, n, m, allow_disturbance=True)
    return parser.finish(parser.parse(_EXPR_BP))


def parse_predicate(text: str, n: int) -> PredicateAst:
    """Parse a set predicate over x1..xn (no disturbance variables)."""
    parser = _Parser(text, n, 0, allow_disturbance=False)
    return parser.finish(parser.operand(0, predicate=True))


# pretty printing ------------------------------------------------------


def pretty(node) -> str:
    """Render an AST back to source text that re-parses to the same tree."""
    return _pretty(node, 0)


def _pretty(node, outer: int) -> str:
    """``node`` as text, parenthesised if it binds looser than ``outer``."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, StateVar):
        return f"x{node.index}"
    if isinstance(node, DisturbVar):
        return f"th{node.index}"
    if isinstance(node, Call):
        args = ", ".join(_pretty(a, 0) for a in node.args)
        return f"{node.func}({args})"
    symbol, arity = _operator(node)
    bp = _OPERATORS[symbol, arity][0]
    if arity == 2:
        # left associative: the right operand must bind strictly tighter
        text = f"{_pretty(node.left, bp)} {symbol} {_pretty(node.right, bp + 1)}"
    elif isinstance(node, Not):
        # '!' parenthesises every operand but another '!', once: the operand
        # is printed bare; certificate files keep this form
        inner = _pretty(node.operand, 0)
        text = f"{symbol}{inner}" if isinstance(node.operand, Not) else f"{symbol}({inner})"
    else:
        text = f"{symbol}{_pretty(node.operand, bp + 1)}"
    return f"({text})" if bp < outer else text


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
    roots = [(_compile(ast, slots)[0], not isinstance(ast, _PREDICATES)) for ast in asts]
    n_slots = len(slots)

    def program(xs, ths, strict):
        memo = [None] * n_slots
        return [_finite(f(xs, ths, strict, memo), xs.shape[0]) if strict and expression
                else f(xs, ths, strict, memo) for f, expression in roots]

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
    if isinstance(node, Call):
        fn = _FUNCTIONS[node.func][1]
    elif isinstance(node, (Neg, BinOp)):
        fn = _OPERATORS[_operator(node)][2]
    else:
        raise TypeError(f"not an expression node: {node!r}")
    compiled = [_compile(c, slots, child=True) for c in _children(node)]
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


def _predicate(node, slots: dict):
    """The closure of a predicate node other than a shared one.  Both sides
    of a comparison are evaluated strictly."""
    fn = _OPERATORS[_operator(node)][2]
    if isinstance(node, Comparison):
        left, right = (_side(c, slots) for c in _children(node))
        return lambda xs, ths, strict, memo: fn(left(xs, ths, memo), right(xs, ths, memo))
    operands = [_compile(c, slots, child=True)[0] for c in _children(node)]
    return lambda xs, ths, strict, memo: fn(*[f(xs, ths, strict, memo) for f in operands])


def _side(node, slots: dict):
    """f(xs, ths, memo) -> a comparison side, strict and, unless a finite literal, checked."""
    if isinstance(node, Const) and np.isfinite(node.value):
        return lambda xs, ths, memo, value=node.value: value
    evaluate = _compile(node, slots, child=True)[0]
    return lambda xs, ths, memo: _finite(evaluate(xs, ths, True, memo), xs.shape[0])


def _finite(values, rows: int):
    """``values`` (an array of length ``rows``, or a scalar standing for
    one); EvalError names the first non-finite row."""
    finite = np.isfinite(values)
    if rows and not finite.all():
        raise EvalError(f"non-finite result at row {int(np.argmin(finite))}")
    return values


def eval_expr_batch(ast: ExprAst | tuple, xs: np.ndarray, ths: np.ndarray | None = None,
                    strict: bool = True) -> np.ndarray:
    """Evaluate at a batch of points.

    ``xs`` has shape (B, n) and ``ths`` (B, m) or None; the result is a new
    float array of length B.  With ``strict`` a division by zero or
    non-finite result raises EvalError naming the first offending row;
    otherwise non-finite entries pass through for the caller to inspect.
    ``ast`` may also be a tuple of k trees, evaluated as one program, for a
    (k, B) result; an EvalError is the one evaluating them in turn raises.
    """
    xs = np.asarray(xs, dtype=float)
    if ths is not None:
        ths = np.asarray(ths, dtype=float)
    asts = ast if isinstance(ast, tuple) else (ast,)
    with np.errstate(all="ignore"):
        values = _program(asts)(xs, ths, strict)
    out = np.empty((len(asts), xs.shape[0]))
    for row, value in zip(out, values):
        row[...] = value  # copied: a variable's column or a constant is not new
    return out if isinstance(ast, tuple) else out[0]


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
