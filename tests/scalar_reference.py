"""Scalar reference evaluator: the oracle for the batch evaluator's tests.

A plain recursive walk over one point with Python floats and ``math``,
sharing no code with ``stochcert.expr``'s compiled programs.
"""

import math

from stochcert.expr import BinOp, BoolOp, Call, Comparison, Const, DisturbVar, Neg, Not, StateVar

_FN = {"min": min, "max": max, "abs": abs, "exp": math.exp, "sin": math.sin, "cos": math.cos}
_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
          "/": lambda a, b: a / b, "^": lambda a, b: a ** int(b)}
_CMP = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b, "==": lambda a, b: a == b, "!=": lambda a, b: a != b}


def scalar_expr(node, x, th=()) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, StateVar):
        return float(x[node.index - 1])
    if isinstance(node, DisturbVar):
        return float(th[node.index - 1])
    if isinstance(node, Neg):
        return -scalar_expr(node.operand, x, th)
    if isinstance(node, BinOp):
        return _ARITH[node.op](scalar_expr(node.left, x, th), scalar_expr(node.right, x, th))
    if isinstance(node, Call):
        return float(_FN[node.func](*(scalar_expr(a, x, th) for a in node.args)))
    raise TypeError(f"not an expression node: {node!r}")


def scalar_predicate(node, x) -> bool:
    if isinstance(node, Comparison):
        return _CMP[node.op](scalar_expr(node.left, x), scalar_expr(node.right, x))
    if isinstance(node, BoolOp):
        left, right = scalar_predicate(node.left, x), scalar_predicate(node.right, x)
        return (left and right) if node.op == "&&" else (left or right)
    if isinstance(node, Not):
        return not scalar_predicate(node.operand, x)
    raise TypeError(f"not a predicate node: {node!r}")
