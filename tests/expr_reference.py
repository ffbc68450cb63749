"""Scalar reference evaluator and printer of the expression language, for
the tests.

`evaluate` walks a parsed tree with Python floats and the math module, one
point at a time.  The package evaluates with numpy arrays
(`plapsys.expr.evaluate_arrays`); the tests check that it agrees with this
evaluator pointwise, domain errors included.  `to_text` renders a tree as
text that `plapsys.expr.parse` reads back to the same tree.
"""

import math

from plapsys.expr import (
    BinOp,
    Call,
    EvaluationDomainError,
    Expr,
    Neg,
    Num,
    UnboundVariableError,
    Var,
)


def _check_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise EvaluationDomainError(f"{what} is not finite")
    return value


def _scalar_pow(base: float, exponent: float, what: str) -> float:
    if base < 0.0 and not float(exponent).is_integer():
        raise EvaluationDomainError(
            f"{what}: negative base {base!r} with non-integer exponent {exponent!r}"
        )
    if base == 0.0 and exponent < 0.0:
        raise EvaluationDomainError(f"{what}: zero base with negative exponent")
    return _check_finite(math.pow(base, exponent), what)


def evaluate(e: Expr, bindings: dict[str, float]) -> float:
    """Evaluate the tree at the given variable bindings.

    Deterministic: the same tree and bindings give the identical float.
    Raises UnboundVariableError for a variable missing from `bindings` and
    EvaluationDomainError wherever the formula leaves the reals.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name not in bindings:
            raise UnboundVariableError(e.name)
        return float(bindings[e.name])
    if isinstance(e, Neg):
        return -evaluate(e.operand, bindings)
    if isinstance(e, BinOp):
        a = evaluate(e.left, bindings)
        b = evaluate(e.right, bindings)
        if e.op == "+":
            return _check_finite(a + b, "sum")
        if e.op == "-":
            return _check_finite(a - b, "difference")
        if e.op == "*":
            return _check_finite(a * b, "product")
        if e.op == "/":
            if b == 0.0:
                raise EvaluationDomainError("division by zero")
            return _check_finite(a / b, "quotient")
        if e.op == "^":
            return _scalar_pow(a, b, "power")
        raise TypeError(f"unknown operator {e.op!r}")
    if isinstance(e, Call):
        args = [evaluate(a, bindings) for a in e.args]
        name = e.func
        if name == "abs":
            return abs(args[0])
        if name == "sgn":
            t = args[0]
            return float((t > 0.0) - (t < 0.0))
        if name == "min":
            return min(args)
        if name == "max":
            return max(args)
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
        if name == "exp":
            return _check_finite(math.exp(args[0]) if args[0] < 710 else math.inf, "exp")
        if name == "log":
            if args[0] <= 0.0:
                raise EvaluationDomainError(f"log of non-positive value {args[0]!r}")
            return math.log(args[0])
        if name == "pow":
            return _scalar_pow(args[0], args[1], "pow")
        if name == "odd_pow":
            t, q = args
            if t == 0.0:
                if q < 0.0:
                    raise EvaluationDomainError("odd_pow: zero base with negative exponent")
                return 0.0
            s = 1.0 if t > 0.0 else -1.0
            return _check_finite(s * math.pow(abs(t), q), "odd_pow")
        raise TypeError(f"unknown function {name!r}")
    raise TypeError(f"not an expression node: {e!r}")


def _prec(e: Expr) -> int:
    if isinstance(e, (Num, Var, Call)):
        return 5
    if isinstance(e, BinOp):
        if e.op == "^":
            return 4
        if e.op in "*/":
            return 2
        return 1
    return 3  # Neg


def to_text(e: Expr) -> str:
    """Render the tree as parseable text; parse(to_text(e)) == e."""

    def wrap(sub: Expr, minimum: int) -> str:
        s = to_text(sub)
        return f"({s})" if _prec(sub) < minimum else s

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, 3)
    if isinstance(e, Call):
        return e.func + "(" + ", ".join(to_text(a) for a in e.args) + ")"
    if isinstance(e, BinOp):
        level = _prec(e)
        if e.op == "^":
            # right-associative: parenthesize a compound left operand
            return wrap(e.left, 5) + "^" + wrap(e.right, 4)
        return wrap(e.left, level) + e.op + wrap(e.right, level + 1)
    raise TypeError(f"not an expression node: {e!r}")
