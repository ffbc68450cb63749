"""Scalar reference evaluator and printer of the expression language, for
the tests.

`evaluate` walks a parsed tree with Python floats and the math module, one
point at a time.  The package evaluates with numpy arrays
(`plapsys.expr.evaluate_arrays`); the tests check that it agrees with this
evaluator pointwise, domain errors included.  `to_text` renders a tree as
text that `plapsys.expr.parse` reads back to the same tree.
"""

import math

from plapsys.expr import Apply, EvaluationDomainError, Expr, Num, UnboundVariableError, Var


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
    if isinstance(e, Apply):
        args = [evaluate(a, bindings) for a in e.args]
        name = e.op
        if name == "(-)":
            return -args[0]
        if name == "+":
            return _check_finite(args[0] + args[1], "sum")
        if name == "-":
            return _check_finite(args[0] - args[1], "difference")
        if name == "*":
            return _check_finite(args[0] * args[1], "product")
        if name == "/":
            if args[1] == 0.0:
                raise EvaluationDomainError("division by zero")
            return _check_finite(args[0] / args[1], "quotient")
        if name == "^":
            return _scalar_pow(args[0], args[1], "power")
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
        raise TypeError(f"unknown operation {name!r}")
    raise TypeError(f"not an expression node: {e!r}")


def _prec(e: Expr) -> int:
    if isinstance(e, (Num, Var)) or e.op.isidentifier():
        return 5
    return {"^": 4, "(-)": 3, "*": 2, "/": 2, "+": 1, "-": 1}[e.op]


def to_text(e: Expr) -> str:
    """Render the tree as parseable text; parse(to_text(e)) == e."""

    def wrap(sub: Expr, minimum: int) -> str:
        s = to_text(sub)
        return f"({s})" if _prec(sub) < minimum else s

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if not isinstance(e, Apply):
        raise TypeError(f"not an expression node: {e!r}")
    if e.op.isidentifier():
        return e.op + "(" + ", ".join(to_text(a) for a in e.args) + ")"
    if e.op == "(-)":
        return "-" + wrap(e.args[0], 3)
    left, right = e.args
    if e.op == "^":
        # right-associative: parenthesize a compound left operand
        return wrap(left, 5) + "^" + wrap(right, 4)
    level = _prec(e)
    return wrap(left, level) + e.op + wrap(right, level + 1)
