"""Arithmetic expression language for coupling and boundary data.

Expressions are closed-form formulas over the variables x, y, u, v with
decimal literals, the binary operators + - * / ^ and a fixed function set
(abs, sgn, min, max, sin, cos, exp, log, pow, odd_pow).  ^ is
right-associative and binds tightest, then unary minus, then * /, then + -.
There is no implicit multiplication.  Tokens are ASCII: a number, an
identifier or an operator character, with spaces, tabs and newlines
between them; any other character, a non-ASCII letter or digit included,
is a syntax error at its offset.  One precedence-climbing loop (Pratt,
1973) reads the binding powers of the binary operators from one table.
A formula nests at most MAX_DEPTH levels: each operation, function call
and pair of parentheses adds one, and the token past the bound is a
syntax error.

odd_pow(t, e) = sgn(t) * |t|^e is the signed power used by the p-Laplacian
coupling families; unlike t^e it is defined for negative t and odd in t.

Parsing reports syntax errors with the byte offset of the offending token
and names unknown identifiers; a literal that overflows to infinity, such
as 1e999, is a syntax error at its offset.  Evaluation, vectorized over
numpy arrays, either produces finite values or raises EvaluationDomainError
(division by zero, log of a non-positive number, a negative base under a
non-integer power, overflow); it never returns NaN or infinity silently.
OPERATIONS is the one table of the language: each operation, binary
operator, unary minus (under the key "(-)", which is not an identifier
and so never a function name) and function alike, maps to its arity, its
numpy function and the word for its result in a domain error.  A parsed
formula is a tree of Num, Var and Apply(op, args) nodes.  The parser
reads the arity of a function name, the evaluator the function and the
word, and it checks every result, a negation's included.  The package
only reads formulas (parse, then evaluate_arrays); it never prints a tree
back to text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np


class ExprError(Exception):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """An identifier that is neither a variable x, y, u, v nor a known function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class EvaluationError(ExprError):
    """Base class for evaluation-time errors."""


class UnboundVariableError(EvaluationError):
    def __init__(self, name: str):
        super().__init__(f"variable '{name}' is not bound")
        self.name = name


class EvaluationDomainError(EvaluationError):
    """The expression is undefined or non-finite at the given bindings."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Apply:
    """The operation `op`, a key of OPERATIONS, applied to its operands."""

    op: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Apply]

VARIABLES = ("x", "y", "u", "v")


def _odd_pow(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.sign(t) * np.power(np.abs(t), q)


# operation -> (arity, numpy function, the word for its result in a domain
# error).  The identifier keys are the function names the parser accepts.
OPERATIONS = {
    "+": (2, np.add, "sum"),
    "-": (2, np.subtract, "difference"),
    "*": (2, np.multiply, "product"),
    "/": (2, np.divide, "quotient"),
    "^": (2, np.power, "power"),
    "(-)": (1, np.negative, "negation"),
    "abs": (1, np.abs, "abs"),
    "sgn": (1, np.sign, "sgn"),
    "min": (2, np.minimum, "min"),
    "max": (2, np.maximum, "max"),
    "sin": (1, np.sin, "sin"),
    "cos": (1, np.cos, "cos"),
    "exp": (1, np.exp, "exp"),
    "log": (1, np.log, "log"),
    "pow": (2, np.power, "pow"),
    "odd_pow": (2, _odd_pow, "odd_pow"),
}

# Deeper formulas are syntax errors: the parser and evaluate_arrays recurse
# once per level, and Python's recursion limit is about 1000 frames.
MAX_DEPTH = 100

# The one token pattern, ASCII only: skipped whitespace, then a number, an
# identifier, an operator character or any other single character, a "bad"
# token, which is an error at its offset.  Trailing whitespace matches none.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>[^ \t\r\n]))"
)

# binary operator -> (its binding power, the binding power its right operand
# is parsed at).  An operand takes the operators that bind tighter than it,
# so + - * / are left-associative and ^ right-associative; unary minus
# parses its operand at _NEG_BP, so it binds between * and ^.
_BINARY = {"+": (1, 1), "-": (1, 1), "*": (2, 2), "/": (2, 2), "^": (4, 3)}
_NEG_BP = 3


def _check_depth(depth: int, offset: int) -> None:
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", offset)


def _expect(tokens: list[tuple[str, str, int]], text: str) -> None:
    _, got, offset = tokens.pop()
    if got != text:
        raise ExprSyntaxError(f"expected '{text}'", offset)


def _climb(tokens: list[tuple[str, str, int]], min_bp: int, depth: int) -> tuple[Expr, int]:
    """Parse the operand at `depth` and the binary operators that bind
    tighter than min_bp; return its tree and the depth of its deepest level.
    `tokens` holds (kind, text, offset) in reverse: pop() takes the next.
    """
    kind, text, offset = tokens.pop()
    _check_depth(depth, offset)
    deepest = depth
    if text == "-":
        operand, deepest = _climb(tokens, _NEG_BP, depth + 1)
        node = Apply("(-)", (operand,))
    elif text == "(":
        node, deepest = _climb(tokens, 0, depth + 1)
        _expect(tokens, ")")
    elif kind == "num":
        value = float(text)
        if not math.isfinite(value):
            raise ExprSyntaxError(f"number {text} is not finite", offset)
        node = Num(value)
    elif kind == "ident" and tokens[-1][1] == "(":
        # an identifier token matches only the identifier keys
        if text not in OPERATIONS:
            raise UnknownIdentifierError(text, offset)
        args = []
        while not args or tokens[-1][1] == ",":
            tokens.pop()  # the '(' or a ','
            arg, arg_deepest = _climb(tokens, 0, depth + 1)
            args.append(arg)
            deepest = max(deepest, arg_deepest)
        _expect(tokens, ")")
        arity = OPERATIONS[text][0]
        if len(args) != arity:
            raise ExprSyntaxError(f"{text} expects {arity} argument(s), got {len(args)}", offset)
        node = Apply(text, tuple(args))
    elif kind == "ident":
        if text not in VARIABLES:
            raise UnknownIdentifierError(text, offset)
        node = Var(text)
    else:
        raise ExprSyntaxError("expected a number, variable, or '('", offset)
    while True:
        _, op, offset = tokens[-1]
        bp = _BINARY.get(op)
        if bp is None or bp[0] <= min_bp:
            return node, deepest
        tokens.pop()
        deepest += 1  # the left operand moves a level down
        _check_depth(deepest, offset)
        rhs, rhs_deepest = _climb(tokens, bp[1], depth + 1)
        node = Apply(op, (node, rhs))
        deepest = max(deepest, rhs_deepest)


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raise ExprSyntaxError on bad input."""
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN_RE.finditer(text)]
    for kind, tok, offset in tokens:
        if kind == "bad":
            message = "malformed number" if tok == "." else f"unexpected character {tok!r}"
            raise ExprSyntaxError(message, offset)
    tokens = [("end", "", len(text))] + tokens[::-1]  # reversed for _climb
    node, _ = _climb(tokens, 0, 1)
    kind, tok, offset = tokens[-1]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok!r}", offset)
    return node


def evaluate_arrays(e: Expr, bindings: dict[str, np.ndarray]) -> np.ndarray:
    """Vectorized evaluation over numpy arrays of bindings.

    A point where the formula is undefined or not finite raises
    EvaluationDomainError carrying `index`, the flat index of the first
    offending entry in the broadcast result; a missing variable raises
    UnboundVariableError.

    It recurses into itself, not into a nested function: a recursive
    closure is a reference cycle, which keeps the bindings' arrays alive
    until the cycle collector runs.
    """
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        if e.name not in bindings:
            raise UnboundVariableError(e.name)
        return np.asarray(bindings[e.name], dtype=float)
    _, func, what = OPERATIONS[e.op]
    args = [evaluate_arrays(a, bindings) for a in e.args]
    with np.errstate(all="ignore"):
        vals = func(*args)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = int(np.flatnonzero(np.ravel(bad))[0])
        raise _IndexedDomainError(f"{what} is not finite", idx, np.shape(vals))
    return vals


class _IndexedDomainError(EvaluationDomainError):
    """Domain error from vectorized evaluation, with the flat entry index in
    the shape of the failing subexpression's result."""

    def __init__(self, message: str, index: int, shape: tuple[int, ...]):
        super().__init__(f"{message} (entry {index})")
        self.message = message
        self.index = index
        self.shape = shape
