"""Arithmetic expression language for coupling and boundary data.

Expressions are closed-form formulas over the variables x, y, u, v with
decimal literals, the binary operators + - * / ^ and a fixed function set
(abs, sgn, min, max, sin, cos, exp, log, pow, odd_pow).  ^ is
right-associative and binds tightest, then unary minus, then * /, then + -.
There is no implicit multiplication.

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

_NUMBER_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(text, i)
            if m is None:
                raise ExprSyntaxError("malformed number", i)
            tokens.append(_Token("num", m.group(0), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            tokens.append(_Token("ident", m.group(0), i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected '{text}'", tok.offset)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Apply(op, (node, self.parse_term()))
        return node

    # term := unary (('*'|'/') unary)*
    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Apply(op, (node, self.parse_unary()))
        return node

    # unary := '-' unary | power
    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Apply("(-)", (self.parse_unary(),))
        return self.parse_power()

    # power := atom ('^' unary)?   right-associative, binds above unary minus
    def parse_power(self) -> Expr:
        node = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = Apply("^", (node, self.parse_unary()))
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text} is not finite", tok.offset)
            return Num(value)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                # an identifier token matches only the identifier keys
                if name not in OPERATIONS:
                    raise UnknownIdentifierError(name, tok.offset)
                self.advance()
                args = [self.parse_expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                arity = OPERATIONS[name][0]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{name} expects {arity} argument(s), got {len(args)}",
                        tok.offset,
                    )
                return Apply(name, tuple(args))
            if name not in VARIABLES:
                raise UnknownIdentifierError(name, tok.offset)
            return Var(name)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a number, variable, or '('", tok.offset)


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raise ExprSyntaxError on bad input."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
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
