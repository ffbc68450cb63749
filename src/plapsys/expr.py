"""Arithmetic expression language for coupling and boundary data.

Expressions are closed-form formulas over the variables x, y, u, v with
decimal literals, the binary operators + - * / ^ and a fixed function set
(abs, sgn, min, max, sin, cos, exp, log, pow, odd_pow).  ^ is
right-associative and binds tightest, then unary minus, then * /, then + -.
There is no implicit multiplication.

odd_pow(t, e) = sgn(t) * |t|^e is the signed power used by the p-Laplacian
coupling families; unlike t^e it is defined for negative t and odd in t.

Parsing reports syntax errors with the byte offset of the offending token
and names unknown identifiers.  Evaluation, vectorized over numpy arrays,
either produces finite values or raises EvaluationDomainError (division by
zero, log of a non-positive number, a negative base under a non-integer
power, overflow); it never returns NaN or infinity silently.  The
package only reads formulas (parse, then evaluate_arrays); it never
prints a tree back to text.
"""

from __future__ import annotations

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
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

VARIABLES = ("x", "y", "u", "v")

# function name -> arity
FUNCTIONS = {
    "abs": 1,
    "sgn": 1,
    "min": 2,
    "max": 2,
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "pow": 2,
    "odd_pow": 2,
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
            node = BinOp(op, node, self.parse_term())
        return node

    # term := unary (('*'|'/') unary)*
    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    # unary := '-' unary | power
    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    # power := atom ('^' unary)?   right-associative, binds above unary minus
    def parse_power(self) -> Expr:
        node = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = BinOp("^", node, self.parse_unary())
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if name not in FUNCTIONS:
                    raise UnknownIdentifierError(name, tok.offset)
                self.advance()
                args = [self.parse_expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect_op(")")
                arity = FUNCTIONS[name]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{name} expects {arity} argument(s), got {len(args)}",
                        tok.offset,
                    )
                return Call(name, tuple(args))
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
    """

    def check(arr: np.ndarray, what: str) -> np.ndarray:
        bad = ~np.isfinite(arr)
        if bad.any():
            idx = int(np.flatnonzero(np.ravel(bad))[0])
            raise _IndexedDomainError(f"{what} is not finite", idx)
        return arr

    def rec(node: Expr) -> np.ndarray:
        if isinstance(node, Num):
            return np.float64(node.value)
        if isinstance(node, Var):
            if node.name not in bindings:
                raise UnboundVariableError(node.name)
            return np.asarray(bindings[node.name], dtype=float)
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, BinOp):
            a = rec(node.left)
            b = rec(node.right)
            with np.errstate(all="ignore"):
                if node.op == "+":
                    return check(a + b, "sum")
                if node.op == "-":
                    return check(a - b, "difference")
                if node.op == "*":
                    return check(a * b, "product")
                if node.op == "/":
                    return check(np.divide(a, b), "quotient")
                if node.op == "^":
                    return check(np.power(a, b), "power")
            raise TypeError(f"unknown operator {node.op!r}")
        if isinstance(node, Call):
            args = [rec(a) for a in node.args]
            name = node.func
            with np.errstate(all="ignore"):
                if name == "abs":
                    return np.abs(args[0])
                if name == "sgn":
                    return np.sign(args[0])
                if name == "min":
                    return np.minimum(args[0], args[1])
                if name == "max":
                    return np.maximum(args[0], args[1])
                if name == "sin":
                    return np.sin(args[0])
                if name == "cos":
                    return np.cos(args[0])
                if name == "exp":
                    return check(np.exp(args[0]), "exp")
                if name == "log":
                    return check(np.log(args[0]), "log")
                if name == "pow":
                    return check(np.power(args[0], args[1]), "pow")
                if name == "odd_pow":
                    t, q = args
                    return check(np.sign(t) * np.power(np.abs(t), q), "odd_pow")
            raise TypeError(f"unknown function {name!r}")
        raise TypeError(f"not an expression node: {node!r}")

    return rec(e)


class _IndexedDomainError(EvaluationDomainError):
    """Domain error from vectorized evaluation, with the flat entry index."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (entry {index})")
        self.message = message
        self.index = index
