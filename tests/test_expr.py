"""Parser, printer, and evaluator tests for the expression language."""

import math

import numpy as np
import pytest

import plapsys.expr as ex
from expr_reference import evaluate, to_text


def ev(text, **bindings):
    return evaluate(ex.parse(text), bindings)


def test_basic_arithmetic():
    assert ev("2*x+3*y", x=1.0, y=2.0) == 8.0
    assert ev("2+3*4") == 14.0
    assert ev("(2+3)*4") == 20.0
    assert ev("7/2") == 3.5


def test_precedence_and_associativity():
    assert ev("2-3-4") == -5.0  # left associative
    assert ev("12/3/2") == 2.0
    assert ev("2^3^2") == 512.0  # right associative
    assert ev("-2^2") == -4.0  # power binds tighter than unary minus
    assert ev("(-2)^2") == 4.0
    assert ev("2*3^2") == 18.0
    assert ev("--3") == 3.0


def test_functions():
    assert ev("odd_pow(u,2)", u=-3.0) == -9.0
    assert ev("odd_pow(u,2)", u=3.0) == 9.0
    assert ev("abs(u)^1.5", u=-4.0) == 8.0
    assert ev("sgn(u)", u=-2.5) == -1.0
    assert ev("sgn(u)", u=0.0) == 0.0
    assert ev("min(2,5)") == 2.0
    assert ev("max(2,5)") == 5.0
    assert ev("sin(0)") == 0.0
    assert ev("cos(0)") == 1.0
    assert ev("exp(0)") == 1.0
    assert ev("log(1)") == 0.0
    assert ev("pow(2,10)") == 1024.0


def test_number_formats():
    assert ev("1e2") == 100.0
    assert ev("2.5E-1") == 0.25
    assert ev(".5") == 0.5
    assert ev("3.") == 3.0


def test_syntax_error_offsets():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("1+")
    assert err.value.offset == 2
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("(1+2")
    assert err.value.offset == 4
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("1 $ 2")
    assert err.value.offset == 2
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("")


def test_trailing_input_rejected():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("1+2 3")
    assert err.value.offset == 4


def test_unknown_identifiers_named():
    with pytest.raises(ex.UnknownIdentifierError) as err:
        ex.parse("foo(x)")
    assert err.value.name == "foo"
    with pytest.raises(ex.UnknownIdentifierError) as err:
        ex.parse("x+z")
    assert err.value.name == "z"


def test_arity_checked():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("abs(1,2)")
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("min(1)")


def test_unbound_variable():
    with pytest.raises(ex.UnboundVariableError):
        ev("x")
    with pytest.raises(ex.UnboundVariableError):
        ev("u+v", u=1.0)


def test_domain_errors():
    with pytest.raises(ex.EvaluationDomainError):
        ev("1/0")
    with pytest.raises(ex.EvaluationDomainError):
        ev("log(0-1)")
    with pytest.raises(ex.EvaluationDomainError):
        ev("log(0)")
    with pytest.raises(ex.EvaluationDomainError):
        ev("x^0.5", x=-2.0)  # negative base, fractional exponent
    with pytest.raises(ex.EvaluationDomainError):
        ev("0^(0-1)")
    with pytest.raises(ex.EvaluationDomainError):
        ev("exp(1000)")  # overflow is an error, not inf


@pytest.mark.parametrize("text, offset", [("1e999", 0), ("2*1e999", 2), ("u-1.5e400", 2)])
def test_nonfinite_literal_is_a_syntax_error(text, offset):
    """A literal that overflows to infinity fails at parse time, at its
    offset; it used to evaluate to inf silently."""
    with pytest.raises(ex.ExprSyntaxError, match="is not finite") as err:
        ex.parse(text)
    assert err.value.offset == offset


FUNCTION_NAMES = ["abs", "cos", "exp", "log", "max", "min", "odd_pow", "pow", "sgn", "sin"]


def test_function_names_are_the_identifier_keys():
    """The parser accepts exactly the ten function names, the identifier
    keys of the table; the unary-minus entry is no function."""
    assert sorted(op for op in ex.OPERATIONS if op.isidentifier()) == FUNCTION_NAMES
    for name in FUNCTION_NAMES:
        arity = ex.OPERATIONS[name][0]
        tree = ex.Apply(name, (ex.Var("u"),) * arity)
        assert ex.parse(f"{name}({', '.join(['u'] * arity)})") == tree
    for text in ("neg(u)", "negation(u)", "sum(u, v)"):
        with pytest.raises(ex.UnknownIdentifierError):
            ex.parse(text)
    assert ex.parse("-u") == ex.Apply("(-)", (ex.Var("u"),))


def _nan_result_is_named(op):
    """u = nan makes the result of op nan: the evaluator checks it and
    names the operation by its word in the domain error."""
    arity, _, what = ex.OPERATIONS[op]
    tree = ex.Apply(op, (ex.Var("u"),) * arity)
    with pytest.raises(ex.EvaluationDomainError, match=rf"^{what} is not finite \(entry 1\)"):
        ex.evaluate_arrays(tree, {"u": np.array([1.0, math.nan])})


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_every_function_result_is_checked(name):
    """Each function of the table is checked and named in its domain error."""
    _nan_result_is_named(name)


@pytest.mark.parametrize("op", sorted(set(ex.OPERATIONS) - set(FUNCTION_NAMES)))
def test_every_operator_result_is_checked(op):
    """So is each operator, unary minus included."""
    _nan_result_is_named(op)


def test_negation_of_finite_values_passes_the_check():
    """Negating a finite array, its extremes included, is always finite."""
    big = np.finfo(float).max
    vals = np.array([big, -big, 0.0, -0.0, 5e-324])
    got = ex.evaluate_arrays(ex.parse("-u"), {"u": vals})
    assert np.array_equal(got, -vals)


def test_negative_base_integer_exponent_ok():
    assert ev("x^2", x=-3.0) == 9.0
    assert ev("x^3", x=-2.0) == -8.0


def test_array_evaluation_matches_scalar():
    text = "odd_pow(u,1.2)+0.5*abs(v)^2-sin(x)*cos(y)"
    tree = ex.parse(text)
    rng = np.random.default_rng(7)
    xs, ys, us, vs = rng.uniform(-2, 2, size=(4, 50))
    arr = ex.evaluate_arrays(tree, {"x": xs, "y": ys, "u": us, "v": vs})
    for i in range(50):
        scalar = evaluate(tree, {"x": xs[i], "y": ys[i], "u": us[i], "v": vs[i]})
        assert arr[i] == pytest.approx(scalar, abs=1e-15, rel=1e-15)


def test_array_domain_error():
    tree = ex.parse("1/x")
    with pytest.raises(ex.EvaluationDomainError):
        ex.evaluate_arrays(tree, {"x": np.array([1.0, 0.0, 2.0])})


# random trees over total functions only, so evaluation never leaves the domain
_SAFE_FUNCS = ["abs", "sgn", "sin", "cos", "min", "max"]


def _random_tree(rng, depth):
    # canonical form: literals are nonnegative, negation is a "(-)" node
    if depth == 0:
        if rng.random() < 0.5:
            return ex.Num(round(float(rng.uniform(0, 5)), 3))
        return ex.Var(str(rng.choice(ex.VARIABLES)))
    kind = rng.integers(0, 4)
    if kind == 0:
        return ex.Apply("(-)", (_random_tree(rng, depth - 1),))
    if kind == 1:
        op = str(rng.choice(["+", "-", "*"]))
        return ex.Apply(op, (_random_tree(rng, depth - 1), _random_tree(rng, depth - 1)))
    if kind == 2:
        name = str(rng.choice(_SAFE_FUNCS))
        arity = ex.OPERATIONS[name][0]
        return ex.Apply(name, tuple(_random_tree(rng, depth - 1) for _ in range(arity)))
    return ex.Apply("odd_pow", (_random_tree(rng, depth - 1), ex.Num(float(rng.integers(1, 4)))))


def test_print_parse_round_trip():
    """parse(to_text(tree)) reproduces the tree for 1000 random trees."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        tree = _random_tree(rng, int(rng.integers(1, 5)))
        text = to_text(tree)
        assert ex.parse(text) == tree, text


def test_print_parse_value_agreement():
    """Printed text evaluates to the same value as the tree, bit for bit."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        tree = _random_tree(rng, int(rng.integers(1, 5)))
        bindings = {name: float(rng.uniform(-2, 2)) for name in ex.VARIABLES}
        a = evaluate(tree, bindings)
        b = evaluate(ex.parse(to_text(tree)), bindings)
        assert a == b


def test_evaluation_deterministic():
    tree = ex.parse("sin(x)*odd_pow(u,1.7)+cos(y)/(2+abs(v))")
    bindings = {"x": 0.3, "y": -1.2, "u": 2.5, "v": -0.7}
    first = evaluate(tree, bindings)
    for _ in range(10):
        assert evaluate(tree, bindings) == first


def test_evaluate_against_independent_oracle():
    """Cross-check a few composite expressions against hand-built math."""
    assert ev("odd_pow(u,1.2)", u=-2.0) == pytest.approx(-(2.0**1.2), rel=1e-15)
    assert ev("exp(log(5))") == pytest.approx(5.0, rel=1e-14)
    assert ev("sin(x)^2+cos(x)^2", x=0.739) == pytest.approx(1.0, rel=1e-14)
    got = ev("max(x*y, x+y)", x=1.5, y=-0.5)
    assert got == max(1.5 * -0.5, 1.5 + -0.5)
