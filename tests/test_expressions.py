import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sislab.expressions import (
    Expression,
    ExpressionDomainError,
    ExpressionError,
)


def ev(text, x=0.0, params=None):
    return Expression(text).evaluate(np.asarray(x, dtype=float), params)


def test_literals_and_constants():
    assert ev("1.5") == 1.5
    assert ev(".25") == 0.25
    assert ev("2e-3") == 2e-3
    assert ev("pi") == pytest.approx(math.pi, abs=0)


def test_coefficient_families_from_the_scenarios():
    x = np.array([0.0, 0.5, 1.0])
    gamma = ev("4 - pi*sin(pi*x)", x)
    assert gamma[0] == pytest.approx(4.0)
    assert gamma[1] == pytest.approx(4.0 - math.pi)
    beta = ev("2 - abs(x - 0.5)^0.5", x)
    assert beta[1] == pytest.approx(2.0)
    assert beta[0] == pytest.approx(2.0 - math.sqrt(0.5))


def test_operator_precedence_and_unary_minus():
    assert ev("2 + 3*4") == 14.0
    assert ev("2*3^2") == 18.0
    assert ev("-x^2", 3.0) == -9.0  # unary binds outside the power
    assert ev("2^-1") == 0.5
    assert ev("(2 + 3)*4") == 20.0
    assert ev("2 - -3") == 5.0


def test_power_is_right_associative():
    assert ev("2^3^2") == 512.0


def test_min_max_are_pointwise():
    x = np.linspace(0, 1, 5)
    vals = ev("max(x - 0.5, 0)", x)
    assert vals == pytest.approx(np.maximum(x - 0.5, 0.0))
    assert ev("min(2, 3)") == 2.0


def test_whitespace_is_insignificant():
    a = ev("4-pi*sin(pi*x)", 0.3)
    b = ev("  4 -  pi * sin( pi*x )  ", 0.3)
    c = ev("\n4\t-\npi *\n sin(\npi*x)\n", 0.3)
    assert a == b == c


def test_named_parameters():
    assert ev("a + cos(pi*x)", 0.0, {"a": 1.5}) == pytest.approx(2.5)
    with pytest.raises(ExpressionError, match="unknown symbol 'a'"):
        ev("a + 1")


@pytest.mark.parametrize("name", ["x", "pi"])
def test_constants_cannot_shadow_the_grammar_symbols(name):
    # whether or not the expression reads the symbol
    for text in ("2 + cos(pi*x)", "1"):
        with pytest.raises(ValueError, match=f"constant name '{name}' is reserved"):
            ev(text, 0.3, {"a": 1.0, name: 5.0})


@pytest.mark.parametrize(
    "text",
    ["2 +", "sin()", "sin(1, 2)", "min(1)", "foo(2)", "(1", "1 2", "* 3", "+5", "",
     # Python expressions outside the grammar: power and unary plus spelled
     # the Python way, non-decimal and other literals, attributes,
     # subscripts, comparisons, tuples, keyword and starred arguments, a
     # trailing comma, a parenthesized callee, strings, lambdas,
     # conditionals, boolean operators, comments and line continuations
     "2**3", "x ** 2", "+x", "0x1f", "0o17", "0b101", "1_000", "1j", "True", "False",
     "None", "...", "x.real", "x[0]", "x < 1", "x == 1", "(1, 2)", "1, 2", "()",
     "sin(x=1)", "max(*x)", "sin(x, )", "max(x, 1,)", "(sin)(x)", "'x'", "lambda: 1",
     "lambda x: x", "x if x else 1", "not x", "x and 1", "1 # note", "1 +\\\n2",
     "x @ x", "x % 2", "[x]"],
)
def test_parse_errors_carry_a_position(text):
    with pytest.raises(ExpressionError) as info:
        Expression(text).evaluate(np.zeros(3))
    assert "position" in str(info.value)
    assert 0 <= info.value.position <= len(text)


@pytest.mark.parametrize("text", ["1or 2", "0x1for"])
def test_rejected_inputs_raise_without_python_warnings(text, capfd):
    # CPython's tokenizer warns about these before they are rejected; only
    # the ExpressionError may reach the user
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ExpressionError):
            Expression(text)
    assert caught == []
    assert capfd.readouterr().err == ""


def test_unexpected_character_position():
    with pytest.raises(ExpressionError) as info:
        Expression("1 + $")
    assert info.value.position == 4


@pytest.mark.parametrize("text", ["1\u0663", "x\u0663"])
def test_a_non_ascii_digit_is_an_unexpected_character(text):
    # the grammar's digits are ASCII: an Arabic-Indic three is no digit
    with pytest.raises(ExpressionError, match="^unexpected character '\u0663' "
                                              r"\(at position 1\)$") as info:
        Expression(text)
    assert info.value.position == 1


def test_domain_errors():
    with pytest.raises(ExpressionDomainError, match="division by zero"):
        ev("1/x", np.array([0.0, 0.5]))
    with pytest.raises(ExpressionDomainError, match="sqrt"):
        ev("sqrt(x - 1)", np.array([0.0, 2.0]))
    with pytest.raises(ExpressionDomainError):
        ev("x^0.5", np.array([-1.0]))
    with pytest.raises(ExpressionDomainError):
        ev("0^-1")


def test_zero_to_fractional_power_is_fine():
    assert ev("abs(x - 0.5)^0.5", 0.5) == 0.0


def test_expression_reusable_across_inputs():
    expr = Expression("x^2 + 1")
    assert expr.evaluate(np.array([2.0]))[0] == 5.0
    assert expr.evaluate(np.array([3.0]))[0] == 10.0


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=50, deadline=None)
def test_arithmetic_matches_python(a, b):
    got = ev(f"({a!r}) + ({b!r})*x", np.array([1.0]))[0]
    assert got == pytest.approx(a + b, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("text", [
    "+".join(["x"] * 1000),      # the grammar check runs out of stack
    "+".join(["x"] * 3000),      # CPython's parser runs out of stack
    "^".join(["1"] * 3000),      # CPython's parser runs out of memory
], ids=["sum_1000", "sum_3000", "power_3000"])
def test_an_expression_too_deep_to_parse_is_an_expression_error(text):
    with pytest.raises(ExpressionError, match=r"^expression too long or too deeply "
                                              r"nested \(at position 0\)$"):
        Expression(text)


def _evaluate_below(depth, expr, x):
    """``expr.evaluate(x)`` called ``depth`` frames down the stack."""
    return expr.evaluate(x) if depth == 0 else _evaluate_below(depth - 1, expr, x)


def test_an_evaluation_out_of_stack_is_an_expression_error():
    # a long sum parsed near the top of the stack still evaluates there, with
    # the bits of the sum taken term by term, and fails cleanly further down
    expr = Expression("+".join(["x"] * 500))
    x = np.array([0.1, 0.3, 1.0])
    total = np.zeros(3)
    for _ in range(500):
        total = total + x
    assert np.array_equal(expr.evaluate(x), total)
    with pytest.raises(ExpressionError, match="too long or too deeply nested"):
        _evaluate_below(sys.getrecursionlimit() - 200, expr, x)


def test_leading_zero_integers_are_rejected():
    # CPython's literal rule; zeros before a decimal point stay valid
    with pytest.raises(ExpressionError):
        Expression("007")
    assert ev("00") == 0.0
    assert ev("00.5") == 0.5


# Grammar trees: ("num", literal), ("sym", name), ("neg", t), ("bin", op, l, r),
# ("call", name, args).  The binding level of a node and the level each slot
# needs follow the grammar: expr 0, term 1, factor 2, power 3, atom 4.
_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1, "^": 3}
_SLOTS = {"+": (0, 1), "-": (0, 1), "*": (1, 2), "/": (1, 2), "^": (4, 2)}
_NUMPY = {"sin": np.sin, "cos": np.cos, "abs": np.abs, "exp": np.exp, "sqrt": np.sqrt,
          "min": np.minimum, "max": np.maximum}
_X = np.array([-1.5, -0.5, 0.0, 0.25, 1.0, 2.0])
_A = 0.75


class _Undefined(Exception):
    pass


def _trees():
    literal = st.one_of(
        st.sampled_from(["0", "1", "2", "3", "0.5", ".25", "2.", "1e-3", "2.5E+1", "00.5"]),
        st.floats(0, 10).map(repr))
    leaves = st.one_of(st.tuples(st.just("num"), literal),
                       st.tuples(st.just("sym"), st.sampled_from(["x", "pi", "a"])))

    def extend(kids):
        return st.one_of(
            st.tuples(st.just("neg"), kids),
            st.tuples(st.just("bin"), st.sampled_from("+-*/^"), kids, kids),
            st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "abs", "exp", "sqrt"]),
                      st.lists(kids, min_size=1, max_size=1)),
            st.tuples(st.just("call"), st.sampled_from(["min", "max"]),
                      st.lists(kids, min_size=2, max_size=2)))

    return st.recursive(leaves, extend, max_leaves=12)


def _render(tree, slot, draw):
    """Text for ``tree`` in a slot that needs binding level ``slot``, with
    random whitespace and parentheses only where the grammar needs them
    (plus, now and then, redundant ones)."""
    ws = lambda: draw(st.sampled_from(["", "", " ", "  ", "\n", "\t", " \n "]))
    kind = tree[0]
    if kind in ("num", "sym"):
        text, level = tree[1], 4
    elif kind == "neg":
        text, level = "-" + ws() + _render(tree[1], 2, draw), 2
    elif kind == "call":
        args = ("," + ws()).join(_render(a, 0, draw) + ws() for a in tree[2])
        text, level = tree[1] + ws() + "(" + ws() + args + ")", 4
    else:
        op, left, right = tree[1:]
        lslot, rslot = _SLOTS[op]
        text = _render(left, lslot, draw) + ws() + op + ws() + _render(right, rslot, draw)
        level = _LEVEL[op]
    if level < slot or draw(st.integers(0, 9)) == 0:
        text = "(" + ws() + text + ws() + ")"
    return text


def _compose(tree, x):
    """The tree evaluated directly with numpy under the grammar's domain rules."""
    kind = tree[0]
    if kind == "num":
        return float(tree[1])
    if kind == "sym":
        return {"x": x, "pi": np.pi, "a": _A}[tree[1]]
    if kind == "neg":
        return -_compose(tree[1], x)
    if kind == "call":
        args = [_compose(a, x) for a in tree[2]]
        if tree[1] == "sqrt":
            if np.any(np.asarray(args[0]) < 0):
                raise _Undefined
            return np.sqrt(args[0])
        with np.errstate(all="ignore"):
            out = _NUMPY[tree[1]](*args)
        if not np.all(np.isfinite(out)):
            raise _Undefined
        return out
    op, a, b = tree[1], _compose(tree[2], x), _compose(tree[3], x)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if np.any(np.asarray(b) == 0):
            raise _Undefined
        return a / b
    with np.errstate(all="ignore"):
        out = np.power(np.asarray(a, dtype=float), b)
    if not np.all(np.isfinite(out)):
        raise _Undefined
    return out


@given(_trees(), st.data())
@settings(max_examples=300, deadline=None)
def test_rendered_trees_evaluate_like_the_tree(tree, data):
    # precedence, right-associative ^, unary minus outside the power and
    # insignificant whitespace, checked bit for bit against numpy
    text = _render(tree, 0, data.draw)
    expr = Expression(text)
    try:
        with np.errstate(all="ignore"):
            want = np.broadcast_to(np.asarray(_compose(tree, _X), dtype=float), _X.shape)
        if not np.all(np.isfinite(want)):  # e.g. a product that overflowed
            raise _Undefined
    except _Undefined:
        with pytest.raises(ExpressionDomainError):
            expr.evaluate(_X, {"a": _A})
        return
    with np.errstate(all="ignore"):
        got = expr.evaluate(_X, {"a": _A})
    assert got.tobytes() == want.tobytes(), text
