import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greensign.errors import ExpressionError
from greensign.expressions import MAX_DEPTH, Expression, evaluate_scalar


class TestScalars:
    def test_arithmetic(self):
        assert evaluate_scalar("2 + 3 * 4") == 14.0
        assert evaluate_scalar("(2 + 3) * 4") == 20.0
        assert evaluate_scalar("7 / 2") == 3.5
        assert evaluate_scalar("2 + 3 * 4 ^ 2") == 50.0

    def test_power_is_right_associative(self):
        assert evaluate_scalar("2 ^ 3 ^ 2") == 512.0
        assert evaluate_scalar("2 ** 3 ** 2") == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate_scalar("-3^2") == -9.0
        assert evaluate_scalar("(-3)^2") == 9.0
        assert evaluate_scalar("2^-1") == 0.5
        assert evaluate_scalar("--4") == 4.0

    def test_functions(self):
        assert evaluate_scalar("sqrt(60)") == pytest.approx(math.sqrt(60), rel=1e-15)
        assert evaluate_scalar("sin(pi/2)") == pytest.approx(1.0)
        assert evaluate_scalar("cos(0) + exp(0)") == 2.0
        assert evaluate_scalar("abs(-2.5)") == 2.5
        assert evaluate_scalar("pow(2, 10)") == 1024.0

    def test_constants(self):
        assert evaluate_scalar("3*pi/2") == pytest.approx(1.5 * math.pi, rel=1e-15)
        assert evaluate_scalar("T/4", T=2.0) == 0.5

    def test_scientific_notation(self):
        assert evaluate_scalar("1e-3 + 2.5E2") == pytest.approx(250.001)
        assert evaluate_scalar(".5 + 1.") == 1.5


class TestVectorized:
    def test_single_variable(self):
        f = Expression("60 + 10*sin(2*pi*t/T)", variables=("t",), T=1.0)
        ts = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(f(ts), 60 + 10 * np.sin(2 * math.pi * ts),
                                   atol=1e-14)
        assert isinstance(f(0.25), float)

    def test_two_variables_broadcast(self):
        f = Expression("t*(1-t) + 0*x", variables=("t", "x"))
        tt = np.linspace(0, 1, 5)[:, None]
        xx = np.array([0.0, 1.0, 10.0])[None, :]
        out = f(tt, xx)
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out, tt * (1 - tt) + 0 * xx)

    def test_constant_expression_broadcasts(self):
        f = Expression("1 + 0*t", variables=("t",))
        assert f(np.zeros(4)).shape == (4,)
        g = Expression("2", variables=("t",))
        assert g(np.zeros(4)).shape == (4,)

    def test_division_by_zero_is_silent_inf(self):
        f = Expression("1/t", variables=("t",))
        out = f(np.array([0.0, 2.0]))
        assert math.isinf(out[0]) and out[1] == 0.5

    def test_constant_division_by_zero_is_silent_inf_or_nan(self):
        assert evaluate_scalar("1/0") == math.inf
        assert evaluate_scalar("-1/0") == -math.inf
        assert math.isnan(evaluate_scalar("0/0"))
        f = Expression("x + 1/0", variables=("t", "x"))
        assert np.array_equal(f(np.zeros(3), 1.0), np.full(3, math.inf))

    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=-10, max_value=10))
    def test_matches_python_eval(self, t, x):
        f = Expression("sin(t) * exp(x/20) + t^2 - 3*x", variables=("t", "x"))
        expected = math.sin(t) * math.exp(x / 20) + t**2 - 3 * x
        assert f(t, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "2 +", "(1 + 2", "1 + * 2", "", "1 2", "pow(1)", "sin(1, 2)",
        "foo(3)", "nope + 1", "1 $ 2", "x + 1",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ExpressionError):
            Expression(bad, variables=("t",))

    def test_error_mentions_position(self):
        with pytest.raises(ExpressionError, match="position 4"):
            Expression("1 + $", variables=())

    def test_unknown_name_lists_scope(self):
        with pytest.raises(ExpressionError, match="variables: t"):
            Expression("t + y", variables=("t",))

    def test_T_unavailable_unless_given(self):
        with pytest.raises(ExpressionError):
            evaluate_scalar("T/2")

    def test_wrong_call_arity(self):
        f = Expression("t", variables=("t",))
        with pytest.raises(ExpressionError):
            f(1.0, 2.0)


class TestNesting:
    @pytest.mark.parametrize("text", [
        "(" * 400 + "8" + ")" * 400,
        "-" * 1200 + "8",
        "-" * 1200 + "t",
        "^".join(["2"] * 300),
        "^".join(["t"] * 300),
        "sin(" * 200 + "t" + ")" * 200,
    ])
    def test_too_deep_is_an_expression_error(self, text):
        with pytest.raises(ExpressionError, match=f"deeper than {MAX_DEPTH} levels"):
            Expression(text, variables=("t",))

    def test_deepest_nesting_parses_and_evaluates(self):
        # the formula is one level, and each parenthesis, minus or '^' one more
        n = MAX_DEPTH - 1
        assert evaluate_scalar("(" * n + "8" + ")" * n) == 8.0
        assert evaluate_scalar("-" * n + "8") == -8.0
        f = Expression("-" * n + "t", variables=("t",))
        assert np.array_equal(f(np.array([1.0, 2.0])), [-1.0, -2.0])
        g = Expression("^".join(["t"] * (n + 1)), variables=("t",))
        assert g(1.0) == 1.0
        # a long sum is one level, however many terms it has
        h = Expression(" + ".join(["t"] * 3 * MAX_DEPTH), variables=("t",))
        assert h(2.0) == 6.0 * MAX_DEPTH
        # the error points at the first token one level too deep
        with pytest.raises(ExpressionError, match=f"at position {n + 1}$"):
            evaluate_scalar("(" * (n + 1) + "8" + ")" * (n + 1))

    @pytest.mark.parametrize("terms", [1500, 5000])
    @pytest.mark.parametrize("level", [{"+": np.add, "-": np.subtract},
                                       {"*": np.multiply, "/": np.divide}])
    def test_long_flat_chain_evaluates_left_to_right(self, terms, level):
        # a flat chain nests one tree node per operator, to the left; it is
        # evaluated without recursion, one operation at a time from the left
        rng = np.random.default_rng(terms)
        ops = rng.choice(sorted(level), terms - 1).tolist()
        operands = ["x" if i % 2 else repr(1.0 + (i % 7 - 3) / 1000.0)
                    for i in range(1, terms)]
        text = "x" + "".join(f" {op} {a}" for op, a in zip(ops, operands))
        f = Expression(text, variables=("x",))
        for x in (1.0, np.array([1.0, 0.999, 1.001, -1.0, 0.0])):
            want = np.asarray(x)
            with np.errstate(all="ignore"):
                for op, a in zip(ops, operands):
                    want = level[op](want, x if a == "x" else float(a))
            got = f(x)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.ndim(got) == np.ndim(x)


# the grammar built twice: as text, and as the numpy calls it stands for
BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
          "^": np.power, "**": np.power}
UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}


def _binary(args):
    op, (ta, fa), (tb, fb) = args
    return f"({ta} {op} {tb})", lambda env: BINARY[op](fa(env), fb(env))


def _negative(arg):
    ta, fa = arg
    return f"(-{ta})", lambda env: np.negative(fa(env))


def _call(args):
    name, (ta, fa) = args
    return f"{name}({ta})", lambda env: UNARY[name](fa(env))


def _pow(args):
    (ta, fa), (tb, fb) = args
    return f"pow({ta}, {tb})", lambda env: np.power(fa(env), fb(env))


def formulas(depth):
    """(text, fn) pairs, nested up to depth levels; fn(env) is the formula
    computed by numpy calls on env's arrays."""
    leaves = st.one_of(
        st.floats(min_value=0.0, allow_infinity=False).map(
            lambda v: (repr(v), lambda env: v)),
        st.sampled_from(["t", "x"]).map(lambda n: (n, lambda env: env[n])),
        st.just(("pi", lambda env: math.pi)))
    if depth == 0:
        return leaves
    sub = formulas(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(sorted(BINARY)), sub, sub).map(_binary),
        sub.map(_negative),
        st.tuples(st.sampled_from(sorted(UNARY)), sub).map(_call),
        st.tuples(sub, sub).map(_pow))


def assert_same_bits(got, want):
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBitIdentity:
    @settings(max_examples=300)
    @given(formulas(6), st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=6))
    def test_tree_matches_numpy_calls(self, formula, points):
        text, fn = formula
        f = Expression(text, variables=("t", "x"))
        t, x = np.array(points).T
        with np.errstate(all="ignore"):
            want = fn({"t": t, "x": x})
            assert_same_bits(f(t, x), np.broadcast_to(want, t.shape))
            for ti, xi in points:
                want = fn({"t": np.asarray(ti), "x": np.asarray(xi)})
                got = f(ti, xi)
                assert isinstance(got, float)
                assert_same_bits(got, want)
