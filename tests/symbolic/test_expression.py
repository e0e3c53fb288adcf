"""Tests for the radical expression trees and their printers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.symbolic import (
    Add,
    Const,
    Floor,
    Mul,
    Polynomial,
    Pow,
    RealPart,
    Var,
    expr_from_polynomial,
    simplify,
)


class TestConstAndVar:
    def test_const_evaluates_to_complex(self):
        assert Const(Fraction(3, 2)).evaluate({}) == 1.5 + 0j

    def test_const_sources(self):
        assert Const(Fraction(1, 2)).to_c() == "(1.0 / 2.0)"

    def test_var_evaluation(self):
        assert Var("pc").evaluate({"pc": 7}) == 7 + 0j

    def test_var_missing_raises(self):
        with pytest.raises(KeyError):
            Var("pc").evaluate({})

    def test_var_c_source_casts_to_double(self):
        assert Var("pc").to_c() == "(double)pc"


class TestOperatorSugar:
    def test_add_sub_mul_div(self):
        expr = (Var("x") + 1) * 2 - Var("y") / 4
        value = expr.evaluate({"x": 3, "y": 8})
        assert value == complex((3 + 1) * 2 - 2)

    def test_neg(self):
        assert (-Var("x")).evaluate({"x": 5}) == -5 + 0j

    def test_pow_rational(self):
        expr = Var("x") ** Fraction(1, 2)
        assert expr.evaluate({"x": 9}).real == pytest.approx(3.0)

    def test_pow_rejects_float_exponent(self):
        with pytest.raises(TypeError):
            Var("x") ** 0.5

    def test_rsub_rdiv(self):
        assert (1 - Var("x")).evaluate({"x": 3}) == -2 + 0j
        assert (6 / Var("x")).evaluate({"x": 3}) == 2 + 0j


class TestComplexBehaviour:
    def test_sqrt_of_negative_is_complex_not_nan(self):
        """Section IV-C: negative radicands must go through complex arithmetic."""
        expr = Pow(Const(Fraction(-1)), Fraction(1, 2))
        value = expr.evaluate({})
        assert value == pytest.approx(1j)
        assert not math.isnan(value.real)

    def test_complex_intermediate_with_real_result(self):
        # (sqrt(-1))^2 + 1 == 0 exactly, even though the intermediate is imaginary
        expr = Pow(Pow(Const(Fraction(-1)), Fraction(1, 2)), Fraction(2)) + 1
        assert abs(expr.evaluate({})) == pytest.approx(0.0)

    def test_zero_to_negative_power_raises(self):
        with pytest.raises(ZeroDivisionError):
            Pow(Const(Fraction(0)), Fraction(-1)).evaluate({})

    def test_floor_takes_real_part(self):
        expr = Floor(Const(Fraction(7, 2)) + Pow(Const(Fraction(-9)), Fraction(1, 2)))
        assert expr.evaluate({}) == 3 + 0j

    def test_real_part(self):
        expr = RealPart(Pow(Const(Fraction(-4)), Fraction(1, 2)))
        assert expr.evaluate({}) == 0 + 0j


class TestPrinters:
    def test_c_source_uses_complex_functions(self):
        expr = Floor(Pow(Var("pc"), Fraction(1, 3)))
        text = expr.to_c()
        assert "cpow" in text
        assert "creal" in text
        assert "floor" in text

    def test_c_source_of_sqrt_uses_csqrt(self):
        assert "csqrt" in Pow(Var("x"), Fraction(1, 2)).to_c()

    def test_reciprocal_printers(self):
        expr = Pow(Var("x"), Fraction(-1))
        assert expr.to_c() == "(1.0 / ((double)x))"


class TestConversionFromPolynomial:
    def test_constant_polynomial(self):
        expr = expr_from_polynomial(Polynomial.constant(Fraction(5, 3)))
        assert expr.evaluate({}) == pytest.approx(5 / 3)

    def test_zero_polynomial(self):
        assert expr_from_polynomial(Polynomial.zero()).evaluate({}) == 0

    def test_multivariate_polynomial_matches(self):
        i, n = Polynomial.variable("i"), Polynomial.variable("N")
        poly = (2 * i * n - i ** 2 - 3 * i) / 2 + 7
        expr = expr_from_polynomial(poly)
        env = {"i": 4, "N": 11}
        assert expr.evaluate(env).real == pytest.approx(float(poly.evaluate(env)))

    def test_variables_preserved(self):
        poly = Polynomial.variable("pc") * Polynomial.variable("N")
        assert expr_from_polynomial(poly).variables() == {"pc", "N"}


class TestSimplify:
    def test_flattens_nested_sums(self):
        expr = Add((Add((Var("x"), Const(Fraction(1)))), Const(Fraction(2))))
        result = simplify(expr)
        assert isinstance(result, Add)
        assert result.evaluate({"x": 5}) == 8 + 0j

    def test_folds_constant_product(self):
        expr = Mul((Const(Fraction(2)), Const(Fraction(3)), Var("x")))
        result = simplify(expr)
        assert result.evaluate({"x": 4}) == 24 + 0j

    def test_multiplication_by_zero_collapses(self):
        expr = Mul((Const(Fraction(0)), Var("x")))
        assert simplify(expr) == Const(Fraction(0))

    def test_pow_of_constant_folds(self):
        assert simplify(Pow(Const(Fraction(3)), Fraction(2))) == Const(Fraction(9))

    def test_simplify_preserves_value(self):
        expr = Floor(
            Mul(
                (
                    Const(Fraction(-1, 2)),
                    Add(
                        (
                            Pow(Add((Mul((Const(Fraction(8)), Var("pc"))), Const(Fraction(1)))), Fraction(1, 2)),
                            Const(Fraction(-1)),
                        )
                    ),
                )
            )
        )
        simplified = simplify(expr)
        for pc in (1, 5, 17):
            assert simplified.evaluate({"pc": pc}) == expr.evaluate({"pc": pc})


@settings(max_examples=50)
@given(
    a=st.integers(-20, 20),
    b=st.integers(-20, 20),
    x=st.integers(-10, 10),
)
def test_property_expression_arithmetic_matches_python(a, b, x):
    expr = Var("x") * a + b
    assert expr.evaluate({"x": x}) == complex(a * x + b)


@settings(max_examples=50)
@given(value=st.integers(min_value=0, max_value=10_000))
def test_property_python_and_c_style_sqrt_agree_with_math(value):
    expr = Pow(Const(Fraction(value)), Fraction(1, 2))
    assert expr.evaluate({}).real == pytest.approx(math.sqrt(value))
