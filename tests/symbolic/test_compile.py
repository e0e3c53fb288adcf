"""Tests for the expression/polynomial compiler (repro.symbolic.compile)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.symbolic import (
    Add,
    CompileError,
    Const,
    Monomial,
    Mul,
    Polynomial,
    Pow,
    Var,
    compile_expr,
    compile_polynomial,
    expr_from_polynomial,
)
from repro.symbolic.expression import Floor, RealPart


def random_polynomial(rng: random.Random, variables, terms: int = 6) -> Polynomial:
    """A random sparse polynomial with rational coefficients."""
    result = Polynomial.zero()
    for _ in range(terms):
        coefficient = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        monomial = Monomial.one()
        for var in variables:
            monomial = monomial * Monomial.variable(var, rng.randint(0, 3))
        result = result + Polynomial({monomial: coefficient})
    return result


class TestCompiledPolynomial:
    def test_matches_tree_evaluation_on_random_polynomials(self):
        rng = random.Random(1234)
        variables = ("x", "y", "N")
        for _ in range(25):
            poly = random_polynomial(rng, variables)
            compiled = compile_polynomial(poly, variables)
            for _ in range(10):
                point = {var: rng.randint(-8, 8) for var in variables}
                assert compiled.evaluate(point) == poly.evaluate(point)

    def test_fraction_exactness_at_integer_points(self):
        # 1/2*x^2 + 1/2*x is integer-valued on integers; the compiled scalar
        # form must reproduce the exact Fractions, not float approximations
        poly = Polynomial.from_coefficients("x", [0, Fraction(1, 2), Fraction(1, 2)])
        compiled = compile_polynomial(poly)
        for x in range(-50, 51):
            value = compiled(x)
            assert isinstance(value, Fraction)
            assert value == poly.evaluate({"x": x})
            assert value.denominator == 1

    def test_fraction_inputs_stay_exact(self):
        poly = random_polynomial(random.Random(7), ("x", "y"))
        compiled = compile_polynomial(poly, ("x", "y"))
        point = {"x": Fraction(3, 7), "y": Fraction(-5, 2)}
        assert compiled.evaluate(point) == poly.evaluate(point)

    def test_numpy_mode_is_elementwise(self):
        rng = random.Random(99)
        poly = random_polynomial(rng, ("x", "N"))
        compiled = compile_polynomial(poly, ("x", "N"), mode="numpy")
        xs = np.arange(-20, 21)
        values = compiled(xs, 9)
        reference = np.array([float(poly.evaluate({"x": int(x), "N": 9})) for x in xs])
        assert values.shape == xs.shape
        assert np.allclose(values, reference)

    def test_zero_and_constant_polynomials(self):
        assert compile_polynomial(Polynomial.zero())() == 0
        assert compile_polynomial(Polynomial.constant(Fraction(7, 3)))() == Fraction(7, 3)

    def test_explicit_signature_order(self):
        poly = Polynomial.variable("a") - Polynomial.variable("b")
        compiled = compile_polynomial(poly, ("b", "a"))
        assert compiled(1, 10) == 9

    def test_missing_variable_in_signature_raises(self):
        poly = Polynomial.variable("a") * Polynomial.variable("b")
        with pytest.raises(CompileError):
            compile_polynomial(poly, ("a",))

    def test_unknown_mode_raises(self):
        with pytest.raises(CompileError):
            compile_polynomial(Polynomial.variable("x"), mode="torch")


class TestCompiledExpr:
    def radical(self) -> "Add":
        # (-1/2 + sqrt((N - 1/2)^2 + 2*(1 - pc))) / 1, shaped like a real
        # quadratic recovery root: negative radicands appear for large pc
        n = Var("N")
        pc = Var("pc")
        inner = (n - Fraction(1, 2)) * (n - Fraction(1, 2)) + 2 * (1 - pc)
        return Const(Fraction(-1, 2)) + Pow(inner, Fraction(1, 2))

    def test_matches_tree_evaluation(self):
        expr = self.radical()
        compiled = compile_expr(expr)
        for n in (3, 10, 17):
            for pc in (1, 5, 60, 400):
                point = {"N": n, "pc": pc}
                assert compiled.evaluate(point) == pytest.approx(expr.evaluate(point))

    def test_negative_radicand_stays_complex_in_numpy_mode(self):
        expr = self.radical()
        compiled = compile_expr(expr, mode="numpy")
        pcs = np.arange(1, 401)  # radicand goes negative well before pc=400
        values = compiled.evaluate({"N": 3, "pc": pcs})
        reference = np.array([expr.evaluate({"N": 3, "pc": int(pc)}) for pc in pcs])
        assert not np.isnan(values).any()
        assert np.allclose(values, reference)

    def test_negative_constant_under_sqrt_numpy(self):
        # regression: a *constant* negative radicand must also go complex
        expr = Mul((Pow(Const(Fraction(-3)), Fraction(1, 2)), Var("x")))
        compiled = compile_expr(expr, mode="numpy")
        xs = np.arange(1.0, 4.0)
        reference = np.array([expr.evaluate({"x": float(x)}) for x in xs])
        assert np.allclose(compiled(xs), reference)

    def test_cube_root_and_reciprocal(self):
        expr = Pow(Var("x"), Fraction(1, 3)) + Pow(Var("x"), Fraction(-1))
        compiled = compile_expr(expr)
        compiled_np = compile_expr(expr, mode="numpy")
        for x in (1, 8, -27, 5):
            assert compiled(x) == pytest.approx(expr.evaluate({"x": x}))
        xs = np.array([1, 8, -27, 5])
        reference = np.array([expr.evaluate({"x": int(x)}) for x in xs])
        assert np.allclose(compiled_np(xs), reference)

    def test_floor_and_realpart_nodes(self):
        expr = Floor(RealPart(Pow(Var("x"), Fraction(1, 2))))
        compiled = compile_expr(expr)
        compiled_np = compile_expr(expr, mode="numpy")
        for x in (0, 1, 2, 15, 16, 17):
            assert compiled(x) == expr.evaluate({"x": x})
        xs = np.arange(0, 20)
        assert np.allclose(
            np.real(compiled_np(xs)), [expr.evaluate({"x": int(x)}).real for x in xs]
        )

    def test_shared_subtrees_emitted_once(self):
        shared = Pow(Var("x"), Fraction(1, 2))
        rebuilt = Pow(Var("x"), Fraction(1, 2))  # equal, but a distinct object
        expr = Add((shared, shared, rebuilt))
        compiled = compile_expr(expr)
        assert compiled.source.count("_sqrt(") == 1
        assert compiled(4) == pytest.approx(6.0)

    def test_compiled_roots_of_a_real_collapse(self):
        from repro.core import collapse
        from repro.ir import Loop, LoopNest

        nest = LoopNest(
            [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")],
            parameters=["N"],
            name="corr_compile",
        )
        collapsed = collapse(nest)
        root = collapsed.unranking.recoveries[0].expression
        compiled = compile_expr(root, mode="numpy")
        pcs = np.arange(1, 67)
        values = compiled.evaluate({"N": 12, "pc": pcs})
        reference = np.array([root.evaluate({"N": 12, "pc": int(pc)}) for pc in pcs])
        assert np.allclose(values, reference)

    def test_polynomial_expression_round_trip(self):
        poly = random_polynomial(random.Random(11), ("x", "y"))
        expr = expr_from_polynomial(poly)
        compiled = compile_expr(expr)
        for x in range(-3, 4):
            point = {"x": x, "y": 2}
            assert compiled.evaluate(point) == pytest.approx(complex(poly.evaluate(point)))
