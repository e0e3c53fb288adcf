"""Radical expression trees with complex-aware evaluation.

The closed-form roots of ranking polynomials (Section IV of the paper)
involve square roots, cube roots and rational powers whose intermediate
values may transiently be complex even though the final index value is a
plain integer (Section IV-C: "the selection of the convenient root must not
be done relatively to its type ... the indices should be computed by using
complex variables").  This module provides a small immutable expression tree
that:

* is built symbolically from polynomials, rationals and radicals,
* evaluates numerically through Python ``complex`` arithmetic,
* prints to C99 source (``csqrt`` / ``cpow`` / ``creal`` exactly as in
  Figure 7 of the paper); :mod:`repro.symbolic.compile` renders it to
  Python/NumPy straight-line code.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Tuple, Union

from .polynomial import Polynomial

Number = Union[int, float, complex, Fraction]


class Expr:
    """Base class of all expression nodes.  Instances are immutable."""

    # -- operator sugar -------------------------------------------------- #
    def __add__(self, other) -> "Expr":
        return Add((self, _coerce(other)))

    def __radd__(self, other) -> "Expr":
        return Add((_coerce(other), self))

    def __sub__(self, other) -> "Expr":
        return Add((self, Mul((Const(Fraction(-1)), _coerce(other)))))

    def __rsub__(self, other) -> "Expr":
        return Add((_coerce(other), Mul((Const(Fraction(-1)), self))))

    def __mul__(self, other) -> "Expr":
        return Mul((self, _coerce(other)))

    def __rmul__(self, other) -> "Expr":
        return Mul((_coerce(other), self))

    def __truediv__(self, other) -> "Expr":
        return Mul((self, Pow(_coerce(other), Fraction(-1))))

    def __rtruediv__(self, other) -> "Expr":
        return Mul((_coerce(other), Pow(self, Fraction(-1))))

    def __neg__(self) -> "Expr":
        return Mul((Const(Fraction(-1)), self))

    def __pow__(self, exponent) -> "Expr":
        if isinstance(exponent, (int, Fraction)):
            return Pow(self, Fraction(exponent))
        raise TypeError("expression exponents must be exact rationals")

    # -- interface ------------------------------------------------------- #
    def evaluate(self, assignment: Mapping[str, Number]) -> complex:
        """Numerically evaluate the expression, always through ``complex``."""
        raise NotImplementedError

    def variables(self) -> frozenset:
        raise NotImplementedError

    def to_c(self) -> str:
        """C99 source using ``<complex.h>`` functions (``csqrt``, ``cpow``)."""
        raise NotImplementedError


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    if isinstance(value, Polynomial):
        return expr_from_polynomial(value)
    raise TypeError(f"cannot convert {type(value).__name__} to Expr")


@dataclass(frozen=True)
class Const(Expr):
    """An exact rational constant.

    Its ``complex`` value is converted once, at construction: root
    selection evaluates the same trees at many sample points.
    """

    value: Fraction
    _complex: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        object.__setattr__(self, "_complex", complex(self.value))

    def evaluate(self, assignment: Mapping[str, Number]) -> complex:
        return self._complex

    def variables(self) -> frozenset:
        return frozenset()

    def to_c(self) -> str:
        if self.value.denominator == 1:
            return f"({self.value.numerator}.0)"
        return f"({self.value.numerator}.0 / {self.value.denominator}.0)"

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A free variable (a loop index, a size parameter or ``pc``)."""

    name: str

    def evaluate(self, assignment: Mapping[str, Number]) -> complex:
        if self.name not in assignment:
            raise KeyError(f"no value supplied for variable {self.name!r}")
        return complex(assignment[self.name])

    def variables(self) -> frozenset:
        return frozenset({self.name})

    def to_c(self) -> str:
        return f"(double){self.name}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Add(Expr):
    """A sum of two or more sub-expressions."""

    operands: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.operands) < 1:
            raise ValueError("Add needs at least one operand")

    def evaluate(self, assignment: Mapping[str, Number]) -> complex:
        total = 0j
        for operand in self.operands:
            total += operand.evaluate(assignment)
        return total

    def variables(self) -> frozenset:
        result: frozenset = frozenset()
        for operand in self.operands:
            result |= operand.variables()
        return result

    def to_c(self) -> str:
        return "(" + " + ".join(op.to_c() for op in self.operands) + ")"

    def __str__(self) -> str:
        return "(" + " + ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Mul(Expr):
    """A product of two or more sub-expressions."""

    operands: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.operands) < 1:
            raise ValueError("Mul needs at least one operand")

    def evaluate(self, assignment: Mapping[str, Number]) -> complex:
        total = 1 + 0j
        for operand in self.operands:
            total *= operand.evaluate(assignment)
        return total

    def variables(self) -> frozenset:
        result: frozenset = frozenset()
        for operand in self.operands:
            result |= operand.variables()
        return result

    def to_c(self) -> str:
        return "(" + " * ".join(op.to_c() for op in self.operands) + ")"

    def __str__(self) -> str:
        return "(" + " * ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Pow(Expr):
    """``base ** exponent`` with an exact rational exponent.

    ``exponent = 1/2`` is a (complex) square root, ``1/3`` a principal cube
    root, ``-1`` a reciprocal; arbitrary rationals are supported through
    ``cpow`` / ``cmath``.  Evaluation always goes through complex arithmetic
    so negative radicands never produce ``NaN`` (Section IV-C).
    """

    base: Expr
    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exponent", Fraction(self.exponent))

    def evaluate(self, assignment: Mapping[str, Number]) -> complex:
        base = self.base.evaluate(assignment)
        exponent = self.exponent
        if exponent.denominator == 1:
            power = int(exponent)
            if base == 0 and power < 0:
                raise ZeroDivisionError("0 raised to a negative power during recovery evaluation")
            return base ** power
        if exponent == Fraction(1, 2):
            return cmath.sqrt(base)
        return base ** complex(exponent)

    def variables(self) -> frozenset:
        return self.base.variables()

    def to_c(self) -> str:
        if self.exponent == Fraction(1, 2):
            return f"csqrt({self.base.to_c()})"
        if self.exponent == Fraction(-1):
            return f"(1.0 / ({self.base.to_c()}))"
        num, den = self.exponent.numerator, self.exponent.denominator
        return f"cpow({self.base.to_c()}, {num}.0 / {den}.0)"

    def __str__(self) -> str:
        return f"({self.base})^({self.exponent})"


@dataclass(frozen=True)
class Floor(Expr):
    """Integer part of the real part of a sub-expression.

    This is the outermost node of every recovered-index expression:
    ``ik = floor(creal(root_k(...)))``.
    """

    operand: Expr

    def evaluate(self, assignment: Mapping[str, Number]) -> complex:
        import math

        value = self.operand.evaluate(assignment)
        return complex(math.floor(value.real))

    def variables(self) -> frozenset:
        return self.operand.variables()

    def to_c(self) -> str:
        return f"floor(creal({self.operand.to_c()}))"

    def __str__(self) -> str:
        return f"floor({self.operand})"


@dataclass(frozen=True)
class RealPart(Expr):
    """Real part of a complex sub-expression (``creal`` in generated C)."""

    operand: Expr

    def evaluate(self, assignment: Mapping[str, Number]) -> complex:
        return complex(self.operand.evaluate(assignment).real)

    def variables(self) -> frozenset:
        return self.operand.variables()

    def to_c(self) -> str:
        return f"creal({self.operand.to_c()})"

    def __str__(self) -> str:
        return f"Re({self.operand})"


# ---------------------------------------------------------------------- #
# conversions and light simplification
# ---------------------------------------------------------------------- #
def expr_from_polynomial(poly: Polynomial) -> Expr:
    """Convert a :class:`Polynomial` to an equivalent expression tree."""
    terms = poly.terms()
    if not terms:
        return Const(Fraction(0))
    addends = []
    for monomial, coefficient in sorted(terms.items(), key=lambda kv: kv[0].sort_key(), reverse=True):
        factors: list[Expr] = []
        if coefficient != 1 or monomial.is_constant():
            factors.append(Const(coefficient))
        for var, exp in monomial.powers:
            if exp == 1:
                factors.append(Var(var))
            else:
                factors.append(Pow(Var(var), Fraction(exp)))
        addends.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    return addends[0] if len(addends) == 1 else Add(tuple(addends))


def simplify(expr: Expr) -> Expr:
    """Light structural simplification: flatten nested sums/products and fold constants.

    The goal is readable generated code, not canonical forms; correctness
    never depends on simplification.
    """
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Add):
        operands = []
        constant = Fraction(0)
        for op in expr.operands:
            op = simplify(op)
            if isinstance(op, Add):
                inner = list(op.operands)
            else:
                inner = [op]
            for item in inner:
                if isinstance(item, Const):
                    constant += item.value
                else:
                    operands.append(item)
        if constant != 0 or not operands:
            operands.append(Const(constant))
        return operands[0] if len(operands) == 1 else Add(tuple(operands))
    if isinstance(expr, Mul):
        operands = []
        constant = Fraction(1)
        for op in expr.operands:
            op = simplify(op)
            if isinstance(op, Mul):
                inner = list(op.operands)
            else:
                inner = [op]
            for item in inner:
                if isinstance(item, Const):
                    constant *= item.value
                else:
                    operands.append(item)
        if constant == 0:
            return Const(Fraction(0))
        if constant != 1 or not operands:
            operands.insert(0, Const(constant))
        return operands[0] if len(operands) == 1 else Mul(tuple(operands))
    if isinstance(expr, Pow):
        base = simplify(expr.base)
        if isinstance(base, Const) and expr.exponent.denominator == 1 and expr.exponent >= 0:
            return Const(base.value ** int(expr.exponent))
        if expr.exponent == 1:
            return base
        return Pow(base, expr.exponent)
    if isinstance(expr, Floor):
        return Floor(simplify(expr.operand))
    if isinstance(expr, RealPart):
        return RealPart(simplify(expr.operand))
    return expr
