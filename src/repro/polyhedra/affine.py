"""Affine expressions over loop iterators and integer parameters.

An :class:`AffineExpr` is ``sum_v coefficient[v] * v + constant`` with exact
rational coefficients.  It is the type of every loop bound in the model of
Fig. 5 of the paper and the building block of polyhedral constraints.  A
small parser accepts the textual form used by the loop-nest DSL
(``"i + 1"``, ``"N - 1"``, ``"2*i - j + 3"``).

:class:`ClearedAffine` is the same form with its denominators cleared:
integer coefficients over one positive integer denominator.  It is what
concrete iteration evaluates (:class:`~repro.ir.iteration.Odometer`, the
batch walk of :mod:`repro.core.batch`): a bound's ``ceil`` becomes one
integer floor division, with no ``Fraction`` on the way.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

from ..symbolic import Polynomial

AffineLike = Union["AffineExpr", Polynomial, int, Fraction, str]

_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coeff>\d+(?:/\d+)?)\s*\*?\s*(?P<var1>[A-Za-z_]\w*)   # 2*i, 3j
      | (?P<var2>[A-Za-z_]\w*)                                   # bare variable
      | (?P<const>\d+(?:/\d+)?)                                  # constant
    )
    \s*
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class AffineExpr:
    """An immutable affine form ``sum coefficients[v] * v + constant``."""

    coefficients: tuple = field(default=())
    constant: Fraction = field(default=Fraction(0))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def build(coefficients: Mapping[str, Union[int, Fraction]] | None = None,
              constant: Union[int, Fraction] = 0) -> "AffineExpr":
        items = []
        for var, value in (coefficients or {}).items():
            value = Fraction(value)
            if value != 0:
                items.append((str(var), value))
        return AffineExpr(tuple(sorted(items)), Fraction(constant))

    @staticmethod
    def constant_expr(value: Union[int, Fraction]) -> "AffineExpr":
        return AffineExpr.build({}, value)

    @staticmethod
    def variable(name: str) -> "AffineExpr":
        return AffineExpr.build({name: 1})

    @staticmethod
    def parse(text: str) -> "AffineExpr":
        """Parse expressions such as ``"i + 1"``, ``"2*i - j + 3"`` or ``"N"``.

        Only affine syntax is accepted; anything else raises ``ValueError``.
        """
        stripped = text.replace(" ", "")
        if not stripped:
            raise ValueError("empty affine expression")
        coefficients: Dict[str, Fraction] = {}
        constant = Fraction(0)
        position = 0
        while position < len(stripped):
            match = _TERM_RE.match(stripped, position)
            if not match or match.end() == position:
                raise ValueError(f"cannot parse affine expression {text!r} at position {position}")
            sign = -1 if match.group("sign") == "-" else 1
            if match.group("var1") is not None:
                coefficient = Fraction(match.group("coeff")) * sign
                name = match.group("var1")
                coefficients[name] = coefficients.get(name, Fraction(0)) + coefficient
            elif match.group("var2") is not None:
                name = match.group("var2")
                coefficients[name] = coefficients.get(name, Fraction(0)) + sign
            else:
                constant += Fraction(match.group("const")) * sign
            position = match.end()
        return AffineExpr.build(coefficients, constant)

    @staticmethod
    def coerce(value: AffineLike) -> "AffineExpr":
        """Convert ints, Fractions, strings, Polynomials or AffineExprs."""
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, (int, Fraction)):
            return AffineExpr.constant_expr(value)
        if isinstance(value, str):
            return AffineExpr.parse(value)
        if isinstance(value, Polynomial):
            return AffineExpr.from_polynomial(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as an affine expression")

    @staticmethod
    def from_polynomial(poly: Polynomial) -> "AffineExpr":
        if not poly.is_affine():
            raise ValueError(f"{poly} is not affine")
        coefficients: Dict[str, Fraction] = {}
        constant = Fraction(0)
        for monomial, coefficient in poly.terms().items():
            if monomial.is_constant():
                constant += coefficient
            else:
                ((var, _),) = monomial.powers
                coefficients[var] = coefficients.get(var, Fraction(0)) + coefficient
        return AffineExpr.build(coefficients, constant)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def coefficient(self, var: str) -> Fraction:
        for name, value in self.coefficients:
            if name == var:
                return value
        return Fraction(0)

    def coefficient_map(self) -> Dict[str, Fraction]:
        return dict(self.coefficients)

    def variables(self) -> frozenset:
        return frozenset(name for name, _ in self.coefficients)

    def is_constant(self) -> bool:
        return not self.coefficients

    def to_polynomial(self) -> Polynomial:
        return Polynomial.affine(dict(self.coefficients), self.constant)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: AffineLike) -> "AffineExpr":
        other = AffineExpr.coerce(other)
        coefficients = self.coefficient_map()
        for var, value in other.coefficients:
            coefficients[var] = coefficients.get(var, Fraction(0)) + value
        return AffineExpr.build(coefficients, self.constant + other.constant)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr.build({v: -c for v, c in self.coefficients}, -self.constant)

    def __sub__(self, other: AffineLike) -> "AffineExpr":
        return self + (-AffineExpr.coerce(other))

    def __rsub__(self, other: AffineLike) -> "AffineExpr":
        return AffineExpr.coerce(other) - self

    def __mul__(self, scalar: Union[int, Fraction]) -> "AffineExpr":
        scalar = Fraction(scalar)
        return AffineExpr.build({v: c * scalar for v, c in self.coefficients}, self.constant * scalar)

    __rmul__ = __mul__

    def substitute(self, assignment: Mapping[str, AffineLike]) -> "AffineExpr":
        """Substitute variables by affine expressions (stays affine)."""
        result = AffineExpr.constant_expr(self.constant)
        for var, coefficient in self.coefficients:
            if var in assignment:
                result = result + AffineExpr.coerce(assignment[var]) * coefficient
            else:
                result = result + AffineExpr.build({var: coefficient})
        return result

    def evaluate(self, assignment: Mapping[str, Union[int, Fraction]]) -> Fraction:
        total = self.constant
        for var, coefficient in self.coefficients:
            if var not in assignment:
                raise KeyError(f"no value supplied for {var!r}")
            total += coefficient * Fraction(assignment[var])
        return total

    # ------------------------------------------------------------------ #
    # printing
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        parts = []
        for var, coefficient in self.coefficients:
            if coefficient == 1:
                parts.append(f"+ {var}")
            elif coefficient == -1:
                parts.append(f"- {var}")
            elif coefficient < 0:
                parts.append(f"- {-coefficient}*{var}")
            else:
                parts.append(f"+ {coefficient}*{var}")
        if self.constant != 0 or not parts:
            sign = "-" if self.constant < 0 else "+"
            parts.append(f"{sign} {abs(self.constant)}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:] if text.startswith("- ") else text

    def to_c_source(self) -> str:
        """Render as C source; fractional coefficients are kept as divisions."""
        return self.to_polynomial().to_c_source()

    def __repr__(self) -> str:
        return f"AffineExpr({self})"


@dataclass(frozen=True)
class ClearedAffine:
    """An affine form as ``(constant + sum coeff * var) / den`` over integers.

    ``den`` is the LCM of the form's denominators, so the cleared
    coefficients and constant are integers and the form equals the
    :class:`AffineExpr` it came from at every point.  A term's key is a
    variable name, or a position once :meth:`indexed` has keyed the terms
    by an order; :meth:`ceil` reads ``env[key]``, so ``env`` is a mapping
    or a sequence accordingly.
    """

    den: int
    constant: int
    terms: Tuple[Tuple[object, int], ...]

    @classmethod
    def of(cls, expr: AffineExpr) -> "ClearedAffine":
        den = math.lcm(expr.constant.denominator, *(c.denominator for _v, c in expr.coefficients))
        terms = tuple((var, int(coeff * den)) for var, coeff in expr.coefficients)
        return cls(den, int(expr.constant * den), terms)

    def indexed(self, order: Sequence[str], fixed: Mapping[str, int]) -> "ClearedAffine":
        """Key each term by its variable's position in ``order``, folding the
        ``fixed`` values of the other variables into the constant."""
        positions = {var: position for position, var in enumerate(order)}
        constant = self.constant
        terms = []
        for var, coeff in self.terms:
            if var in positions:
                terms.append((positions[var], coeff))
            elif var in fixed:
                constant += coeff * int(fixed[var])
            else:
                raise KeyError(f"no value supplied for {var!r}")
        return ClearedAffine(self.den, constant, tuple(terms))

    def ceil(self, env):
        """Exact ``ceil`` of the form over scalar or ``int64`` column entries.

        The caller guarantees the cleared numerator fits its carrier (see
        :meth:`magnitude`; Python ints always fit); integer floor division
        then makes the ``ceil`` exact with no float involved.
        """
        total = self.constant
        for var, coeff in self.terms:
            total = total + coeff * env[var]
        return total if self.den == 1 else -((-total) // self.den)

    def magnitude(self, extremes: Mapping[str, int]) -> int:
        """Upper bound of ``|numerator|`` when each ``|var| <= extremes[var]``."""
        return abs(self.constant) + sum(abs(coeff) * extremes[var] for var, coeff in self.terms)
