"""Sparse multivariate polynomials with exact rational coefficients.

:class:`Polynomial` is the workhorse of the whole reproduction: ranking
Ehrhart polynomials, trip counts, affine loop bounds and intermediate
summation results are all instances of it.  Every computation (counting,
ranking, inversion set-up) is exact — floating point only enters at the
very end, when closed form radical roots are *evaluated*.

A polynomial stores its coefficients over one common denominator: a map
``{monomial: int}`` of numerators and a denominator ``den >= 1`` whose gcd
with all numerators is 1, so each polynomial has exactly one stored form.
All arithmetic therefore runs on Python ints; a coefficient is a
``fractions.Fraction`` only at the public surface: :meth:`~Polynomial.terms`
and :meth:`~Polynomial.coefficient` return ``Fraction`` values, as
:meth:`~Polynomial.evaluate` does on exact arguments.  The stored pair is
also the denominator-cleared form :meth:`~Polynomial.integer_form` returns.

The public surface intentionally mirrors what a tiny computer-algebra system
would offer: arithmetic, substitution, evaluation, per-variable degree,
univariate coefficient extraction and printers for Python and C sources.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .monomial import Monomial

#: Convenience alias used throughout the code base for exact rationals.
Q = Fraction

Scalar = Union[int, Fraction]
PolynomialLike = Union["Polynomial", int, Fraction]

_ONE = Monomial.one()


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"expected an exact rational coefficient, got {type(value).__name__}")


def _reduced(terms: Dict[Monomial, int], den: int) -> "Polynomial":
    """The polynomial ``terms / den`` from non-zero numerators and ``den >= 1``.

    Arithmetic results are built here without re-validating their
    coefficients; only the common factor of ``den`` and the numerators is
    divided out, which keeps the stored form unique.
    """
    if not terms:
        den = 1
    elif den != 1:
        common = math.gcd(den, *terms.values())
        if common != 1:
            den //= common
            terms = {m: n // common for m, n in terms.items()}
    poly = object.__new__(Polynomial)
    poly._terms = terms
    poly._den = den
    return poly


class Polynomial:
    """A multivariate polynomial ``sum_k c_k * m_k`` with ``c_k`` rational.

    Instances are immutable in practice (no public mutators); arithmetic
    returns new objects.  Zero coefficients are never stored.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        exact: Dict[Monomial, Fraction] = {}
        if terms:
            for monomial, coefficient in terms.items():
                if not isinstance(monomial, Monomial):
                    raise TypeError("Polynomial keys must be Monomial instances")
                value = _as_fraction(coefficient)
                if value != 0:
                    exact[monomial] = value
        den = math.lcm(*(value.denominator for value in exact.values())) if exact else 1
        self._terms = {m: c.numerator * (den // c.denominator) for m, c in exact.items()}
        self._den = den

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zero() -> "Polynomial":
        """The zero polynomial."""
        return _reduced({}, 1)

    @staticmethod
    def constant(value: Scalar) -> "Polynomial":
        """A constant polynomial."""
        value = _as_fraction(value)
        return _reduced({_ONE: value.numerator} if value else {}, value.denominator)

    @staticmethod
    def variable(name: str) -> "Polynomial":
        """The polynomial consisting of the single variable ``name``."""
        return _reduced({Monomial.variable(name): 1}, 1)

    @staticmethod
    def from_coefficients(var: str, coefficients: Iterable[Scalar]) -> "Polynomial":
        """Univariate constructor: ``coefficients[k]`` multiplies ``var**k``."""
        terms: Dict[Monomial, Scalar] = {}
        for power, coefficient in enumerate(coefficients):
            terms[Monomial.variable(var, power) if power else _ONE] = coefficient
        return Polynomial(terms)

    @staticmethod
    def affine(coefficients: Mapping[str, Scalar], constant: Scalar = 0) -> "Polynomial":
        """Build ``sum_v coefficients[v] * v + constant``."""
        terms: Dict[Monomial, Scalar] = {
            Monomial.variable(var): coefficient for var, coefficient in coefficients.items()
        }
        terms[_ONE] = constant
        return Polynomial(terms)

    @staticmethod
    def _coerce(value: PolynomialLike) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.constant(value)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    def terms(self) -> Dict[Monomial, Fraction]:
        """The ``{monomial: coefficient}`` map, coefficients as ``Fraction``."""
        den = self._den
        return {m: Fraction(n, den) for m, n in self._terms.items()}

    def coefficient(self, monomial: Monomial) -> Fraction:
        """Coefficient of ``monomial`` as a ``Fraction`` (0 when absent)."""
        return Fraction(self._terms.get(monomial, 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m.is_constant() for m in self._terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial; raises otherwise."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coefficient(_ONE)

    def variables(self) -> frozenset:
        """Every variable that appears with a non-zero coefficient."""
        result: set = set()
        for monomial in self._terms:
            result.update(var for var, _ in monomial.powers)
        return frozenset(result)

    @property
    def total_degree(self) -> int:
        """Maximum total degree of any monomial (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(m.total_degree for m in self._terms)

    def degree_in(self, var: str) -> int:
        """Maximum exponent of ``var`` (0 when the variable does not appear)."""
        if not self._terms:
            return 0
        return max((m.degree_in(var) for m in self._terms), default=0)

    def is_affine(self) -> bool:
        """True when every monomial has total degree at most one."""
        return all(m.total_degree <= 1 for m in self._terms)

    def is_integer_valued_on_integers(self, samples: int = 4) -> bool:
        """Heuristic check that the polynomial maps integers to integers.

        Ranking Ehrhart polynomials have rational coefficients but always
        evaluate to integers on integer points; this is used as a sanity
        check in tests and assertions.
        """
        variables = sorted(self.variables())
        from itertools import product

        for point in product(range(samples), repeat=len(variables)):
            value = self.evaluate(dict(zip(variables, point)))
            if not isinstance(value, Fraction):
                return False
            if value.denominator != 1:
                return False
        return True

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """``self + sign * other`` over the least common denominator."""
        den = math.lcm(self._den, other._den)
        scale_self, scale_other = den // self._den, sign * (den // other._den)
        if scale_self == 1:
            terms = dict(self._terms)
        else:
            terms = {m: n * scale_self for m, n in self._terms.items()}
        get = terms.get
        for monomial, n in other._terms.items():
            terms[monomial] = get(monomial, 0) + n * scale_other
        return _reduced({m: n for m, n in terms.items() if n}, den)

    def __add__(self, other: PolynomialLike) -> "Polynomial":
        return self._combine(Polynomial._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _reduced({m: -n for m, n in self._terms.items()}, self._den)

    def __sub__(self, other: PolynomialLike) -> "Polynomial":
        return self._combine(Polynomial._coerce(other), -1)

    def __rsub__(self, other: PolynomialLike) -> "Polynomial":
        return Polynomial._coerce(other)._combine(self, -1)

    def _scaled(self, factor: Fraction) -> "Polynomial":
        """``self * factor`` for an exact scalar."""
        if not factor:
            return _reduced({}, 1)
        numerator = factor.numerator
        return _reduced(
            {m: n * numerator for m, n in self._terms.items()}, self._den * factor.denominator
        )

    def __mul__(self, other: PolynomialLike) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self._scaled(_as_fraction(other))
        terms: Dict[Monomial, int] = {}
        get = terms.get
        right = other._terms.items()
        for m1, n1 in self._terms.items():
            for m2, n2 in right:
                monomial = m1 * m2
                terms[monomial] = get(monomial, 0) + n1 * n2
        return _reduced({m: n for m, n in terms.items() if n}, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Polynomial":
        value = _as_fraction(scalar)
        if value == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self._scaled(1 / value)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Polynomial.constant(1)
        base = self
        power = exponent
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self._den))

    def denominator(self) -> int:
        """Least common multiple of all coefficient denominators (>= 1).

        For a degree-``d`` Ehrhart/ranking polynomial this divides ``d!``:
        multiplying by it clears every fraction, which is what makes exact
        integer bracket evaluation possible (see :meth:`integer_form`).
        It is the stored common denominator.
        """
        return self._den

    def integer_form(self) -> Tuple["Polynomial", int]:
        """The denominator-cleared pair ``(num, den)`` with ``self == num / den``.

        ``num`` has integer coefficients only and ``den >= 1`` is the LCM of
        the coefficient denominators.  A comparison ``self(x) <= q`` over
        integers then becomes the *exact* integer comparison
        ``num(x) <= q * den`` — no floating point anywhere.  This is the
        foundation of the exact rank-recovery contract: every bracket check
        in the scalar, batch, generated-Python and generated-C paths runs on
        this form (``__int128`` in C, arbitrary-precision ``int`` in Python).
        """
        return _reduced(self._terms, 1), self._den

    def has_integer_coefficients(self) -> bool:
        """True when every coefficient has denominator 1."""
        return self._den == 1

    def evaluate_int(self, assignment: Mapping[str, int]) -> int:
        """Exact arbitrary-precision integer evaluation.

        Requires integer coefficients (:meth:`integer_form` produces them)
        and integer variable values; arguments are coerced through ``int()``
        so NumPy integer scalars cannot silently overflow.  This is the
        exact-bracket primitive of the recovery guard — unlike
        :meth:`evaluate` it never touches :class:`~fractions.Fraction`
        arithmetic, so it is cheap enough to sit on the correction path.
        """
        if self._den != 1:
            fractional = next(c for c in self.terms().values() if c.denominator != 1)
            raise ValueError(
                f"evaluate_int requires integer coefficients; {self} has {fractional} "
                "(clear denominators with integer_form() first)"
            )
        total = 0
        for monomial, coefficient in self._terms.items():
            term = coefficient
            for var, exp in monomial.powers:
                term *= int(assignment[var]) ** exp
            total += term
        return total

    # ------------------------------------------------------------------ #
    # substitution and evaluation
    # ------------------------------------------------------------------ #
    def substitute(self, assignment: Mapping[str, PolynomialLike]) -> "Polynomial":
        """Simultaneously substitute variables by polynomials (or scalars).

        Variables absent from ``assignment`` are left untouched.  Each power
        of a substituted polynomial is computed once per call, and every
        term is accumulated into one numerator map over a common
        denominator.
        """
        substitutions = {name: Polynomial._coerce(value) for name, value in assignment.items()}
        powers: Dict[Tuple[str, int], Polynomial] = {}

        def power(var: str, exp: int) -> Polynomial:
            result = powers.get((var, exp))
            if result is None:
                base = substitutions[var]
                result = base if exp == 1 else power(var, exp - 1) * base
                powers[(var, exp)] = result
            return result

        terms: Dict[Monomial, int] = {}
        den = 1
        for monomial, coefficient in self._terms.items():
            kept = []
            factor: Optional[Polynomial] = None
            for var, exp in monomial.powers:
                if var in substitutions:
                    value = power(var, exp)
                    factor = value if factor is None else factor * value
                else:
                    kept.append((var, exp))
            if factor is None:
                terms[monomial] = terms.get(monomial, 0) + coefficient * den
                continue
            if den % factor._den:
                grow = math.lcm(den, factor._den) // den
                terms = {m: n * grow for m, n in terms.items()}
                den *= grow
            scale = coefficient * (den // factor._den)
            rest = Monomial._trusted(tuple(kept))
            for m, n in factor._terms.items():
                key = m * rest
                terms[key] = terms.get(key, 0) + n * scale
        return _reduced({m: n for m, n in terms.items() if n}, den * self._den)

    def evaluate(self, assignment: Mapping[str, object]):
        """Evaluate numerically.

        Returns a :class:`~fractions.Fraction` when every supplied value is
        exact; floats/complex propagate naturally otherwise.  Raises
        :class:`KeyError` when a needed variable is missing.
        """
        total: object = Fraction(0)
        for monomial, coefficient in self.terms().items():
            total = total + coefficient * monomial.evaluate(assignment)
        return total

    def evaluate_partial(self, assignment: Mapping[str, object]) -> "Polynomial":
        """Substitute scalar values for some variables, keeping the rest symbolic."""
        return self.substitute({k: Polynomial.constant(_as_fraction(v)) for k, v in assignment.items()})

    def coefficients_in(self, var: str) -> Dict[int, "Polynomial"]:
        """Group the polynomial as a univariate polynomial in ``var``.

        Returns ``{exponent: coefficient-polynomial}`` where the coefficient
        polynomials no longer contain ``var``.  Distinct monomials stay
        distinct once ``var`` is removed, so every group is non-zero.
        """
        grouped: Dict[int, Dict[Monomial, int]] = {}
        for monomial, coefficient in self._terms.items():
            exponent = monomial.degree_in(var)
            reduced = monomial.without(var) if exponent else monomial
            grouped.setdefault(exponent, {})[reduced] = coefficient
        return {exp: _reduced(terms, self._den) for exp, terms in grouped.items()}

    def derivative(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to ``var``."""
        terms: Dict[Monomial, int] = {}
        for monomial, coefficient in self._terms.items():
            exponent = monomial.degree_in(var)
            if exponent == 0:
                continue
            reduced = monomial.as_dict()
            reduced[var] = exponent - 1
            terms[Monomial.from_mapping(reduced)] = coefficient * exponent
        return _reduced(terms, self._den)

    # ------------------------------------------------------------------ #
    # printing
    # ------------------------------------------------------------------ #
    def _sorted_terms(self):
        return sorted(self.terms().items(), key=lambda kv: kv[0].sort_key(), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for monomial, coefficient in self._sorted_terms():
            if monomial.is_constant():
                chunk = str(coefficient)
            elif coefficient == 1:
                chunk = str(monomial)
            elif coefficient == -1:
                chunk = f"-{monomial}"
            else:
                chunk = f"{coefficient}*{monomial}"
            parts.append(chunk)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def _term_source(self, monomial: Monomial, coefficient: Fraction, *, cast: str) -> str:
        factors = []
        if coefficient.denominator == 1:
            if coefficient != 1 or monomial.is_constant():
                factors.append(str(coefficient.numerator))
        else:
            factors.append(f"({coefficient.numerator}{cast} / {coefficient.denominator})")
        for var, exp in monomial.powers:
            factors.extend([var] * exp)
        return " * ".join(factors) if factors else "1"

    def to_python_source(self) -> str:
        """Render as a Python expression string using ``Fraction``-free arithmetic.

        Rational coefficients are emitted as exact divisions so evaluating the
        string with integer variable values yields floats only where division
        is genuinely fractional.
        """
        if not self._terms:
            return "0"
        parts = [self._term_source(m, c, cast="") for m, c in self._sorted_terms()]
        return " + ".join(f"({p})" for p in parts)

    def to_c_source(self) -> str:
        """Render as a C expression string (double arithmetic for fractions)."""
        if not self._terms:
            return "0"
        parts = [self._term_source(m, c, cast=".0") for m, c in self._sorted_terms()]
        return " + ".join(f"({p})" for p in parts)
