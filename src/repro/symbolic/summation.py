"""Closed-form symbolic summation (Faulhaber / Bernoulli).

Ehrhart counting for the affine loop model of the paper (Fig. 5) reduces to
nested sums of polynomials over parametric integer ranges::

    count = sum_{i1=l1}^{u1-1} sum_{i2=l2(i1)}^{u2(i1)-1} ... 1

Each inner sum of a polynomial in the summation variable has a closed form
obtained from the Faulhaber formulas, which in turn follow from the Bernoulli
numbers.  This module provides exactly that machinery with exact rational
arithmetic, so the resulting Ehrhart and ranking polynomials are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict

from .polynomial import Polynomial, Q


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """The Bernoulli number ``B_n`` with the ``B_1 = +1/2`` convention.

    The ``+1/2`` convention makes the Faulhaber formula below give the
    *inclusive* sum ``sum_{x=0}^{n} x^k`` directly.  Computed with the
    standard recurrence ``sum_{j=0}^{m} C(m+1, j) B_j = m + 1`` (for the
    ``B_1 = -1/2`` convention) and then sign-adjusted.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers are defined for n >= 0")
    minus = _bernoulli_minus(n)
    if n == 1:
        return -minus
    return minus


@lru_cache(maxsize=None)
def _bernoulli_minus(n: int) -> Fraction:
    """Bernoulli numbers with the classical ``B_1 = -1/2`` convention."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += Fraction(comb(n + 1, j)) * _bernoulli_minus(j)
    return -total / (n + 1)


@lru_cache(maxsize=None)
def faulhaber_polynomial(power: int, variable: str = "n") -> Polynomial:
    """Closed form of ``S_power(n) = sum_{x=0}^{n} x**power`` as a polynomial in ``n``.

    Uses Faulhaber's formula
    ``S_k(n) = (1/(k+1)) * sum_{j=0}^{k} C(k+1, j) * B_j^+ * n^(k+1-j)``
    with the ``B_1 = +1/2`` Bernoulli convention, which yields the inclusive
    upper bound directly (``S_0(n) = n + 1`` is handled explicitly since the
    formula above gives ``n`` for ``k = 0`` under the usual conventions).
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    n = Polynomial.variable(variable)
    if power == 0:
        # sum_{x=0}^{n} 1 = n + 1
        return n + 1
    result = Polynomial.zero()
    for j in range(power + 1):
        coefficient = Fraction(comb(power + 1, j)) * bernoulli_number(j)
        if coefficient != 0:
            result = result + Polynomial.constant(coefficient) * (n ** (power + 1 - j))
    return result / (power + 1)


def sum_power_between(power: int, lower: Polynomial, upper: Polynomial) -> Polynomial:
    """Closed form of ``sum_{x=lower}^{upper} x**power`` with polynomial bounds.

    The result equals ``S_power(upper) - S_power(lower - 1)``; it is the
    correct count whenever ``upper >= lower - 1`` (an empty range,
    ``upper = lower - 1``, correctly yields zero).  For ``upper < lower - 1``
    the closed form extrapolates (it may go negative), which mirrors the
    standard Ehrhart-polynomial validity condition that the domain must be
    non-degenerate.
    """
    aux = "__faulhaber_n"
    return sum_over_range(Polynomial.variable(aux) ** power, aux, lower, upper)


def sum_over_range(
    summand: Polynomial,
    variable: str,
    lower: Polynomial | int,
    upper: Polynomial | int,
) -> Polynomial:
    """Closed form of ``sum_{variable=lower}^{upper} summand``.

    ``summand`` may involve ``variable`` as well as any other symbols;
    ``lower`` and ``upper`` are polynomials in other symbols (they must not
    involve ``variable`` itself).  The sum is *inclusive* of both bounds, so
    the trip count of ``for (x = l; x < u; x++)`` is
    ``sum_over_range(1, x, l, u - 1)``.

    With ``summand = sum_k c_k x**k`` and ``S_k(n) = sum_j f_kj n**j`` the
    sum is ``sum_j (sum_k c_k f_kj) (upper**j - (lower - 1)**j)``: each power
    difference is built once and shared by every ``k``.  The ``j = 0`` terms
    cancel.
    """
    lower = lower if isinstance(lower, Polynomial) else Polynomial.constant(lower)
    upper = upper if isinstance(upper, Polynomial) else Polynomial.constant(upper)
    if variable in lower.variables() or variable in upper.variables():
        raise ValueError(f"summation bounds must not involve the summation variable {variable!r}")

    weights: Dict[int, Polynomial] = {}
    for power, coefficient in summand.coefficients_in(variable).items():
        closed = faulhaber_polynomial(power).coefficients_in("n")
        for j, f in closed.items():
            if j:
                weights[j] = weights.get(j, 0) + coefficient * f.constant_value()
    result = Polynomial.zero()
    below = lower - 1
    upper_power = below_power = Polynomial.constant(1)
    for j in range(1, max(weights, default=0) + 1):
        upper_power, below_power = upper_power * upper, below_power * below
        if j in weights:
            result = result + weights[j] * (upper_power - below_power)
    return result


def nested_sum(ordered_bounds, summand: Polynomial | int = 1) -> Polynomial:
    """Sum ``summand`` over a whole nest of inclusive parametric ranges.

    ``ordered_bounds`` is a sequence of ``(variable, lower, upper)`` triples
    listed from the *outermost* to the *innermost* dimension; inner bounds
    may reference outer variables.  The summation is performed from the
    innermost range outwards, mirroring how Ehrhart counting of a loop nest
    proceeds.
    """
    result = summand if isinstance(summand, Polynomial) else Polynomial.constant(summand)
    for variable, lower, upper in reversed(list(ordered_bounds)):
        result = sum_over_range(result, variable, lower, upper)
    return result
