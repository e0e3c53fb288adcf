"""Ranking Ehrhart polynomials (Section III of the paper).

The ranking polynomial ``r(i1, ..., ic)`` of the ``c`` outermost loops of a
nest maps every iteration to its 1-based rank in the lexicographic execution
order.  Following the Clauss–Meister construction recalled in Section III,
the set of iterations lexicographically smaller than ``(i1, ..., ic)`` is
split into ``c`` disjoint polyhedra — one per level at which the prefix can
first differ — and each is counted symbolically::

    r(i1, ..., ic) = 1 + sum_{k=1}^{c}  sum_{j = l_k}^{i_k - 1}  G_k(i1, ..., i_{k-1}, j)

where ``G_k`` is the number of iterations of the loops deeper than level
``k`` for a fixed prefix, itself an Ehrhart polynomial obtained by nested
Faulhaber summation.  The result is a multivariate polynomial with rational
coefficients that is integer-valued on the iteration domain, equals 1 at the
lexicographic minimum, the total trip count at the maximum, and increases by
exactly 1 from one iteration to the lexicographically next one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..ir import LoopNest, enumerate_iterations
from ..polyhedra.counting import loop_nest_count, prefix_counts
from ..symbolic import Polynomial
from ..symbolic.summation import sum_over_range

#: Name used for the fresh summation variable introduced at each level.
_SUMMATION_VARIABLE = "__rank_sum"

#: Parameter tuples whose trip count one ranking polynomial remembers; the
#: oldest is dropped beyond this.
_TOTALS_LIMIT = 64


def ranking_polynomial(nest: LoopNest, depth: Optional[int] = None) -> "RankingPolynomial":
    """Build the ranking polynomial of the ``depth`` outermost loops of ``nest``."""
    depth = nest.depth if depth is None else depth
    if not 1 <= depth <= nest.depth:
        raise ValueError(f"depth must be in 1..{nest.depth}, got {depth}")

    bounds = nest.bounds()[:depth]
    suffix_counts = prefix_counts(bounds)  # suffix_counts[k]: iterations of loops k+1..depth
    rank = Polynomial.constant(1)

    for level, (iterator, lower, _upper) in enumerate(bounds):
        # iterations with the same i1..i_{k-1} and a strictly smaller i_k:
        #   sum_{j = lower_k}^{i_k - 1} G_k(i1, ..., i_{k-1}, j)
        summand = suffix_counts[level + 1].substitute(
            {iterator: Polynomial.variable(_SUMMATION_VARIABLE)}
        )
        lower_poly = lower.to_polynomial()
        upper_poly = Polynomial.variable(iterator) - 1
        rank = rank + sum_over_range(summand, _SUMMATION_VARIABLE, lower_poly, upper_poly)

    total = loop_nest_count(bounds)
    return RankingPolynomial(nest=nest, depth=depth, polynomial=rank, total=total)


@dataclass(frozen=True)
class RankingPolynomial:
    """The ranking polynomial of the ``depth`` outer loops of ``nest``.

    ``polynomial`` has the loop iterators and the nest parameters as
    variables; ``total`` is the Ehrhart polynomial giving the trip count of
    the collapsed loop (i.e. the value of ``polynomial`` at the last
    iteration), a polynomial in the parameters only.
    """

    nest: LoopNest
    depth: int
    polynomial: Polynomial
    total: Polynomial
    #: trip count per parameter tuple (in ``nest.parameters`` order): the
    #: ``Fraction`` evaluation of ``total`` runs once per size, not once per
    #: chunk, range check or native call
    _totals: Dict[Tuple[object, ...], int] = field(
        default_factory=dict, compare=False, repr=False
    )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    @property
    def iterators(self) -> Tuple[str, ...]:
        return self.nest.iterators[: self.depth]

    def rank(self, indices: Sequence[int], parameter_values: Mapping[str, int]) -> int:
        """Rank (1-based) of the iteration ``indices`` for concrete parameters."""
        if len(indices) != self.depth:
            raise ValueError(f"expected {self.depth} indices, got {len(indices)}")
        assignment = {name: int(value) for name, value in parameter_values.items()}
        assignment.update(dict(zip(self.iterators, indices)))
        value = self.polynomial.evaluate(assignment)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(
                    f"ranking polynomial evaluated to non-integer {value} at {tuple(indices)}; "
                    "the point is outside the iteration domain"
                )
            return int(value)
        return int(value)

    def total_iterations(self, parameter_values: Mapping[str, int]) -> int:
        """Trip count of the collapsed loop for concrete parameter values."""
        key = tuple(parameter_values.get(name) for name in self.nest.parameters)
        count = self._totals.get(key)
        if count is not None:
            return count
        count = int(self.total.evaluate(parameter_values))
        if count < 0:
            raise ValueError(
                f"total iteration count {count} is negative; the domain is empty or "
                "degenerate for these parameter values"
            )
        if len(self._totals) >= _TOTALS_LIMIT:
            self._totals.pop(next(iter(self._totals)))
        self._totals[key] = count
        return count

    def partial_rank_polynomial(self, level: int) -> Polynomial:
        """``r`` with the iterators deeper than ``level`` fixed to their lexmin.

        Helper for the inversion step: returns the polynomial in
        ``i1, ..., i_level`` (1-based level count) and the parameters whose
        value at ``(i1, ..., i_level)`` is the rank of the lexicographically
        first iteration with that prefix.
        """
        from ..polyhedra.lexmin import parametric_lexmin

        if not 1 <= level <= self.depth:
            raise ValueError(f"level must be in 1..{self.depth}")
        minima = parametric_lexmin(self.nest.bounds()[: self.depth], from_level=level)
        substitution = {name: expr.to_polynomial() for name, expr in minima.items()}
        return self.polynomial.substitute(substitution)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, parameter_values: Mapping[str, int]) -> bool:
        """Check the bijection property against actual enumeration.

        The rank of the ``n``-th iteration (in lexicographic execution order)
        must be exactly ``n``, and the total must match the enumeration
        length.  This is the property that makes the collapse transformation
        semantics-preserving.
        """
        count = 0
        for expected_rank, indices in enumerate(
            enumerate_iterations(self.nest, parameter_values, self.depth), start=1
        ):
            if self.rank(indices, parameter_values) != expected_rank:
                return False
            count = expected_rank
        return count == self.total_iterations(parameter_values)

    def __str__(self) -> str:
        return f"r({', '.join(self.iterators)}) = {self.polynomial}"
