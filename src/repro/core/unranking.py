"""Unranking: inverting ranking polynomials (Section IV of the paper).

Given the ranking polynomial ``r(i1, ..., ic)`` of the collapsed loops and a
value ``pc`` of the collapsed iterator, the original indices are recovered
one by one, outermost first.  For index ``i_k`` the univariate equation

    r(i1, ..., i_{k-1}, x, lexmin_{k+1}, ..., lexmin_c) - pc = 0

is solved symbolically (degree <= 4, Section IV-B) and the *convenient* root
— the one whose floor reproduces the correct index — is selected by
validation on a sample instantiation, mirroring the paper's ``⌊x(1)⌋ = 0``
criterion.  The innermost index always appears linearly, so its recovery is
an exact polynomial expression (Section IV-A's final step).

Two robustness mechanisms extend the paper's scheme without changing it:

* a *guarded floor* (seed-then-correct): the floating-point evaluation of
  the closed-form root is only a **seed**.  The bracket property
  ``r(..., i_k, lexmins) <= pc < r(..., i_k + 1, lexmins)`` is re-checked in
  exact integer arithmetic — the bracket polynomial times its coefficient
  denominator LCM has integer coefficients, so ``r(x) <= pc`` becomes the
  exact comparison ``num(x) <= pc * den`` over Python big ints — and any
  float miss is corrected by an exact bisection over the window the seed
  check leaves open.  A correct seed costs two integer evaluations; a miss
  costs O(log error).  The recovery is therefore exact at *any* magnitude,
  with no float-trust cliff;
* an *exact bisection fallback* for levels whose equation degree exceeds 4
  (outside the paper's scope), whose symbolic root cannot be validated, or
  whose float seed is non-finite (degenerate branch, overflow).

Both run through :func:`exact_search`, the one scalar seed-then-correct
routine: :class:`UnrankingFunction` feeds it symbolic evaluations (it is the
exact reference the tests and the sweep compare against), and the batch
walk's endpoints (:mod:`repro.core.batch`) feed it compiled ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ir import LoopNest, enumerate_iterations
from ..polyhedra import AffineExpr
from ..symbolic import Expr, Polynomial, UnivariatePolynomial
from ..symbolic.solve import SolveError, solve_univariate_symbolic
from .ranking import RankingPolynomial

#: Tolerance added before flooring the real part of a closed-form root; the
#: exact bracket correction repairs any residual off-by-one.  This is the
#: single source of truth for every floor site — the scalar path here, the
#: batch path (``repro.core.batch``) and the C generator
#: (``repro.core.codegen_c``) import it, so the tolerance can never
#: desynchronize across backends.
FLOOR_EPSILON = 1e-9


class UnrankingError(ValueError):
    """Raised when no valid recovery can be constructed for some index."""


def float_seed(evaluate: Callable[[Mapping[str, object]], complex], assignment) -> Optional[int]:
    """``floor(Re(root))`` of a closed-form root, or ``None`` when it has none.

    ``evaluate`` is the root's symbolic or compiled evaluation.  A branch
    that degenerates (division by zero) or leaves the finite float range
    (``inf``/``nan`` floor to ``OverflowError``/``ValueError``) gives no
    seed, and the exact search then runs over the whole index range.
    """
    try:
        return math.floor(evaluate(assignment).real + FLOOR_EPSILON)
    except (ArithmeticError, ValueError):
        return None


def exact_search(
    bracket: Callable[[int], int],
    rank: int,
    lower: int,
    upper: int,
    seed: Optional[int] = None,
) -> int:
    """Largest ``x`` in ``[lower, upper]`` with ``bracket(x) <= rank``, exactly.

    The one seed-then-correct routine of every scalar recovery: ``bracket``
    is a level's denominator-cleared bracket numerator at ``x`` (an exact
    integer) and ``rank`` is ``pc`` times its denominator.  A ``seed`` (the
    floored float root) is validated against ``num(x) <= rank < num(x + 1)``
    and returned after two evaluations when right; on a miss the window the
    check leaves open is bisected, ``O(log error)`` evaluations.  Without a
    seed the whole range is bisected, and a range that is empty or starts
    above ``rank`` raises :class:`UnrankingError`.
    """
    lo, hi = lower, upper
    if seed is None:
        if lower > upper:
            raise UnrankingError(f"empty index range [{lower}, {upper}]")
        if bracket(lower) > rank:
            raise UnrankingError("the rank lies below the first index of the range")
    elif lower > upper:  # degenerate empty range: preserve the clamp
        return upper
    else:
        value = min(max(seed, lower), upper)
        if bracket(value) <= rank:
            if value >= upper or bracket(value + 1) > rank:
                return value
            lo = value  # seed too low: the true index lies in [value + 1, upper]
        else:
            hi = value - 1  # seed too high: the true index lies in [lower, value - 1]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if bracket(mid) <= rank:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class IndexRecovery:
    """How one original index is recovered from ``pc`` and the outer indices."""

    level: int
    iterator: str
    method: str                      # "symbolic", "linear" or "bisection"
    expression: Optional[Expr]       # closed-form root (None for bisection)
    bracket: Polynomial              # rank of the first iteration with prefix (i1..i_{k-1}, x)
    lower: AffineExpr                # loop lower bound (affine in outer iterators)
    upper: AffineExpr                # loop upper bound, exclusive
    degree: int
    #: denominator-cleared bracket: ``bracket == bracket_numerator / bracket_denominator``
    #: with integer coefficients only — ``r(x) <= pc`` is evaluated as the
    #: exact integer comparison ``bracket_numerator(x) <= pc * bracket_denominator``
    #: by every backend (derived in ``__post_init__``; both fields pickle with
    #: the dataclass, so engine workers never re-derive them)
    bracket_numerator: Optional[Polynomial] = None
    bracket_denominator: int = 0

    def __post_init__(self) -> None:
        if self.bracket_numerator is None:
            numerator, denominator = self.bracket.integer_form()
            object.__setattr__(self, "bracket_numerator", numerator)
            object.__setattr__(self, "bracket_denominator", denominator)

    def describe(self) -> str:
        if self.method == "bisection":
            return f"{self.iterator} = bisect(r - pc)  [degree {self.degree}]"
        return f"{self.iterator} = floor(Re({self.expression}))"


@dataclass(frozen=True)
class UnrankingFunction:
    """The complete index-recovery function of a collapsed loop nest."""

    nest: LoopNest
    depth: int
    ranking: RankingPolynomial
    recoveries: Tuple[IndexRecovery, ...]
    pc_name: str = "pc"

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def recover(self, pc: int, parameter_values: Mapping[str, int]) -> Tuple[int, ...]:
        """Original indices of the iteration of rank ``pc`` (1-based)."""
        if pc < 1:
            raise ValueError(f"pc must be >= 1, got {pc}")
        environment: Dict[str, int] = {name: int(v) for name, v in parameter_values.items()}
        indices: List[int] = []
        for recovery in self.recoveries:
            value = self._recover_level(recovery, pc, environment)
            environment[recovery.iterator] = value
            indices.append(value)
        return tuple(indices)

    def _recover_level(self, recovery: IndexRecovery, pc: int, environment: Dict[str, int]) -> int:
        lower = math.ceil(recovery.lower.evaluate(environment))
        upper = math.ceil(recovery.upper.evaluate(environment)) - 1  # inclusive
        seed = None
        if recovery.method != "bisection" and recovery.expression is not None:
            assignment = dict(environment)
            assignment[self.pc_name] = pc
            seed = float_seed(recovery.expression.evaluate, assignment)

        def bracket(x: int) -> int:
            assignment = dict(environment)
            assignment[recovery.iterator] = x
            return recovery.bracket_numerator.evaluate_int(assignment)

        try:
            return exact_search(bracket, pc * recovery.bracket_denominator, lower, upper, seed)
        except UnrankingError as error:
            raise UnrankingError(f"{error} for iterator {recovery.iterator!r} at pc={pc}") from None

    # ------------------------------------------------------------------ #
    # introspection / validation
    # ------------------------------------------------------------------ #
    def uses_only_closed_forms(self) -> bool:
        """True when every index has a closed-form (paper-style) recovery."""
        return all(r.method in ("symbolic", "linear") for r in self.recoveries)

    def validate(self, parameter_values: Mapping[str, int]) -> bool:
        """Full round-trip check: unrank(rank(it)) == it for every iteration."""
        for expected_rank, indices in enumerate(
            enumerate_iterations(self.nest, parameter_values, self.depth), start=1
        ):
            if self.recover(expected_rank, parameter_values) != indices:
                return False
        return True

    def describe(self) -> str:
        lines = [f"unranking of the {self.depth} outer loops of {self.nest.name!r}:"]
        lines.extend("  " + recovery.describe() for recovery in self.recoveries)
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# construction
# ---------------------------------------------------------------------- #
def _counts_are_consistent(ranking: RankingPolynomial, values: Mapping[str, int]) -> bool:
    """Does the ranking polynomial's total match the executed iteration count?"""
    try:
        counted = ranking.total_iterations(values)
    except ValueError:
        return False
    enumerated = sum(1 for _ in enumerate_iterations(ranking.nest, values, ranking.depth))
    return counted == enumerated


def _default_sample_parameters(ranking: RankingPolynomial) -> Dict[str, int]:
    """Pick parameter values that make the sample domain small but non-empty.

    Uniform assignments are tried first; if the domain stays empty or the
    model degenerates for them (e.g. a pivot parameter ``K`` that must stay
    smaller than the size ``N``, or a wavefront extent that must stay smaller
    than the data size), combinations of a few small candidate values are
    explored.  Candidates on which the ranking count disagrees with the
    executed count are rejected, so root selection always happens on a
    well-formed instantiation.
    """
    from itertools import product

    nest, depth = ranking.nest, ranking.depth
    parameters = list(nest.parameters)

    def is_usable(candidate: Dict[str, int]) -> bool:
        try:
            non_empty = next(iter(enumerate_iterations(nest, candidate, depth)), None) is not None
        except Exception:
            return False
        return non_empty and _counts_are_consistent(ranking, candidate)

    for size in (8, 10, 12, 16, 24):
        candidate = {name: size for name in parameters}
        if is_usable(candidate):
            return candidate
    candidates = (2, 3, 5, 8, 12, 0)
    for combination in product(candidates, repeat=len(parameters)):
        candidate = dict(zip(parameters, combination))
        if is_usable(candidate):
            return candidate
    raise UnrankingError(
        f"could not find sample parameter values giving a non-empty, non-degenerate domain for "
        f"{nest.name!r}; pass sample_parameters explicitly"
    )


def _select_root(
    roots: Sequence[Expr],
    ranking: RankingPolynomial,
    level: int,
    sample_parameters: Mapping[str, int],
    pc_name: str,
) -> Optional[Expr]:
    """Pick the root whose floor recovers the level's index on every sample iteration.

    This generalises the paper's criterion (evaluate the roots at ``pc = 1``
    and keep the one equal to the first index value) to a whole-domain check,
    which also weeds out roots that only coincide at the first iteration.
    """
    iterations = list(enumerate_iterations(ranking.nest, sample_parameters, ranking.depth))
    if not iterations:
        return None
    survivors = list(roots)
    for pc, indices in enumerate(iterations, start=1):
        if not survivors:
            break
        expected = indices[level]
        assignment = {name: int(v) for name, v in sample_parameters.items()}
        assignment.update(dict(zip(ranking.iterators[:level], indices[:level])))
        assignment[pc_name] = pc
        still_alive = []
        for root in survivors:
            try:
                value = root.evaluate(assignment)
            except ZeroDivisionError:
                continue
            if abs(value.imag) > 1e-6:
                continue
            if math.floor(value.real + FLOOR_EPSILON) == expected:
                still_alive.append(root)
        survivors = still_alive
    return survivors[0] if survivors else None


def build_unranking(
    ranking: RankingPolynomial,
    sample_parameters: Optional[Mapping[str, int]] = None,
    pc_name: str = "pc",
) -> UnrankingFunction:
    """Construct the index-recovery function for a ranking polynomial.

    ``sample_parameters`` are the concrete sizes used to select the
    convenient symbolic root (and to cross-check it); they default to a small
    non-empty instantiation.  A level whose equation degree exceeds 4 or
    whose symbolic root cannot be validated — where the paper's method
    stops — is recovered by exact bisection (``method == "bisection"``).
    """
    nest = ranking.nest
    depth = ranking.depth
    if pc_name in nest.iterators or pc_name in nest.parameters:
        raise UnrankingError(
            f"the collapsed iterator name {pc_name!r} clashes with the nest's symbols; "
            "pass a different pc_name"
        )
    sample = dict(sample_parameters) if sample_parameters is not None else _default_sample_parameters(ranking)

    # The Ehrhart/ranking construction (like the paper's) assumes every loop of
    # the nest keeps a non-negative range throughout the domain; nests
    # violating that (an inner range whose closed-form length goes negative
    # for some outer indices) would yield a wrong trip count.  Detect it on
    # the sample instantiation — and on a scaled-up copy of it, since the
    # degeneracy often only appears at larger sizes — and fail loudly instead
    # of mis-iterating.
    for values in (sample, {name: value + 5 for name, value in sample.items()}):
        if sum(1 for _ in enumerate_iterations(nest, values, depth)) == 0:
            continue
        if not _counts_are_consistent(ranking, values):
            raise UnrankingError(
                f"the ranking polynomial of {nest.name!r} does not count the executed iterations "
                f"for {values}; some inner loop range becomes negative inside the domain, which "
                "the affine loop model of Fig. 5 (and this collapser) does not support"
            )

    bounds = nest.bounds()[:depth]
    recoveries: List[IndexRecovery] = []
    for level, (iterator, lower, upper) in enumerate(bounds):
        bracket = ranking.partial_rank_polynomial(level + 1)
        equation = bracket - Polynomial.variable(pc_name)
        univariate = UnivariatePolynomial.from_polynomial(equation, iterator)
        degree = univariate.degree

        expression: Optional[Expr] = None
        method = "bisection"
        if degree == 1:
            method = "linear"
        elif degree <= 4:
            method = "symbolic"

        if method != "bisection":
            try:
                roots = solve_univariate_symbolic(univariate)
            except SolveError:
                roots = []
            expression = _select_root(roots, ranking, level, sample, pc_name)
            if expression is None:
                method = "bisection"

        recoveries.append(
            IndexRecovery(
                level=level,
                iterator=iterator,
                method=method,
                expression=expression,
                bracket=bracket,
                lower=lower,
                upper=upper,
                degree=degree,
            )
        )

    return UnrankingFunction(
        nest=nest,
        depth=depth,
        ranking=ranking,
        recoveries=tuple(recoveries),
        pc_name=pc_name,
    )
