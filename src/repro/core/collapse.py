"""The end-to-end collapse transformation.

``collapse(nest, depth)`` bundles the whole pipeline of the paper:

1. check the preconditions (perfect nest with affine bounds — enforced by
   the IR — and, optionally, absence of carried dependences on the levels
   being collapsed),
2. build the ranking Ehrhart polynomial of the ``depth`` outer loops
   (Section III),
3. invert it into per-index recovery expressions (Section IV),
4. wrap everything into a :class:`CollapsedLoop`, the object the schedulers,
   code generators and executors consume.

The resulting single loop runs ``pc = 1 .. total`` and recovers
``(i1, ..., ic)`` from ``pc``; its iteration order is exactly the original
lexicographic order, which is what makes the transformation transparent to
the loop body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..ir import LoopNest, enumerate_iterations, may_carry_dependence
from ..symbolic import Polynomial
from .ranking import RankingPolynomial, ranking_polynomial
from .unranking import UnrankingFunction, build_unranking


class CollapseError(ValueError):
    """Raised when a nest cannot be collapsed at the requested depth."""


@dataclass(frozen=True)
class CollapsedLoop:
    """A collapsed (flattened) view of the ``depth`` outer loops of ``nest``."""

    nest: LoopNest
    depth: int
    ranking: RankingPolynomial
    unranking: UnrankingFunction
    pc_name: str = "pc"

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def iterators(self) -> Tuple[str, ...]:
        return self.nest.iterators[: self.depth]

    @property
    def total_polynomial(self) -> Polynomial:
        """Symbolic trip count of the collapsed loop (upper bound of ``pc``)."""
        return self.ranking.total

    def total_iterations(self, parameter_values: Mapping[str, int]) -> int:
        return self.ranking.total_iterations(parameter_values)

    def uses_only_closed_forms(self) -> bool:
        """True when every recovered index uses a paper-style closed form."""
        return self.unranking.uses_only_closed_forms()

    # ------------------------------------------------------------------ #
    # execution-order views
    # ------------------------------------------------------------------ #
    def recover_indices(self, pc: int, parameter_values: Mapping[str, int]) -> Tuple[int, ...]:
        """Original indices of the collapsed iteration ``pc`` (1-based)."""
        return self.unranking.recover(pc, parameter_values)

    def rank_of(self, indices, parameter_values: Mapping[str, int]) -> int:
        """Rank of an original iteration — the inverse of :meth:`recover_indices`."""
        return self.ranking.rank(indices, parameter_values)

    def iterations(self, parameter_values: Mapping[str, int]) -> Iterator[Tuple[int, ...]]:
        """Iterate the collapsed loop, recovering the indices at every ``pc``.

        This is the "costly recovery at every iteration" execution scheme
        (Fig. 3); the chunked schemes of Section V live in
        :mod:`repro.core.recovery`.
        """
        total = self.total_iterations(parameter_values)
        for pc in range(1, total + 1):
            yield self.recover_indices(pc, parameter_values)

    def validate(self, parameter_values: Mapping[str, int]) -> bool:
        """Semantic check: the collapsed order equals the original order."""
        original = list(enumerate_iterations(self.nest, parameter_values, self.depth))
        collapsed = list(self.iterations(parameter_values))
        return original == collapsed

    def describe(self) -> str:
        lines = [
            f"collapse of the {self.depth} outer loops of {self.nest.name!r}",
            f"  trip count: {self.total_polynomial}",
            f"  ranking   : {self.ranking.polynomial}",
        ]
        for recovery in self.unranking.recoveries:
            lines.append(f"  {recovery.describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# memo cache
# ---------------------------------------------------------------------- #
# Building a CollapsedLoop is expensive (Faulhaber summation, symbolic root
# solving, sample-domain root selection), yet kernels, executors and
# benchmarks repeatedly collapse the *same* nest.  The cache is keyed by the
# structural identity of the nest plus every argument that influences the
# construction, so a hit returns the exact object an uncached call would
# have produced — and, through repro.core.batch's own memo, its compiled
# recoveries too.
_COLLAPSE_CACHE: Dict[tuple, CollapsedLoop] = {}
_COLLAPSE_CACHE_LIMIT = 256


def _collapse_cache_key(
    nest: LoopNest,
    depth: int,
    check_dependences: bool,
    sample_parameters: Optional[Mapping[str, int]],
    pc_name: str,
) -> tuple:
    return (
        nest.name,
        tuple((loop.iterator, loop.lower, loop.upper, loop.parallel) for loop in nest.loops),
        nest.statements,
        nest.parameters,
        depth,
        check_dependences,
        tuple(sorted(sample_parameters.items())) if sample_parameters is not None else None,
        pc_name,
    )


def clear_collapse_cache() -> None:
    """Drop every memoised :class:`CollapsedLoop` (mainly for tests)."""
    _COLLAPSE_CACHE.clear()


def collapse_cache_info() -> Dict[str, int]:
    """Size of the ``collapse()`` memo cache, for introspection and tests."""
    return {"entries": len(_COLLAPSE_CACHE), "limit": _COLLAPSE_CACHE_LIMIT}


def collapse(
    nest: LoopNest,
    depth: Optional[int] = None,
    *,
    check_dependences: bool = False,
    sample_parameters: Optional[Mapping[str, int]] = None,
    pc_name: str = "pc",
) -> CollapsedLoop:
    """Collapse the ``depth`` outermost loops of ``nest`` into a single loop.

    Parameters
    ----------
    nest:
        The perfect affine loop nest (Fig. 5 model).
    depth:
        Number of outer loops to collapse; defaults to the whole nest.  This
        is the argument of the OpenMP ``collapse(n)`` clause the paper
        extends to non-rectangular loops.
    check_dependences:
        When ``True``, run the polyhedral dependence test on the collapsed
        levels and refuse to collapse if a carried dependence may exist.
        (The paper relies on the parallelising compiler for this check.)
    sample_parameters:
        Concrete sizes used to select/validate the convenient symbolic roots.

    Results are memoised per (bounds, statements, parameters, options), which
    is what lets hot paths call ``collapse`` freely;
    :func:`clear_collapse_cache` forces a fresh construction.
    """
    depth = nest.depth if depth is None else depth
    if not 1 <= depth <= nest.depth:
        raise CollapseError(f"collapse depth must be in 1..{nest.depth}, got {depth}")
    cache_key = _collapse_cache_key(nest, depth, check_dependences, sample_parameters, pc_name)
    cached = _COLLAPSE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    if check_dependences and may_carry_dependence(nest, depth):
        raise CollapseError(
            f"the {depth} outer loops of {nest.name!r} may carry a data dependence; "
            "collapsing them would not preserve the program's semantics"
        )
    ranking = ranking_polynomial(nest, depth)
    unranking = build_unranking(
        ranking,
        sample_parameters=sample_parameters,
        pc_name=pc_name,
    )
    collapsed = CollapsedLoop(
        nest=nest, depth=depth, ranking=ranking, unranking=unranking, pc_name=pc_name
    )
    if len(_COLLAPSE_CACHE) >= _COLLAPSE_CACHE_LIMIT:
        _COLLAPSE_CACHE.pop(next(iter(_COLLAPSE_CACHE)))
    _COLLAPSE_CACHE[cache_key] = collapsed
    return collapsed
