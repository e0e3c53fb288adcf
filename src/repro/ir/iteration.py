"""Concrete iteration of loop nests: enumeration and odometer incrementation.

Two pieces of machinery live here:

* :func:`enumerate_iterations` — execute the nest's control flow for
  concrete parameter values, yielding index tuples in the original
  lexicographic order.  It is the ground truth every collapsed loop is
  validated against.
* :class:`Odometer` — the "standard indices incrementation of the original
  loop nest" that Section V uses to avoid re-evaluating the costly radical
  recovery at every iteration: given the current index tuple, produce the
  next one by bumping the innermost iterator and carrying into outer loops
  when bounds are exhausted.

Bounds are evaluated in integer arithmetic.  At construction the odometer
turns each loop bound into its denominator-cleared form
(:class:`~repro.polyhedra.affine.ClearedAffine`), folds the fixed parameter
values into the constant and keys the remaining terms by the position of
their outer iterator, so a bound at a concrete prefix is
``ceil((constant + sum coeff * index) / den)``: a few integer
multiply-adds and, for a rational bound, one floor division
(``ceil(n / d) == -((-n) // d)`` for ``d > 0``, exact for negative
numerators too).  No ``Fraction`` is built per iteration.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from ..polyhedra import ClearedAffine
from .loopnest import LoopNest


class Odometer:
    """Stateless incrementation of index tuples for a (possibly partial) nest.

    ``depth`` restricts the odometer to the outermost ``depth`` loops — the
    collapsed sub-nest — which is what the reduced-overhead recovery of
    Section V increments.
    """

    def __init__(self, nest: LoopNest, parameter_values: Mapping[str, int], depth: Optional[int] = None):
        self.nest = nest
        self.depth = nest.depth if depth is None else depth
        if not 1 <= self.depth <= nest.depth:
            raise ValueError(f"depth must be in 1..{nest.depth}")
        self.parameter_values = {name: int(value) for name, value in parameter_values.items()}
        missing = set(nest.parameters) - set(self.parameter_values)
        if missing:
            raise ValueError(f"missing parameter values {sorted(missing)}")
        def cleared(bound) -> ClearedAffine:
            return ClearedAffine.of(bound).indexed(nest.iterators, self.parameter_values)

        self._lower = [cleared(loop.lower) for loop in nest.loops]
        self._upper = [cleared(loop.upper) for loop in nest.loops]

    # ------------------------------------------------------------------ #
    # bounds of one loop for a concrete prefix
    # ------------------------------------------------------------------ #
    def lower_bound(self, level: int, indices: Sequence[int]) -> int:
        """Concrete (ceiled) lower bound of loop ``level`` given outer indices."""
        return self._lower[level].ceil(indices)

    def upper_bound(self, level: int, indices: Sequence[int]) -> int:
        """Concrete *exclusive* (ceiled) upper bound of loop ``level``."""
        return self._upper[level].ceil(indices)

    # ------------------------------------------------------------------ #
    # odometer operations
    # ------------------------------------------------------------------ #
    def first(self) -> Optional[Tuple[int, ...]]:
        """The lexicographically first iteration of the sub-nest (or ``None``)."""
        indices: List[int] = []
        for level in range(self.depth):
            low = self.lower_bound(level, indices)
            high = self.upper_bound(level, indices)
            if low >= high:
                return self._advance_prefix(indices)
            indices.append(low)
        return tuple(indices)

    def _advance_prefix(self, indices: List[int]) -> Optional[Tuple[int, ...]]:
        """Find the next valid iteration after an empty inner loop was met."""
        while indices:
            level = len(indices) - 1
            candidate = list(indices[:level]) + [indices[level] + 1]
            if candidate[level] < self.upper_bound(level, candidate):
                completion = self._complete(candidate)
                if completion is not None:
                    return completion
            indices = indices[:level]
        return None

    def _complete(self, prefix: List[int]) -> Optional[Tuple[int, ...]]:
        """Extend a valid prefix with the lexicographic minimum of deeper loops."""
        indices = list(prefix)
        for level in range(len(prefix), self.depth):
            low = self.lower_bound(level, indices)
            high = self.upper_bound(level, indices)
            if low >= high:
                return self._advance_prefix(indices)
            indices.append(low)
        return tuple(indices)

    def increment(self, indices: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """The iteration immediately following ``indices`` (or ``None`` at the end).

        This mirrors the generated-code incrementation of Fig. 4:
        ``j++; if (j >= N) { i++; j = i+1; }`` generalised to any depth and
        to bounds that are affine in the outer iterators.
        """
        if len(indices) != self.depth:
            raise ValueError(f"expected {self.depth} indices, got {len(indices)}")
        current = list(indices)
        level = self.depth - 1
        while level >= 0:
            current[level] += 1
            if current[level] < self.upper_bound(level, current):
                completion = self._complete(current[: level + 1])
                if completion is not None:
                    return completion
            current = current[:level]
            level -= 1
        return None

    def advance(self, indices: Sequence[int], steps: int) -> Optional[Tuple[int, ...]]:
        """Apply :meth:`increment` ``steps`` times (the GPU warp-stride pattern)."""
        current: Optional[Tuple[int, ...]] = tuple(indices)
        for _ in range(steps):
            if current is None:
                return None
            current = self.increment(current)
        return current


def enumerate_iterations(
    nest: LoopNest,
    parameter_values: Mapping[str, int],
    depth: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield the index tuples of the ``depth`` outermost loops in execution order."""
    odometer = Odometer(nest, parameter_values, depth)
    current = odometer.first()
    while current is not None:
        yield current
        current = odometer.increment(current)


def iteration_count(nest: LoopNest, parameter_values: Mapping[str, int], depth: Optional[int] = None) -> int:
    """Concrete number of iterations executed by the ``depth`` outermost loops."""
    return sum(1 for _ in enumerate_iterations(nest, parameter_values, depth))
