"""Index-recovery strategies and their cost accounting (Section V).

Recovering the original indices from ``pc`` through the closed-form roots
involves square/cube roots, floors and floating-point (complex) arithmetic,
which would be paid at *every* iteration if done naively (Fig. 3).  The
paper's remedy (Fig. 4 and Section V) is to pay the costly recovery only
once per thread — or once per chunk of the OpenMP schedule — and to obtain
the following indices by replaying the original loop-nest incrementation
(the :class:`~repro.ir.iteration.Odometer`).

This module implements both strategies over a :class:`CollapsedLoop` and
counts how many costly recoveries / cheap increments each one performs.
Those counters feed the Figure 10 overhead experiment and the recovery
ablation benchmark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Optional, Tuple

from ..ir import Odometer
from .collapse import CollapsedLoop

class RecoveryStrategy(enum.Enum):
    """How the original indices are obtained inside one chunk of iterations."""

    #: Evaluate the closed-form roots at every iteration (Fig. 3).
    PER_ITERATION = "per_iteration"
    #: Evaluate them once at the first iteration of the chunk, then increment
    #: like the original loop nest (Fig. 4 / Section V).
    FIRST_THEN_INCREMENT = "first_then_increment"


@dataclass
class RecoveryStats:
    """Cost counters accumulated while walking chunks of a collapsed loop."""

    costly_recoveries: int = 0
    increments: int = 0
    iterations: int = 0

    def merge(self, other: "RecoveryStats") -> "RecoveryStats":
        return RecoveryStats(
            costly_recoveries=self.costly_recoveries + other.costly_recoveries,
            increments=self.increments + other.increments,
            iterations=self.iterations + other.iterations,
        )


def recover_range(
    collapsed: CollapsedLoop,
    first_pc: int,
    last_pc: int,
    parameter_values: Mapping[str, int],
    strategy: RecoveryStrategy = RecoveryStrategy.FIRST_THEN_INCREMENT,
    stats: Optional[RecoveryStats] = None,
) -> List[Tuple[int, ...]]:
    """Materialise the index tuples of the collapsed iterations ``first_pc..last_pc``."""
    return list(
        iterate_chunk(collapsed, first_pc, last_pc, parameter_values, strategy, stats)
    )


def iterate_chunk(
    collapsed: CollapsedLoop,
    first_pc: int,
    last_pc: int,
    parameter_values: Mapping[str, int],
    strategy: RecoveryStrategy = RecoveryStrategy.FIRST_THEN_INCREMENT,
    stats: Optional[RecoveryStats] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield the original index tuples for the chunk ``[first_pc, last_pc]``.

    ``first_pc``/``last_pc`` are 1-based and inclusive, exactly the bounds a
    static OpenMP schedule hands to one thread.  With
    :attr:`RecoveryStrategy.FIRST_THEN_INCREMENT` only the first iteration of
    the chunk performs the costly closed-form recovery; every following
    iteration is obtained with the odometer incrementation, which is the
    scheme of Fig. 4.
    """
    if last_pc < first_pc:
        return
    stats = stats if stats is not None else RecoveryStats()

    if strategy is RecoveryStrategy.PER_ITERATION:
        for pc in range(first_pc, last_pc + 1):
            stats.costly_recoveries += 1
            stats.iterations += 1
            yield collapsed.recover_indices(pc, parameter_values)
        return

    odometer = Odometer(collapsed.nest, parameter_values, collapsed.depth)
    current = collapsed.recover_indices(first_pc, parameter_values)
    stats.costly_recoveries += 1
    stats.iterations += 1
    yield current
    for _ in range(first_pc + 1, last_pc + 1):
        following = odometer.increment(current)
        if following is None:
            raise ValueError(
                f"chunk [{first_pc}, {last_pc}] runs past the end of the collapsed loop"
            )
        stats.increments += 1
        stats.iterations += 1
        current = following
        yield current
