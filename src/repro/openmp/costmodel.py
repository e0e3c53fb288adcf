"""Cost models: how long an iteration of the parallel loop takes.

The simulated-time executor needs, for every iteration of the parallel loop
(an outer-loop iteration of the original nest, or one ``pc`` of the
collapsed loop), the amount of work it performs.  For the kernels of the
paper this is simply the number of iterations of the loops *below* the
parallel level, times a per-innermost-iteration unit cost — exactly the
quantity our Ehrhart machinery computes symbolically.

:class:`RecoveryCosts` collects the constant costs of the collapsing
machinery and of the OpenMP runtime that the experiments reason about:

* ``costly_recovery`` — one evaluation of the closed-form roots
  (square/cube roots, floors, complex arithmetic; Section V calls this the
  costly recovery),
* ``increment`` — the *extra* control cost of one collapsed iteration
  compared with the original loop's own index increment (the generated
  Fig. 4 incrementation re-evaluates affine bounds, the original loop does
  not); this is what makes Fig. 10's overhead visible when every collapsed
  iteration is a single statement,
* ``dynamic_dispatch`` — the runtime cost a thread pays to grab the next
  chunk under ``schedule(dynamic)``,
* ``unit_work`` — the cost of one innermost-statement execution, the scale
  against which everything else is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence

from ..ir import LoopNest
from ..polyhedra.counting import loop_nest_count
from ..symbolic import Polynomial


@dataclass(frozen=True)
class RecoveryCosts:
    """Constant costs (in arbitrary time units; ``unit_work`` sets the scale)."""

    unit_work: float = 1.0
    costly_recovery: float = 40.0
    increment: float = 0.15
    dynamic_dispatch: float = 25.0
    parallel_startup: float = 0.0

    def scaled(self, factor: float) -> "RecoveryCosts":
        """A copy with every overhead multiplied by ``factor`` (ablation helper)."""
        return RecoveryCosts(
            unit_work=self.unit_work,
            costly_recovery=self.costly_recovery * factor,
            increment=self.increment * factor,
            dynamic_dispatch=self.dynamic_dispatch * factor,
            parallel_startup=self.parallel_startup * factor,
        )


class CostModel:
    """Per-iteration work of a nest, below a given parallel/collapse level.

    ``work_below(level)`` is the symbolic number of innermost iterations
    executed for one fixed assignment of the first ``level`` iterators — the
    Ehrhart polynomial of the remaining sub-nest.  Evaluated numerically it
    gives the weight of one parallel-loop iteration, which is what produces
    the triangular load imbalance of Fig. 2.
    """

    def __init__(self, nest: LoopNest, costs: Optional[RecoveryCosts] = None):
        self.nest = nest
        self.costs = costs or RecoveryCosts()
        self._work_cache: Dict[int, Polynomial] = {}

    # ------------------------------------------------------------------ #
    # symbolic views
    # ------------------------------------------------------------------ #
    def work_below(self, level: int) -> Polynomial:
        """Inner-iteration count below ``level`` (0 <= level <= depth).

        ``level = 0`` gives the whole nest's trip count; ``level = depth``
        gives the constant 1 (the statement itself).
        """
        if not 0 <= level <= self.nest.depth:
            raise ValueError(f"level must be in 0..{self.nest.depth}")
        if level not in self._work_cache:
            remaining = self.nest.bounds()[level:]
            self._work_cache[level] = (
                loop_nest_count(remaining) if remaining else Polynomial.constant(1)
            )
        return self._work_cache[level]

    # ------------------------------------------------------------------ #
    # numeric views
    # ------------------------------------------------------------------ #
    def _evaluate(self, polynomial: Polynomial, assignment: Mapping[str, int]) -> float:
        value = polynomial.evaluate(assignment)
        if isinstance(value, Fraction):
            value = float(value)
        return max(0.0, float(value))

    def iteration_work(
        self,
        indices: Sequence[int],
        parameter_values: Mapping[str, int],
        level: Optional[int] = None,
    ) -> float:
        """Work (inner iterations x unit cost) of one parallel-loop iteration.

        ``indices`` are the values of the first ``level`` iterators (default:
        as many as provided).
        """
        level = len(indices) if level is None else level
        assignment: Dict[str, int] = {name: int(v) for name, v in parameter_values.items()}
        assignment.update({name: int(v) for name, v in zip(self.nest.iterators, indices)})
        inner = self._evaluate(self.work_below(level), assignment)
        return inner * self.costs.unit_work

    def total_work(self, parameter_values: Mapping[str, int]) -> float:
        """Work of the entire nest (the lower bound any schedule must reach)."""
        return self._evaluate(self.work_below(0), parameter_values) * self.costs.unit_work

    def compile_work(self, level: int, parameter_values: Mapping[str, int]):
        """Compile ``work_below(level)`` into a fast numeric callable.

        The returned function takes the first ``level`` iterator values as
        positional arguments and returns the work of that parallel-loop
        iteration.  The simulator calls it once per iteration, so the
        polynomial is turned into plain Python arithmetic instead of being
        re-evaluated through exact rational arithmetic every time.
        """
        polynomial = self.work_below(level).evaluate_partial(dict(parameter_values))
        iterators = ", ".join(self.nest.iterators[:level]) or "_ignored=0"
        source = (
            f"def _work({iterators}):\n"
            f"    return max(0.0, float({polynomial.to_python_source()})) * {float(self.costs.unit_work)!r}\n"
        )
        namespace: Dict[str, object] = {}
        exec(compile(source, "<costmodel>", "exec"), namespace)
        return namespace["_work"]
