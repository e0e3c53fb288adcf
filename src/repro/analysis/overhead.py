"""The control-overhead experiment of Fig. 10.

The paper compares two *serial* executions of each kernel: the original
nest, and the transformed (collapsed) nest in which the costly root
evaluations are performed 12 times — as they would be for 12 threads — and
every other iteration recovers its indices through the incrementation code.
The reported percentage is the extra control time of the transformed code.

In the simulated cost model this overhead has two parts:

* ``recoveries x costly_recovery`` — the 12 closed-form evaluations,
* ``collapsed_iterations x increment_penalty`` — the (small) extra cost of
  the generated incrementation and bound re-evaluation compared with the
  original loop control.

The relative overhead is therefore tiny when the collapsed loops surround a
deep compute loop (correlation, trmm, ...), and visibly larger when *all*
loops of the nest are collapsed so that every single statement instance pays
the extra control (covariance, symm in the paper's Fig. 10) — the same shape
the paper observes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from ..core import CollapsedLoop, batch_recovery
from ..ir import iteration_count
from ..openmp.costmodel import CostModel, RecoveryCosts


@dataclass(frozen=True)
class OverheadRow:
    """One bar of Fig. 10."""

    program: str
    serial_original: float
    serial_transformed: float
    recoveries: int

    @property
    def overhead(self) -> float:
        """Relative control overhead of the transformed serial code."""
        return (self.serial_transformed - self.serial_original) / self.serial_original


def recovery_overhead(
    collapsed: CollapsedLoop,
    parameter_values: Mapping[str, int],
    recoveries: int = 12,
    cost_model: Optional[CostModel] = None,
    increment_penalty: float = 0.02,
) -> OverheadRow:
    """Simulated Fig. 10 measurement for one collapsed kernel.

    ``recoveries`` is the number of costly root evaluations (12 in the paper,
    one per thread); ``increment_penalty`` is the extra cost, in units of
    ``unit_work``, of the generated incrementation relative to the original
    loop control, paid once per collapsed iteration.
    """
    cost_model = cost_model or CostModel(collapsed.nest)
    costs: RecoveryCosts = cost_model.costs
    total_work = cost_model.total_work(parameter_values)
    collapsed_iterations = iteration_count(collapsed.nest, parameter_values, collapsed.depth)

    serial_original = total_work
    serial_transformed = (
        total_work
        + recoveries * costs.costly_recovery
        + collapsed_iterations * increment_penalty * costs.unit_work
    )
    return OverheadRow(
        program=collapsed.nest.name,
        serial_original=serial_original,
        serial_transformed=serial_transformed,
        recoveries=recoveries,
    )


@dataclass(frozen=True)
class MeasuredRecovery:
    """Wall-clock throughput of one recovery back end over a collapsed loop.

    Where :func:`recovery_overhead` reports the paper's *simulated* Fig. 10
    quantity, this row reports what the Python reproduction actually pays to
    recover indices — the cost the compiled batch path exists to remove.
    """

    program: str
    recovery: str          # "symbolic" (per-pc closed forms) or "compiled" (batch)
    iterations: int
    elapsed_seconds: float

    @property
    def iterations_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.iterations / self.elapsed_seconds


def measure_recovery_throughput(
    collapsed: CollapsedLoop,
    parameter_values: Mapping[str, int],
    recovery: str = "compiled",
    repeat: int = 1,
) -> MeasuredRecovery:
    """Time the recovery of *every* index of the collapsed loop.

    ``recovery="symbolic"`` evaluates the closed-form roots once per ``pc``
    (the Fig. 3 cost the overhead experiment is about); ``"compiled"`` runs
    the vectorized solver of :mod:`repro.core.batch`
    (:meth:`~repro.core.batch.BatchRecovery.recover_pcs`) on every ``pc`` of
    the range — the same per-``pc`` root evaluation and exact bracket pass,
    not the range walk, which evaluates no root.  The best of ``repeat``
    runs is reported.  Both back ends produce identical indices, so the
    ratio of two measurements is a pure solver speedup.
    """
    total = collapsed.total_iterations(parameter_values)
    if recovery == "compiled":
        recoverer = batch_recovery(collapsed)
        pcs = np.arange(1, total + 1, dtype=np.int64)

        def run() -> None:
            recoverer.recover_pcs(pcs, parameter_values)

    elif recovery == "symbolic":

        def run() -> None:
            for pc in range(1, total + 1):
                collapsed.recover_indices(pc, parameter_values)

    else:
        raise ValueError(
            f"unknown recovery {recovery!r}; expected 'symbolic' or 'compiled'"
        )

    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return MeasuredRecovery(
        program=collapsed.nest.name,
        recovery=recovery,
        iterations=total,
        elapsed_seconds=best,
    )
