"""Deterministic simulated-time execution of OpenMP schedules.

The simulator reproduces the *scheduling* behaviour the paper measures
without needing real threads (which the GIL would serialise anyway):

* every iteration of the parallel loop has a work amount given by the
  :class:`~repro.openmp.costmodel.CostModel` (the trip count of the loops
  below the parallel level),
* a schedule assigns chunks of those iterations to threads — statically, or
  greedily ("whoever is idle first") for dynamic/guided schedules, which is
  how an OpenMP runtime behaves,
* overheads are charged where the real runtime pays them: one costly index
  recovery per chunk of a collapsed loop, one odometer increment per
  additional collapsed iteration, one dispatch per dynamically acquired
  chunk.

The result records per-thread busy times, from which the makespan, the load
imbalance of Fig. 2 and the gains of Fig. 9 are derived.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import CollapsedLoop, RecoveryStrategy
from ..ir import LoopNest, enumerate_iterations
from .costmodel import CostModel, RecoveryCosts
from .schedule import Chunk, ScheduleKind, ScheduleSpec, schedule_chunks


@dataclass
class ThreadTimeline:
    """What one simulated thread did: how long it was busy and on what."""

    thread: int
    busy_time: float = 0.0
    work_time: float = 0.0
    overhead_time: float = 0.0
    iterations: int = 0
    chunks: int = 0


@dataclass
class SimulationResult:
    """Outcome of one simulated parallel execution."""

    description: str
    threads: int
    timelines: List[ThreadTimeline]
    serial_time: float

    @property
    def makespan(self) -> float:
        """The simulated parallel execution time (the slowest thread)."""
        return max((t.busy_time for t in self.timelines), default=0.0)

    @property
    def total_busy(self) -> float:
        return sum(t.busy_time for t in self.timelines)

    @property
    def total_overhead(self) -> float:
        return sum(t.overhead_time for t in self.timelines)

    @property
    def load_imbalance(self) -> float:
        """Makespan divided by the mean busy time (1.0 = perfectly balanced)."""
        active = [t.busy_time for t in self.timelines if t.busy_time > 0]
        if not active:
            return 1.0
        mean = sum(active) / len(self.timelines)
        return self.makespan / mean if mean else 1.0

    @property
    def speedup(self) -> float:
        """Speed-up of the simulated parallel run over the serial execution."""
        return self.serial_time / self.makespan if self.makespan else float("inf")

    def iterations_per_thread(self) -> List[int]:
        return [t.iterations for t in self.timelines]

    def busy_times(self) -> List[float]:
        return [t.busy_time for t in self.timelines]


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _greedy_assign(
    chunk_costs: Sequence[Tuple[Chunk, float, float]],
    threads: int,
) -> List[ThreadTimeline]:
    """Assign chunks to the earliest-available thread (dynamic/guided schedules).

    ``chunk_costs`` lists ``(chunk, work, overhead)`` in hand-out order; the
    overhead (dispatch + recovery) is charged to the acquiring thread.
    """
    timelines = [ThreadTimeline(thread=t) for t in range(threads)]
    heap = [(0.0, t) for t in range(threads)]
    heapq.heapify(heap)
    for chunk, work, overhead in chunk_costs:
        available, thread = heapq.heappop(heap)
        timeline = timelines[thread]
        timeline.busy_time = available + work + overhead
        timeline.work_time += work
        timeline.overhead_time += overhead
        timeline.iterations += chunk.size
        timeline.chunks += 1
        heapq.heappush(heap, (timeline.busy_time, thread))
    return timelines


def _static_assign(
    chunk_costs: Sequence[Tuple[Chunk, float, float]],
    threads: int,
) -> List[ThreadTimeline]:
    """Accumulate pre-assigned chunks on their threads (static schedules)."""
    timelines = [ThreadTimeline(thread=t) for t in range(threads)]
    for chunk, work, overhead in chunk_costs:
        if chunk.thread is None:
            raise ValueError("static assignment requires chunks with a thread")
        timeline = timelines[chunk.thread]
        timeline.busy_time += work + overhead
        timeline.work_time += work
        timeline.overhead_time += overhead
        timeline.iterations += chunk.size
        timeline.chunks += 1
    return timelines


def _make_chunks(
    kind: ScheduleKind, total: int, threads: int, chunk_size: Optional[int]
) -> Tuple[List[Chunk], bool]:
    """Build the chunk list; returns (chunks, dynamically_assigned).

    Chunks that carry no pre-assigned thread (dynamic, guided) are handed
    out on demand.
    """
    chunks = schedule_chunks(ScheduleSpec(kind, chunk_size or None), total, threads)
    return chunks, any(chunk.thread is None for chunk in chunks)


# ---------------------------------------------------------------------- #
# original nest, parallelised on its outermost loop
# ---------------------------------------------------------------------- #
def simulate_outer_parallel(
    nest: LoopNest,
    parameter_values: Mapping[str, int],
    threads: int,
    schedule: ScheduleKind = ScheduleKind.STATIC,
    chunk_size: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    work_function: Optional[callable] = None,
) -> SimulationResult:
    """Simulate ``#pragma omp parallel for schedule(...)`` on the outermost loop.

    This is the baseline of the paper's experiments: the outer loop's
    iterations (whose individual costs differ wildly on non-rectangular
    domains) are distributed according to ``schedule``.

    ``work_function`` optionally overrides the cost model with a callable
    taking the outer iterator value and returning its work (used by the
    tiled kernels, whose per-tile work is not a polynomial of the tile
    indices).
    """
    cost_model = cost_model or CostModel(nest)
    costs = cost_model.costs
    work_of = work_function or cost_model.compile_work(1, parameter_values)
    outer_values = [indices[0] for indices in enumerate_iterations(nest, parameter_values, depth=1)]
    total = len(outer_values)
    serial_time = sum(work_of(value) for value in outer_values)

    chunks, dynamic = _make_chunks(schedule, total, threads, chunk_size)
    chunk_costs: List[Tuple[Chunk, float, float]] = []
    for chunk in chunks:
        work = sum(work_of(outer_values[index]) for index in range(chunk.first - 1, chunk.last))
        overhead = costs.dynamic_dispatch if dynamic else 0.0
        chunk_costs.append((chunk, work, overhead))

    timelines = _greedy_assign(chunk_costs, threads) if dynamic else _static_assign(chunk_costs, threads)
    label = schedule.value + (f",{chunk_size}" if chunk_size else "")
    return SimulationResult(
        description=f"{nest.name}: outer loop, schedule({label}), {threads} threads",
        threads=threads,
        timelines=timelines,
        serial_time=serial_time,
    )


# ---------------------------------------------------------------------- #
# collapsed loop
# ---------------------------------------------------------------------- #
def simulate_collapsed_static(
    collapsed: CollapsedLoop,
    parameter_values: Mapping[str, int],
    threads: int,
    schedule: ScheduleKind = ScheduleKind.STATIC,
    chunk_size: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
    recovery: RecoveryStrategy = RecoveryStrategy.FIRST_THEN_INCREMENT,
    work_function: Optional[callable] = None,
) -> SimulationResult:
    """Simulate the collapsed ``pc`` loop under an OpenMP schedule.

    Every collapsed iteration's work is the trip count of the loops below the
    collapse depth; the recovery overhead is charged according to Section V:
    one costly recovery per chunk plus one odometer increment per further
    iteration (or one costly recovery per iteration with
    ``RecoveryStrategy.PER_ITERATION``, the Fig. 3 scheme).

    ``work_function`` optionally overrides the cost model with a callable
    taking the collapsed iterators as positional arguments (used by the tiled
    kernels).
    """
    nest = collapsed.nest
    cost_model = cost_model or CostModel(nest)
    costs = cost_model.costs
    depth = collapsed.depth
    work_of = work_function or cost_model.compile_work(depth, parameter_values)

    tuples = list(enumerate_iterations(nest, parameter_values, depth))
    total = len(tuples)
    serial_time = sum(work_of(*indices) for indices in tuples)

    chunks, dynamic = _make_chunks(schedule, total, threads, chunk_size)
    chunk_costs: List[Tuple[Chunk, float, float]] = []
    for chunk in chunks:
        work = sum(work_of(*tuples[index]) for index in range(chunk.first - 1, chunk.last))
        if recovery is RecoveryStrategy.PER_ITERATION:
            overhead = costs.costly_recovery * chunk.size
        else:
            overhead = costs.costly_recovery + costs.increment * (chunk.size - 1)
        if dynamic:
            overhead += costs.dynamic_dispatch
        chunk_costs.append((chunk, work, overhead))

    timelines = _greedy_assign(chunk_costs, threads) if dynamic else _static_assign(chunk_costs, threads)
    label = schedule.value + (f",{chunk_size}" if chunk_size else "")
    return SimulationResult(
        description=(
            f"{nest.name}: collapsed({depth}), schedule({label}), "
            f"{threads} threads, {recovery.value} recovery"
        ),
        threads=threads,
        timelines=timelines,
        serial_time=serial_time,
    )
