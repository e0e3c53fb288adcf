"""OpenMP-style scheduling substrate.

The paper's evaluation compares three ways of running a non-rectangular
parallel nest on 12 threads:

* the original nest with its outermost loop distributed by a *static*
  schedule (Fig. 2 — heavy load imbalance on triangular domains),
* the original nest with a *dynamic* schedule (better balance, but per-chunk
  dispatch overhead),
* the collapsed nest with a static schedule (the paper's contribution:
  near-perfect balance and no dispatch overhead, at the price of the index
  recovery computation, amortised as in Section V).

Python's GIL prevents measuring these effects with real threads, so this
package provides a substitute (see README.md):

* :mod:`repro.openmp.simulator` — a deterministic simulated-time executor:
  iterations have costs given by a :mod:`cost model <repro.openmp.costmodel>`
  derived from the kernel's inner trip counts, chunks are assigned to
  threads exactly like the corresponding OpenMP schedule would, and the
  makespan / per-thread load / overhead are computed analytically.

Real parallel execution lives in :mod:`repro.runtime` (the persistent
engine, the hybrid backend and the compiled native backend, all behind
``RuntimeSession.run``).
"""

from .schedule import (
    Chunk,
    ScheduleKind,
    ScheduleSpec,
    schedule_chunks,
    static_schedule,
    static_chunked_schedule,
    dynamic_chunks,
    guided_chunks,
)
from .costmodel import CostModel, RecoveryCosts
from .simulator import SimulationResult, ThreadTimeline, simulate_collapsed_static, simulate_outer_parallel

__all__ = [
    "Chunk",
    "ScheduleKind",
    "ScheduleSpec",
    "schedule_chunks",
    "static_schedule",
    "static_chunked_schedule",
    "dynamic_chunks",
    "guided_chunks",
    "CostModel",
    "RecoveryCosts",
    "SimulationResult",
    "ThreadTimeline",
    "simulate_collapsed_static",
    "simulate_outer_parallel",
]
