"""Execution plans: collapse once, decide the schedule once, run many times.

An :class:`ExecutionPlan` bundles everything a run of a collapsed nest needs
— the :class:`~repro.core.CollapsedLoop` (with its memoised compiled batch
recovery), the concrete parameter values, the kernel operations, and a
:class:`~repro.openmp.ScheduleSpec` policy — so the expensive parts (Ehrhart
ranking, symbolic root solving, NumPy code generation, chunk planning) are
paid at build time and every subsequent :meth:`RuntimeEngine.execute
<repro.runtime.engine.RuntimeEngine.execute>` is pure dispatch.

The module also implements the engine's own schedule policy,
``ScheduleKind.ADAPTIVE``: chunks sized by the cost model of
:mod:`repro.openmp.costmodel` so that each chunk carries near-equal
estimated *work* rather than an equal iteration count.  For a kernel like
``ltmp`` — whose non-collapsed inner loop leaves a per-``pc`` work that
varies with the recovered indices — equal-iteration static chunks are
imbalanced even after collapsing (the one negative case of the paper's
Fig. 9); equal-work chunks restore the balance without paying dynamic
dispatch for thousands of tiny chunks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from time import monotonic
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (native imports runtime)
    from ..native.module import NativeModule

from ..core import CollapsedLoop, batch_recovery
from ..openmp.costmodel import CostModel
from ..openmp.schedule import Chunk, ScheduleKind, ScheduleSpec, schedule_chunks
from ..symbolic.compile import compile_polynomial
from .profile import (
    FLUSH_EVERY_S,
    _chunks_ending_at,
    default_profile_store,
    profile_guided_chunks,
    profile_key,
)
from .source import PlanError, Source

_PLAN_IDS = itertools.count(1)

#: where a C body comes from, for the errors of sources without one
_C_BODY_HINT = (
    "pass c_body=/c_arrays=, use a kernel with c_body, or parse the nest from "
    "array-assignment statements"
)

#: chunks handed out per worker by the on-demand policies when no explicit
#: chunk size is given — enough slack for load balancing, few enough that
#: the per-chunk claim and index recovery stay negligible next to the
#: chunk compute.
DEFAULT_OVERSUBSCRIBE = 4


def per_iteration_work(
    collapsed: CollapsedLoop,
    parameter_values: Mapping[str, int],
    cost_model: Optional[CostModel] = None,
) -> np.ndarray:
    """Estimated work of every collapsed iteration, as a float64 vector.

    The cost model's ``work_below(depth)`` polynomial (the Ehrhart count of
    the non-collapsed inner loops) is specialised to the parameter values,
    compiled to NumPy straight-line code, and evaluated over the indices of
    the whole ``pc`` range.  Those come from the engine's own range walk
    (:meth:`BatchRecovery.recover_range <repro.core.batch.BatchRecovery.recover_range>`):
    two exact endpoint recoveries, then integer enumeration of every row
    between them, so the cut costs O(total) integer adds and no root
    evaluation.  The indices are exact at any magnitude, so adaptive chunk
    cuts are placed on true iteration coordinates even for domains past the
    float64 mantissa.
    """
    model = cost_model or CostModel(collapsed.nest)
    total = collapsed.total_iterations(parameter_values)
    if total == 0:
        return np.zeros(0, dtype=np.float64)
    work_poly = model.work_below(collapsed.depth).evaluate_partial(dict(parameter_values))
    names = [name for name in collapsed.iterators if name in work_poly.variables()]
    if not names:  # constant work per iteration (fully collapsed nests)
        constant = max(0.0, float(work_poly.evaluate({})))
        return np.full(total, constant * model.costs.unit_work, dtype=np.float64)
    indices = batch_recovery(collapsed).recover_range(1, total, parameter_values)
    compiled = compile_polynomial(work_poly, variables=names, mode="numpy")
    columns = {
        name: indices[:, position].astype(np.float64)
        for position, name in enumerate(collapsed.iterators)
    }
    work = np.asarray(compiled.evaluate(columns), dtype=np.float64)
    return np.maximum(work, 0.0) * model.costs.unit_work


def adaptive_chunks(
    collapsed: CollapsedLoop,
    parameter_values: Mapping[str, int],
    workers: int,
    cost_model: Optional[CostModel] = None,
) -> List[Chunk]:
    """Cut ``[1, total]`` into ~``workers * DEFAULT_OVERSUBSCRIBE`` equal-*work* chunks.

    The cumulative work vector is cut at its evenly spaced quantiles, so a
    chunk covering cheap iterations (small recovered inner trip counts) is
    proportionally longer than one covering expensive iterations.  Chunks
    carry no pre-assigned thread: the engine hands them out on demand, and
    the equal-work sizing keeps the hand-out count small.
    """
    if workers < 1:
        raise PlanError("workers must be at least 1")
    total = collapsed.total_iterations(parameter_values)
    if total == 0:
        return []
    work = per_iteration_work(collapsed, parameter_values, cost_model)
    cumulative = np.cumsum(work)
    grand_total = float(cumulative[-1])
    count = min(total, workers * DEFAULT_OVERSUBSCRIBE)
    if grand_total <= 0.0:  # degenerate model: fall back to equal iterations
        bounds = np.linspace(0, total, count + 1).astype(np.int64)
    else:
        targets = np.linspace(0.0, grand_total, count + 1)[1:-1]
        cuts = np.searchsorted(cumulative, targets, side="left") + 1
        bounds = np.concatenate(([0], cuts, [total]))
    return _chunks_ending_at(bounds[1:], total)


def policy_chunks(spec: ScheduleSpec, total: int, workers: int) -> List[Chunk]:
    """The chunks of a non-adaptive schedule as the runtime cuts them.

    ``dynamic`` without an explicit chunk size uses an oversubscribed equal
    split, ``workers * DEFAULT_OVERSUBSCRIBE`` chunks (OpenMP's default
    chunk of 1 would mean one counter claim and one index recovery per
    iteration, a pure-overhead regime the simulator already covers); every
    other kind is :func:`repro.openmp.schedule_chunks`.
    """
    if spec.kind is ScheduleKind.DYNAMIC and spec.chunk_size is None:
        chunk = max(1, -(-total // (workers * DEFAULT_OVERSUBSCRIBE)))
        spec = ScheduleSpec(ScheduleKind.DYNAMIC, chunk)
    return schedule_chunks(spec, total, workers)


@dataclass(frozen=True)
class ExecutionPlan:
    """One reusable description of a collapsed run, for every backend.

    Built once by :func:`build_plan` (or cached by the session layer) and
    executed any number of times; ``plan_id`` is what the engine uses to
    register the plan with its workers exactly once.
    """

    plan_id: str
    #: the loop and the parts the backends run (its Python ops on the
    #: engine, its compiled C body on native and hybrid)
    source: Source
    collapsed: CollapsedLoop
    parameter_values: Mapping[str, int]
    schedule: ScheduleSpec
    cost_model: Optional[CostModel] = field(default=None, compare=False)
    #: the plan's key in the persistent :class:`~repro.runtime.profile.ProfileStore`
    #: (set by :func:`build_plan`): when a warm profile exists under it, the
    #: ``adaptive`` policy re-cuts its chunks from *measured* chunk seconds
    #: instead of the analytic cost model
    profile_key: Optional[str] = None
    #: chunk partitions per worker count, memoised as ``(token, chunks,
    #: cut_at, measured)``: the tuple of chunks, the profile-store change
    #: token they were cut against, the ``monotonic()`` time of the cut,
    #: and whether measured segments shaped it.  Plans are immutable and
    #: the adaptive cut walks the whole pc range, so dispatch must not
    #: repay it on every call; a new token replaces a cut the cost model
    #: made at once, and a measured cut once
    #: :data:`~repro.runtime.profile.FLUSH_EVERY_S` has passed since it was
    #: made — how the measure→schedule loop closes between runs without
    #: re-cutting after each one
    _chunk_cache: Dict[int, Tuple[int, Tuple[Chunk, ...], float, bool]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def total_iterations(self) -> int:
        return self.collapsed.total_iterations(self.parameter_values)

    @cached_property
    def native_module(self) -> "NativeModule":
        """The plan's compiled translation unit, attached on first use.

        The native and hybrid backends run it in this process over
        :meth:`chunks`, under every schedule, through the unit's one OpenMP
        entry, ``repro_run_chunks``; the unit does not depend on the
        schedule.  The first access runs the static overflow audit and
        only then compiles: the emitted ``long long``/``__int128`` widths
        are *proven* unable to wrap at these parameter values (the big-int
        Python paths need no such proof), and an error-severity finding
        raises :class:`PlanError` before the compiler is ever invoked.
        Raises :class:`PlanError` for a source without a C body and
        :class:`~repro.native.NativeUnavailable` where no C compiler
        exists; a failed access attaches nothing.
        """
        source = self.source
        if not source.has_c_body:
            raise PlanError(
                f"cannot compile {source.name!r}: no C body (a native plan needs a C "
                f"body: {_C_BODY_HINT})"
            )
        # deferred: lint imports ir, native imports runtime
        from ..lint.registry import static_check_plan
        from ..native import compile_collapsed

        static_check_plan(
            self.collapsed, self.parameter_values, subject=source.name
        ).raise_on_errors(PlanError)
        return compile_collapsed(source)

    def chunks(self, workers: int) -> Tuple[Chunk, ...]:
        """The chunk partition this plan's policy produces for ``workers``.

        ``ADAPTIVE`` sizes chunks by *measured* per-chunk seconds when the
        persistent profile store holds a warm profile for this plan's key
        banked at ``workers`` (:meth:`ProfileStore.segments
        <repro.runtime.profile.ProfileStore.segments>`,
        :func:`~repro.runtime.profile.profile_guided_chunks`) and by the
        cost model's estimated per-iteration work otherwise — the paper's
        collapsed-schedule argument closed into a feedback loop; the classic
        kinds are cut by :func:`policy_chunks`.
        Partitions are memoised per worker count against the profile
        store's change token, and an unchanged store costs one in-memory
        lookup per dispatch.  A new measurement (this process's, or one
        another process flushed) re-cuts on the store's flush cadence: a cut
        the cost model made from a cold store is replaced as soon as the
        first measurement exists; a cut made from measurements is replaced
        once :data:`~repro.runtime.profile.FLUSH_EVERY_S` has passed since
        it was made, so warm calls do not re-cut after every run.  The
        memoised tuple itself is returned, so every run of one cut hands
        the same object on (the native module checks and converts a chunk
        tuple once per object).
        """
        adaptive = self.schedule.kind is ScheduleKind.ADAPTIVE
        token = 0
        if adaptive and self.profile_key is not None:
            token = default_profile_store().token(self.profile_key)
        cached = self._chunk_cache.get(workers)
        if cached is not None:
            cut_token, cut, cut_at, measured = cached
            if cut_token == token or (measured and monotonic() - cut_at < FLUSH_EVERY_S):
                return cut
        total = self.total_iterations
        measured = False
        if adaptive:
            chunks = []
            if token:
                bounds, seconds = default_profile_store().segments(
                    self.profile_key, total, workers
                )
                count = min(total, workers * DEFAULT_OVERSUBSCRIBE)
                chunks = profile_guided_chunks(bounds, seconds, total, count)
                measured = bool(chunks)
            if not chunks:  # cold store (or unusable measurements): a priori model
                chunks = adaptive_chunks(
                    self.collapsed, self.parameter_values, workers, cost_model=self.cost_model
                )
        else:
            chunks = policy_chunks(self.schedule, total, workers)
        chunks = tuple(chunks)
        self._chunk_cache[workers] = (token, chunks, monotonic(), measured)
        return chunks

    def payload(self) -> dict:
        """The picklable registration message workers rebuild the plan from.

        A registry kernel travels as its name (workers resolve operations
        from their own registry); ad-hoc operations travel as module-level
        function references.  The collapsed loop itself pickles cheaply —
        the solved unranking goes over the wire, so workers never repeat the
        symbolic root solving, only the (fast) NumPy code generation.
        """
        # note: the collapsed loop's pickled unranking carries the
        # denominator-cleared bracket polynomials, so worker-side
        # BatchRecovery instances share the parent's exact-recovery
        # contract without re-deriving anything
        source = self.source
        return {
            "plan_id": self.plan_id,
            "collapsed": self.collapsed,
            "parameter_values": dict(self.parameter_values),
            "kernel_name": source.kernel_name,
            "iteration_op": None if source.kernel else source.iteration_op,
            "chunk_op": None if source.kernel else source.chunk_op,
        }


def build_plan(
    source,
    parameter_values: Mapping[str, int],
    schedule: object = "adaptive",
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` of one :class:`~repro.runtime.source.Source`.

    ``source`` is anything :meth:`Source.of <repro.runtime.source.Source.of>`
    accepts: a registered kernel name, a :class:`~repro.kernels.Kernel`, a
    :class:`~repro.ir.LoopNest` (collapsed whole here, through the memo
    cache), a :class:`~repro.core.CollapsedLoop` (``collapse(nest, depth)``
    collapses fewer loops) or a ``Source`` carrying the Python operations
    and C body of an ad-hoc loop.  One plan serves every backend: the
    engine runs its Python operations, native and hybrid its
    :attr:`~ExecutionPlan.native_module`, compiled (after the overflow
    audit) on first use, and all of them run the same
    :meth:`~ExecutionPlan.chunks`.  Raises :class:`PlanError` for a source
    with neither Python operations nor a C body; a backend whose part is
    missing raises when it runs the plan.  The full :mod:`repro.lint`
    audit is one call away: ``static_check_plan(..., full=True)``.
    """
    source = Source.of(source)
    spec = ScheduleSpec.parse(schedule)
    kernel = source.kernel
    if kernel is not None and not kernel.is_executable:
        raise PlanError(f"kernel {kernel.name!r} has no executable body")
    if not (source.has_python_ops or source.has_c_body):
        raise PlanError(
            f"{source.name!r} has nothing to run: the engine needs a kernel or at "
            f"least one of iteration_op/chunk_op, and a native plan needs a C body "
            f"({_C_BODY_HINT})"
        )
    return ExecutionPlan(
        plan_id=f"plan-{next(_PLAN_IDS)}",
        source=source,
        collapsed=source.collapsed,
        parameter_values=dict(parameter_values),
        schedule=spec,
        cost_model=kernel.cost_model() if kernel is not None else None,
        profile_key=profile_key(source, parameter_values, spec),
    )
