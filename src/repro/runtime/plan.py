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
import pickle
from dataclasses import dataclass, field
from time import monotonic
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (native imports runtime)
    from ..native.module import NativeLibrarySpec, NativeModule

from ..core import CollapsedLoop, batch_recovery, collapse
from ..ir import LoopNest
from ..openmp.costmodel import CostModel
from ..openmp.schedule import Chunk, ScheduleKind, ScheduleSpec, schedule_chunks
from ..symbolic.compile import compile_polynomial
from .profile import (
    FLUSH_EVERY_S,
    ProfileError,
    default_profile_store,
    profile_guided_chunks,
    profile_key,
)

_PLAN_IDS = itertools.count(1)

#: chunks handed out per worker by the on-demand policies when no explicit
#: chunk size is given — enough slack for load balancing, few enough that
#: the per-chunk claim and index recovery stay negligible next to the
#: chunk compute.
DEFAULT_OVERSUBSCRIBE = 4


class PlanError(ValueError):
    """Raised for plans that cannot be built or executed."""


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
    oversubscribe: int = DEFAULT_OVERSUBSCRIBE,
    cost_model: Optional[CostModel] = None,
) -> List[Chunk]:
    """Cut ``[1, total]`` into ~``workers * oversubscribe`` equal-*work* chunks.

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
    count = min(total, max(1, workers * max(1, oversubscribe)))
    if grand_total <= 0.0:  # degenerate model: fall back to equal iterations
        bounds = np.linspace(0, total, count + 1).astype(np.int64)
    else:
        targets = np.linspace(0.0, grand_total, count + 1)[1:-1]
        cuts = np.searchsorted(cumulative, targets, side="left") + 1
        bounds = np.concatenate(([0], cuts, [total]))
    chunks: List[Chunk] = []
    previous = 0
    for bound in bounds[1:]:
        bound = int(min(max(bound, previous), total))
        if bound > previous:
            chunks.append(Chunk(first=previous + 1, last=bound))
            previous = bound
    if previous < total:  # numerical guard: never drop the tail
        chunks.append(Chunk(first=previous + 1, last=total))
    return chunks


@dataclass(frozen=True)
class ExecutionPlan:
    """One reusable, engine-executable description of a collapsed run.

    Built once by :func:`build_plan` (or cached by the session layer) and
    executed any number of times; ``plan_id`` is what the engine uses to
    register the plan with its workers exactly once.
    """

    plan_id: str
    collapsed: CollapsedLoop
    parameter_values: Mapping[str, int]
    schedule: ScheduleSpec
    kernel_name: Optional[str] = None
    iteration_op: Optional[Callable] = None
    chunk_op: Optional[Callable] = None
    oversubscribe: int = DEFAULT_OVERSUBSCRIBE
    cost_model: Optional[CostModel] = field(default=None, compare=False)
    #: the plan's compiled translation unit (set by ``build_plan(native=True)``):
    #: the native backend calls its whole-range OpenMP ``repro_run`` in
    #: this process
    native_module: Optional["NativeModule"] = field(default=None, compare=False, repr=False)
    #: the same unit's attachment recipe: hybrid workers load the cached
    #: shared object by path and run chunks through its serial
    #: ``repro_run_range``
    native_spec: Optional["NativeLibrarySpec"] = None
    #: the plan's key in the persistent :class:`~repro.runtime.profile.ProfileStore`
    #: (set by :func:`build_plan`): when a warm profile exists under it, the
    #: ``adaptive`` policy re-cuts its chunks from *measured* chunk seconds
    #: instead of the analytic cost model
    profile_key: Optional[str] = None
    #: chunk partitions per worker count, memoised as ``(token, chunks,
    #: cut_at, measured)``: the profile-store change token they were cut
    #: against, the ``monotonic()`` time of the cut, and whether measured
    #: segments shaped it.  Plans are immutable and the adaptive cut walks
    #: the whole pc range, so dispatch must not repay it on every call; a
    #: new token replaces a cut the cost model made at once, and a measured
    #: cut once :data:`~repro.runtime.profile.FLUSH_EVERY_S` has passed
    #: since it was made — how the measure→schedule loop closes between
    #: runs without re-cutting after each one
    _chunk_cache: Dict[int, Tuple[int, List[Chunk], float, bool]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def total_iterations(self) -> int:
        return self.collapsed.total_iterations(self.parameter_values)

    def chunks(self, workers: int) -> List[Chunk]:
        """The chunk partition this plan's policy produces for ``workers``.

        ``ADAPTIVE`` sizes chunks by *measured* per-chunk seconds when the
        persistent profile store holds a warm profile for this plan's key
        (:func:`~repro.runtime.profile.profile_guided_chunks`) and by the
        cost model's estimated per-iteration work otherwise — the paper's
        collapsed-schedule argument closed into a feedback loop; ``DYNAMIC``
        without an explicit chunk size uses an oversubscribed equal split
        (OpenMP's default chunk of 1 would mean one counter claim and one
        index recovery per iteration, a pure-overhead regime the simulator
        already covers);
        the classic kinds delegate to :func:`repro.openmp.schedule_chunks`.
        Partitions are memoised per worker count against the profile
        store's change token, and an unchanged store costs one in-memory
        lookup per dispatch.  A new measurement (this process's, or one
        another process flushed) re-cuts on the store's flush cadence: a cut
        the cost model made from a cold store is replaced as soon as the
        first measurement exists; a cut made from measurements is replaced
        once :data:`~repro.runtime.profile.FLUSH_EVERY_S` has passed since
        it was made, so warm calls do not re-cut after every run.
        """
        adaptive = self.schedule.kind is ScheduleKind.ADAPTIVE
        token = 0
        if adaptive and self.profile_key is not None:
            token = default_profile_store().token(self.profile_key)
        cached = self._chunk_cache.get(workers)
        if cached is not None:
            cut_token, cut, cut_at, measured = cached
            if cut_token == token or (measured and monotonic() - cut_at < FLUSH_EVERY_S):
                return list(cut)
        total = self.total_iterations
        measured = False
        if adaptive:
            chunks = []
            if token:
                segments = default_profile_store().segments(
                    self.profile_key,
                    total,
                    prefer_backend="hybrid" if self.native_spec is not None else "engine",
                )
                count = min(total, max(1, workers * max(1, self.oversubscribe)))
                chunks = profile_guided_chunks(segments, total, count)
                measured = bool(chunks)
            if not chunks:  # cold store (or unusable measurements): a priori model
                chunks = adaptive_chunks(
                    self.collapsed,
                    self.parameter_values,
                    workers,
                    oversubscribe=self.oversubscribe,
                    cost_model=self.cost_model,
                )
        elif self.schedule.kind is ScheduleKind.DYNAMIC and self.schedule.chunk_size is None:
            chunk = max(1, -(-total // (workers * max(1, self.oversubscribe))))
            chunks = schedule_chunks(ScheduleSpec(ScheduleKind.DYNAMIC, chunk), total, workers)
        else:
            chunks = schedule_chunks(self.schedule, total, workers)
        self._chunk_cache[workers] = (token, chunks, monotonic(), measured)
        return list(chunks)

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
        return {
            "plan_id": self.plan_id,
            "collapsed": self.collapsed,
            "parameter_values": dict(self.parameter_values),
            "kernel_name": self.kernel_name,
            "iteration_op": None if self.kernel_name else self.iteration_op,
            "chunk_op": None if self.kernel_name else self.chunk_op,
            "native": self.native_spec,
        }


def _native_body(source, c_body, c_arrays, array_ndims):
    """The plan's C body, its arrays and their ranks.

    The body comes from (in order) the caller's explicit ``c_body``, a
    registered kernel's ``c_body``, or the C text the parser attached to an
    ad-hoc nest's array-assignment statements
    (:func:`repro.ir.parser.native_body`).  Raises :class:`PlanError` when
    no C body exists at all.
    """
    from ..ir.parser import ParseError, native_array_ndims, native_body
    from ..kernels import Kernel  # deferred: kernels import runtime helpers

    body, arrays = c_body, tuple(c_arrays)
    if body is None and isinstance(source, Kernel):
        body, arrays = source.c_body, source.c_arrays
    if body is None and isinstance(source, LoopNest):
        try:
            body, arrays = native_body(source)
        except ParseError:
            body = None  # opaque statements: fall through to the no-body error
        else:
            if array_ndims is None:  # macro ranks follow the parsed subscripts
                try:
                    array_ndims = native_array_ndims(source)
                except ParseError as error:
                    # the nest HAS a body; hiding a rank conflict behind a
                    # "no C body" message would point the caller at the
                    # wrong fix
                    raise PlanError(str(error)) from None
    if body is None:
        raise PlanError(
            f"cannot build a native plan for {getattr(source, 'name', source)!r}: "
            "no C body (every native plan needs a C body: pass c_body=/c_arrays=, "
            "use a kernel with c_body, or parse the nest from array-assignment "
            "statements)"
        )
    return body, arrays, array_ndims


def build_plan(
    source,
    parameter_values: Mapping[str, int],
    schedule: object = "adaptive",
    depth: Optional[int] = None,
    oversubscribe: int = DEFAULT_OVERSUBSCRIBE,
    iteration_op: Optional[Callable] = None,
    chunk_op: Optional[Callable] = None,
    native: bool = False,
    c_body: Optional[str] = None,
    c_arrays: Sequence[str] = (),
    array_ndims: Optional[Mapping[str, int]] = None,
    compile_flags: Sequence[str] = (),
    static_check: Optional[bool] = None,
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` from a kernel, nest or collapsed loop.

    ``source`` may be a registered kernel name, a
    :class:`~repro.kernels.Kernel`, a :class:`~repro.ir.LoopNest` (collapsed
    here, through the memo cache) or an existing
    :class:`~repro.core.CollapsedLoop`.  Ad-hoc ``iteration_op``/``chunk_op``
    must be module-level (picklable) functions; registered kernels need
    neither, their operations resolve from the registry inside each worker.

    ``native=True`` additionally compiles the nest's C translation unit *in
    the calling process* (kernel ``c_body``, explicit ``c_body``/``c_arrays``
    or parser-derived statements; ``array_ndims`` for non-2-D arrays) under
    the plan's schedule (``adaptive``, which has no OpenMP spelling, maps to
    ``static``) and attaches the module and its
    :class:`~repro.native.NativeLibrarySpec` to the plan.  One native plan
    serves two backends: ``native`` calls the unit's whole-range OpenMP
    ``repro_run`` in this process, ``hybrid`` engine workers load the cached
    shared object by path and execute their chunks through the serial
    ``repro_run_range``.  ``compile_flags`` are appended to the compiler
    command line of that translation unit (and to its cache keys) — the
    sweep's compiler-flags axis.  Raises
    :class:`~repro.native.NativeUnavailable` where no C compiler exists.

    ``static_check`` controls the :mod:`repro.lint` audits that run before
    anything compiles or executes.  The default (``None``) runs the static
    overflow audit for native plans — the emitted ``long long`` /
    ``__int128`` widths are *proven* unable to wrap at these parameter
    values, where the big-int Python paths need no such proof.
    ``static_check=True`` runs the full audit (overflow plus the C-body
    footprint and generated-C privatisation checks when a body is known);
    ``static_check=False`` skips everything.  Any error-severity finding
    raises :class:`PlanError` before the compiler is ever invoked.
    """
    from ..kernels import Kernel, get_kernel  # deferred: kernels import runtime helpers

    spec = ScheduleSpec.parse(schedule)
    native_schedule = (
        ScheduleSpec(ScheduleKind.STATIC) if spec.kind is ScheduleKind.ADAPTIVE else spec
    )
    kernel_name: Optional[str] = None
    cost_model: Optional[CostModel] = None

    if isinstance(source, str):
        source = get_kernel(source)
    if isinstance(source, Kernel):
        if not source.is_executable:
            raise PlanError(f"kernel {source.name!r} has no executable body")
        kernel_name = source.name
        cost_model = source.cost_model()
        collapsed = source.collapsed()
        iteration_op = source.iteration_op
        chunk_op = source.chunk_op
    elif isinstance(source, LoopNest):
        collapsed = collapse(source, depth)
    elif isinstance(source, CollapsedLoop):
        collapsed = source
    else:
        raise PlanError(f"cannot build a plan from {type(source).__name__}")

    if static_check or (static_check is None and native):
        # audit before compiling: a plan whose emitted widths could wrap (or,
        # under full checking, whose region privatisation is unproven) must
        # never reach the compiler
        from ..lint.registry import static_check_plan  # deferred: lint imports ir

        check_body, check_arrays = c_body, tuple(c_arrays)
        if check_body is None and isinstance(source, Kernel):
            check_body, check_arrays = source.c_body, source.c_arrays
        static_check_plan(
            collapsed,
            parameter_values,
            c_body=check_body,
            c_arrays=check_arrays,
            schedule=native_schedule,
            subject=kernel_name or collapsed.nest.name,
            full=bool(static_check),
            ir_statements=collapsed.nest.statements,
        ).raise_on_errors(PlanError)

    native_module = None
    if native:
        from ..native import compile_collapsed  # deferred: native imports runtime

        body, arrays, ndims = _native_body(source, c_body, c_arrays, array_ndims)
        native_module = compile_collapsed(
            collapsed, body=body, arrays=arrays, schedule=native_schedule,
            array_ndims=ndims, extra_flags=tuple(compile_flags),
        )
    elif c_body is not None or c_arrays or compile_flags:
        raise PlanError(
            "c_body/c_arrays/compile_flags are native-plan options; pass native=True"
        )

    if kernel_name is None and iteration_op is None and chunk_op is None and native_module is None:
        raise PlanError("a plan needs a kernel or at least one of iteration_op/chunk_op")
    for op in (iteration_op, chunk_op):
        if kernel_name is None and op is not None:
            try:
                pickle.dumps(op)
            except Exception as error:
                raise PlanError(
                    f"operation {op!r} is not picklable; use a module-level function "
                    f"or a registered kernel ({error})"
                ) from error

    try:
        plan_profile_key = profile_key(source, parameter_values, spec, depth=depth)
    except ProfileError:
        plan_profile_key = None  # unfingerprintable source: plan runs unprofiled

    return ExecutionPlan(
        plan_id=f"plan-{next(_PLAN_IDS)}",
        collapsed=collapsed,
        parameter_values=dict(parameter_values),
        schedule=spec,
        kernel_name=kernel_name,
        iteration_op=iteration_op,
        chunk_op=chunk_op,
        oversubscribe=oversubscribe,
        cost_model=cost_model,
        native_module=native_module,
        native_spec=native_module.library_spec() if native_module is not None else None,
        profile_key=plan_profile_key,
    )
