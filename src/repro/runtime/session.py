"""The high-level runtime API: ``collapse_and_run`` with plan caching.

A :class:`RuntimeSession` owns one persistent :class:`RuntimeEngine`, a
cache of :class:`ExecutionPlan` objects keyed by (source fingerprint,
parameter values, schedule) — the fingerprint of the one
:class:`~repro.runtime.source.Source` value the profile store and the
native module memo key on too — one resolved call record per
:meth:`~RuntimeSession.run` key, and one pool of
shared-memory sets, at most one free set per array signature.  Asking the
session twice for the same kernel at the same size re-uses the record (its
plan, parsed schedule, profile key and, on the compiled backends, the bound
:class:`~repro.native.module.NativeCall`), the workers' compiled state and
the pooled set every worker-pool run stages through, so a steady-state run
allocates nothing: it is the copies of its arrays plus chunk dispatch.
:meth:`RuntimeSession.run` is the one place a backend name picks a
substrate: engine, hybrid and native all run the one cached plan of a
configuration and its one chunk cut, and only the final dispatch differs.

:func:`collapse_and_run` is the one-call version::

    from repro.runtime import collapse_and_run

    data = collapse_and_run("utma", {"N": 512}, workers=4, schedule="adaptive")

The module-level default session behind it starts its engine lazily on the
first call and is torn down at interpreter exit.
"""

from __future__ import annotations

import atexit
import functools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (native imports runtime)
    from ..native.module import NativeCall

from ..openmp.schedule import ScheduleKind, ScheduleSpec
from .engine import RunResult, RuntimeEngine
from .plan import ExecutionPlan, PlanError, build_plan
from .profile import (
    choose_backend,
    default_profile_store,
    flush_profile_stores,
    profile_key,
)
from .shm import SharedBuffers, signature
from .source import Source


def resolve_auto_backend(
    source,
    parameter_values: Mapping[str, int],
    schedule: object = "adaptive",
    data=None,
    store=None,
) -> str:
    """The substrate ``backend="auto"`` runs on: the measured fastest viable one.

    ``source`` is anything :meth:`Source.of
    <repro.runtime.source.Source.of>` accepts.  The decision has two
    stages.  *Viability* first, from the parts of the source value: a C
    body and a present C compiler make ``hybrid`` and ``native`` viable
    when there is a whole range to run in place (a kernel, or caller
    ``data``); Python operations make ``engine`` viable.

    Then *choice*: among the viable candidates, in the fixed order
    ``hybrid``, ``native``, ``engine``,
    :func:`~repro.runtime.profile.choose_backend` explores any substrate the
    :class:`~repro.runtime.profile.ProfileStore` has no timing for yet and
    afterwards exploits the measured-fastest by median whole-run seconds.
    The store is the only selector: no machine fact overrides it.

    With nothing viable the function returns ``"engine"`` rather than
    raising, so the caller sees the engine's actionable error (missing ops)
    instead of a second-hand resolver failure.
    """
    source = Source.of(source)
    key = profile_key(source, parameter_values, schedule)
    backend, _settled = _resolve_auto(source, key, data, store)
    return backend


def _resolve_auto(source: Source, key: str, data, store=None) -> Tuple[str, bool]:
    """:func:`resolve_auto_backend` of the profile entry ``key``, plus a *settled* flag.

    ``settled`` is ``True`` only for an exploit-phase choice — every viable
    candidate has a recorded timing, so the decision is stable enough for
    :class:`RuntimeSession` to memoise; an exploration pick or a degraded
    default must be re-resolved on the next call.
    """
    from ..native import native_available

    in_place = source.kernel is not None or data is not None
    candidates = []
    if in_place and source.has_c_body and native_available():
        candidates += ["hybrid", "native"]
    if source.has_python_ops:
        candidates.append("engine")
    if not candidates:
        return "engine", False
    if len(candidates) == 1:
        return candidates[0], True
    profiles = (store or default_profile_store()).load(key)
    settled = all(name in profiles and profiles[name].elapsed_seconds for name in candidates)
    return choose_backend(profiles, candidates), settled


def _give_back(free: dict, discarded: list, key: tuple, buffers: SharedBuffers) -> None:
    """Return a staged set to its signature's free slot, or discard it if full.

    Lent results run this from a finalizer, in any thread and at any
    allocation, so it only does an atomic ``dict.setdefault`` or
    ``list.append``; the session closes discarded sets on its own thread.
    """
    if buffers.unlinked:
        return  # the session closed while the set was lent
    if free.setdefault(key, buffers) is not buffers:
        discarded.append(buffers)


#: the substrates ``RuntimeSession.run`` dispatches to (``"auto"`` resolves
#: to one of them)
BACKENDS = ("engine", "hybrid", "native")


@dataclass(frozen=True)
class _Call:
    """One :meth:`RuntimeSession.run` key (source fingerprint, parameter
    values, schedule as given, backend), resolved on its first call: the
    substrate that runs it (``auto`` has no plan and picks one per call),
    its profile key, the cached plan with its parsed schedule, and on
    ``native``/``hybrid`` the plan module's bound call."""

    backend: str
    profile_key: str
    plan: Optional[ExecutionPlan] = None
    native: Optional["NativeCall"] = None


#: settled auto resolutions are reused this many times before the session
#: re-reads the profile store — new measurements land every run, but medians
#: over the elapsed window move slowly, so a bounded-staleness memo buys back
#: the resolver's store read on the hot path without freezing the choice
AUTO_REVALIDATE_EVERY = 8


class RuntimeSession:
    """Plan cache + persistent engine + one pool of staged shared-memory sets."""

    def __init__(self, workers: int = 2):
        self.engine = RuntimeEngine(workers=workers)
        self._plans: Dict[tuple, ExecutionPlan] = {}
        #: resolved call records by run key (see :class:`_Call`)
        self._calls: Dict[tuple, _Call] = {}
        #: staging: at most one free set per array signature, the sets
        #: handed back while their slot was full, and every staged set not
        #: yet closed (free, lent or discarded)
        self._free: Dict[tuple, SharedBuffers] = {}
        self._discarded: List[SharedBuffers] = []
        self._staged: Set[SharedBuffers] = set()
        #: settled ``backend="auto"`` resolutions, re-validated every
        #: AUTO_REVALIDATE_EVERY uses: (profile key, ``data is None``) ->
        #: (backend, remaining uses).  Exploration picks are never memoised,
        #: so every untimed candidate still gets its measurement run.
        self._auto_memo: Dict[tuple, Tuple[str, int]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # plans
    # ------------------------------------------------------------------ #
    def plan_for(
        self,
        source,
        parameter_values: Mapping[str, int],
        schedule: object = "adaptive",
    ) -> ExecutionPlan:
        """The cached plan of (source, parameters, schedule); built on miss.

        ``source`` is anything :meth:`Source.of
        <repro.runtime.source.Source.of>` accepts.  The key is the source
        value's fingerprint, the one identity the profile store and the
        native module memo key on too, so two equal nests with equal parts
        share a plan.  Every backend runs the one plan of a key: the
        compiled ones attach its :attr:`~ExecutionPlan.native_module` on
        first use, under the session lock.
        """
        source = Source.of(source)
        spec = ScheduleSpec.parse(schedule)
        key = (
            source.fingerprint,
            tuple(sorted((name, int(value)) for name, value in parameter_values.items())),
            str(spec),
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                plan = build_plan(source, parameter_values, spec)
                self._plans[key] = plan
        return plan

    def cache_info(self) -> Dict[str, int]:
        return {"plans": len(self._plans), "staged": len(self._staged)}

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        source,
        parameter_values: Mapping[str, int],
        data=None,
        schedule: object = "adaptive",
        backend: str = "engine",
        **parts,
    ):
        """Collapse (cached), plan (cached), execute on the chosen substrate.

        ``source`` and ``parts`` (``iteration_op``, ``chunk_op``,
        ``c_body``, ``c_arrays``, ``array_ndims``, ``compile_flags``) are
        folded into one :class:`~repro.runtime.source.Source` on entry (see
        :meth:`Source.of <repro.runtime.source.Source.of>`: a kernel
        brings its own parts and takes only ``compile_flags``).  Every
        backend runs the parts it needs and raises :class:`PlanError` only
        when one is missing: the engine needs Python operations
        (module-level functions), native and hybrid a C body (a kernel's,
        ``c_body=``/``c_arrays=``, or the statements of a parsed nest).  To
        collapse fewer loops than the whole nest, pass ``collapse(nest,
        depth)`` as the source.  ``backend`` picks the substrate, as listed
        on :func:`collapse_and_run`; every backend runs the session's one
        cached plan of (source, parameters, schedule) and its one chunk
        cut, native and hybrid through the plan's compiled unit (audited
        for overflow before it compiles, see
        :attr:`~repro.runtime.plan.ExecutionPlan.native_module`), and every
        backend's parallelism is the session's ``workers``.

        For a kernel source the return value is the kernel's result
        ``DataDict``: arrays the caller owns, safe to keep, slice and write,
        unaffected by later calls and readable after :meth:`close`.  With
        ``data=None`` the run starts from fresh ``make_data`` arrays, which
        belong to the call and are returned.  ``data`` seeds the run and is
        never mutated: the result arrays are the session's staged copy of
        it, lent to the caller — once the caller drops them the set is free
        for the next call, so a warm caller-data run copies its input once
        and allocates nothing.  Nest/collapsed-loop sources run against the
        caller's ``data`` arrays, which are mutated in place, and the
        return value is the :class:`~repro.runtime.engine.RunResult`.

        Every run on the worker pool stages through one pool of
        shared-memory sets, at most one free set per array signature (one
        is created on a miss): the arrays are copied into the set, and the
        set's contents are copied back into them and the set freed at once
        — except for a kernel's caller ``data``, whose set is the lent
        result.  ``native`` and ``hybrid`` run in this process, in place on
        arrays they may write (made arrays, a nest's ``data``) and on a
        staged set otherwise (a kernel's caller ``data``, lent the same
        way).
        """
        source = Source.of(source, **parts)
        key = (source.fingerprint, tuple(parameter_values.items()), schedule, backend)
        call = self._calls.get(key) or self._resolve(key, source, parameter_values)
        if call.backend == "auto":
            key = key[:3] + (self._auto_backend(source, call.profile_key, data),)
            call = self._calls.get(key) or self._resolve(key, source, parameter_values)

        self._reap()
        kernel = source.kernel
        # a kernel run without data owns the arrays it makes; they are
        # treated like a nest's caller data and returned
        owned = kernel is not None and data is None
        if owned:
            data = kernel.make_data(parameter_values)
        elif data is None:
            if call.native is not None:
                raise PlanError(
                    f"running nest {source.name!r} natively needs "
                    f"data= arrays for {list(call.plan.native_module.arrays)}"
                )
            return self._dispatch(call)
        if call.native is not None and (kernel is None or owned):
            # the compiled substrates run in this process, in place on the
            # caller's (or the call's own) arrays
            result = self._dispatch(call, data)
        else:
            result = self._run_staged(call, data, lend=kernel is not None and not owned)
        return data if owned else result

    def _resolve(self, key: tuple, source: Source, parameter_values) -> _Call:
        """Build the :class:`_Call` record of a :meth:`run` key and keep it.

        Every backend runs the cached plan of the key's (source,
        parameters, schedule); native and hybrid attach its compiled unit.
        Where no C compiler exists, ``hybrid`` degrades to the engine on
        the same plan (same result, without the C speed) and that record
        is not kept, so a compiler found later is used; ``native`` raises
        :class:`~repro.native.NativeUnavailable`, because its OpenMP team
        and schedule are the thing being requested.  A compilation
        *failure* with a compiler present (e.g. a broken caller ``c_body``)
        raises on both, because silence there would hide a bug.
        """
        _fingerprint, _values, schedule, backend = key
        schedule = ScheduleSpec.parse(schedule)
        if backend == "auto":
            call = _Call("auto", profile_key(source, parameter_values, schedule))
        elif backend not in BACKENDS:
            raise PlanError(
                f"unknown backend {backend!r}; expected 'auto', 'engine', 'hybrid' "
                "or 'native'"
            )
        elif backend == "engine":
            if not source.has_python_ops:
                raise PlanError(
                    f"the engine cannot run {source.name!r}: it needs a kernel or at "
                    "least one of iteration_op/chunk_op"
                )
            plan = self.plan_for(source, parameter_values, schedule)
            call = _Call("engine", plan.profile_key, plan)
        else:
            # deferred import: the native backend is optional
            from ..native import NativeUnavailable, native_available

            plan = self.plan_for(source, parameter_values, schedule)
            try:
                with self._lock:
                    module = plan.native_module
            except NativeUnavailable:
                # the engine cannot run an op-less source either: the
                # actionable problem is then the missing compiler
                if backend == "native" or native_available() or not source.has_python_ops:
                    raise
                return _Call("engine", plan.profile_key, plan)
            native = module.bind(plan.parameter_values, plan.schedule, threads=self.engine.workers)
            call = _Call(backend, plan.profile_key, plan, native)
        self._calls[key] = call
        return call

    def _run_staged(self, call: _Call, data, lend: bool):
        """Run ``call``'s plan over a staged copy of ``data``.

        The copy lands in this signature's free :class:`SharedBuffers` set,
        or in a new one on a miss, so a warm call allocates nothing and the
        workers keep their plan and attachment.  With ``lend`` (a kernel's
        caller data) the set's arrays are the result, and the set goes back
        to its free slot once the caller drops them; otherwise (a nest's
        data, a kernel's made arrays) the mutations are copied back into
        ``data`` and the set is free at once.
        """
        key = signature(data)
        buffers = self._free.pop(key, None)
        try:
            if buffers is None:
                buffers = SharedBuffers.create(data)
                self._staged.add(buffers)
            else:
                buffers.fill_from(data)
            result = self._dispatch(call, buffers if call.native is None else buffers.arrays)
            if not lend:
                for name, value in buffers.arrays.items():
                    data[name][...] = value
        except BaseException:
            # workers may still hold chunks of a failed run: never reuse the set
            if buffers is not None:
                self._discarded.append(buffers)
            raise
        if lend:
            return buffers.lend(
                functools.partial(_give_back, self._free, self._discarded, key, buffers)
            )
        _give_back(self._free, self._discarded, key, buffers)
        return result

    def _reap(self) -> None:
        """Close the sets handed back while their slot was full.

        Runs on the session's own thread: each worker plan still attached
        to a discarded set is released before its segments are unlinked.
        """
        while True:
            try:
                buffers = self._discarded.pop()
            except IndexError:
                return
            self.engine.detach(buffers.specs)
            buffers.close()
            self._staged.discard(buffers)

    def _auto_backend(self, source: Source, key: str, data) -> str:
        """The backend ``backend="auto"`` stands for on this call.

        Settled resolutions are memoised for :data:`AUTO_REVALIDATE_EVERY`
        uses, keyed on the profile key ``key`` the choice is read from and
        on whether the call brings ``data`` (the compiled backends need a
        whole range).
        """
        memo_key = (key, data is None)
        cached = self._auto_memo.get(memo_key)
        if cached is not None and cached[1] > 0:
            self._auto_memo[memo_key] = (cached[0], cached[1] - 1)
            return cached[0]
        backend, settled = _resolve_auto(source, key, data)
        if settled:
            self._auto_memo[memo_key] = (backend, AUTO_REVALIDATE_EVERY)
        else:
            self._auto_memo.pop(memo_key, None)
        return backend

    def _dispatch(self, call: _Call, buffers=None) -> RunResult:
        """Run ``call``'s plan once on its substrate and bank the timings.

        The one per-backend step of a run: ``engine`` hands the plan's
        chunks to the worker pool over the shared ``buffers``; ``native``
        and ``hybrid`` hand them, with the record's bound call, to the
        plan module's ``repro_run_chunks`` in this process, on the arrays
        ``buffers`` names, and label the result with their own name.  The
        chunks are the plan's memoised cut, so a warm call re-checks
        nothing.  Every backend runs ``workers``-wide.
        """
        if call.native is None:
            result = self.engine.execute(call.plan, buffers=buffers)
        else:
            result = call.plan.native_module.run(
                buffers, call.native, call.plan.chunks(self.engine.workers), call.backend
            )
        self._bank(call.plan, result)
        return result

    def execute(self, plan: ExecutionPlan, buffers: Optional[SharedBuffers] = None) -> RunResult:
        """Engine pass-through for callers managing plans/buffers themselves.

        Like every session execution path, the run's timings are banked in
        the profile store under the plan's ``profile_key`` (when it has one)
        — recording is the session layer's job, so direct-engine callers
        stay profile-free.
        """
        result = self.engine.execute(plan, buffers=buffers)
        self._bank(plan, result)
        return result

    def _bank(self, plan: ExecutionPlan, result: RunResult) -> None:
        """Bank one run of ``plan`` (its cut, so its trip count) in the
        profile store's in-memory table.

        Only an ``adaptive`` run banks its chunks' bounds and seconds, the
        segments :meth:`ExecutionPlan.chunks` re-cuts its key from; no other
        key is re-cut.  The run is banked at the session's ``workers``, the
        width its plan was cut for, on every backend (a native run's own
        ``workers`` is its OpenMP team, which may be narrower), so the
        segments only re-cut plans of that width.  Disk is only written by
        the store's flush, which logs a failure instead of raising, so a
        run never fails on its profile.
        """
        if plan.profile_key is None:
            return
        adaptive = plan.schedule.kind is ScheduleKind.ADAPTIVE
        default_profile_store().record(
            plan.profile_key,
            result.backend,
            elapsed_seconds=result.elapsed_seconds,
            workers=self.engine.workers,
            total_iterations=plan.total_iterations,
            segments=(result.bounds, result.chunk_seconds) if adaptive else None,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush the banked profiles, shut the engine down and unlink every
        session-owned segment.

        Staged sets still lent out lose only their names: the caller's
        arrays stay readable, and the memory goes with the last of them.
        """
        flush_profile_stores()
        self.engine.shutdown()
        staged = list(self._staged)
        for buffers in staged:
            buffers.unlink()  # from here on a late hand-back is a no-op
        for buffers in list(self._free.values()) + self._discarded:
            buffers.close()
        self._staged.difference_update(staged)
        self._free.clear()
        self._discarded.clear()
        self._plans.clear()
        self._calls.clear()
        self._auto_memo.clear()

    def __enter__(self) -> "RuntimeSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# module-level default session
# ---------------------------------------------------------------------- #
_DEFAULT: Optional[RuntimeSession] = None
_DEFAULT_LOCK = threading.Lock()


def default_session(workers: int = 2) -> RuntimeSession:
    """The lazily started process-wide session (``workers`` applies on first use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = RuntimeSession(workers=workers)
            atexit.register(close_default_session)
    return _DEFAULT


def close_default_session() -> None:
    """Tear down the default session (idempotent; re-created on next use)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is not None:
            _DEFAULT.close()
            _DEFAULT = None


def collapse_and_run(
    source,
    parameter_values: Mapping[str, int],
    workers: int = 2,
    schedule: object = "adaptive",
    data=None,
    session: Optional[RuntimeSession] = None,
    **run_kwargs,
):
    """One call from kernel to result, through the persistent runtime.

    ``source`` is a registered kernel name (``"utma"``), a
    :class:`~repro.kernels.Kernel`, a nest, a collapsed loop or a
    :class:`~repro.runtime.source.Source`, and ``run_kwargs`` may carry
    the source's parts (``iteration_op=``, ``c_body=``, ...); see
    :meth:`RuntimeSession.run`.  A kernel's result arrays belong to the
    caller (without ``data=``, they are fresh ``make_data`` arrays the run
    wrote; with it, the session's staged shared-memory copy of ``data``,
    lent until the caller drops them, and ``data`` itself is never
    mutated), while a nest's ``data`` is mutated in place.  Without an
    explicit ``session`` the default session is used (its engine starts on
    the first call and persists, so repeated calls pay no pool start-up;
    ``workers`` only takes effect on the call that creates it).

    ``backend`` picks the execution substrate (full decision matrix in
    ``docs/architecture.md``):

    * ``"engine"`` (default) — persistent worker pool, the source's
      Python/NumPy operations per chunk, every schedule policy including
      ``"adaptive"``;
    * ``"native"`` — the plan's chunks (every schedule policy, including
      ``"adaptive"``'s equal-work cut) run in this process by one OpenMP
      call into the compiled translation unit's ``repro_run_chunks``,
      which recovers at most once per chunk and increments across it:
      adaptive scheduling *and* C speed (raises
      :class:`~repro.native.NativeUnavailable` without a compiler);
    * ``"hybrid"`` — the same run under a second name, which falls back to
      ``"engine"`` when no C compiler is found;
    * ``"auto"`` — profile-guided choice among the above: every run banks
      its timings in the persistent profile store
      (``$REPRO_PROFILE_DIR``, default ``~/.cache/repro-profile``) under
      the plan's key, and ``auto`` explores each viable substrate once (in
      the order hybrid, native, engine), then runs the measured-fastest; an
      unviable candidate set degrades to the engine (see docs/runtime.md,
      "Online autotuning").

    Compiled shared objects are cached on disk under
    ``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-native``) and the
    compiler is picked from ``$CC``, then ``cc``/``gcc``/``clang``::

        data = collapse_and_run("utma", {"N": 512}, backend="hybrid")
    """
    session = session or default_session(workers=workers)
    return session.run(source, parameter_values, data=data, schedule=schedule, **run_kwargs)
