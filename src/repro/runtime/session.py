"""The high-level runtime API: ``collapse_and_run`` with plan caching.

A :class:`RuntimeSession` owns one persistent :class:`RuntimeEngine` plus a
cache of :class:`ExecutionPlan` objects keyed by (nest structure, collapse
depth, parameter values, schedule, plan options) — the same structural key
idea as the ``collapse()`` memo cache, one level up.  Asking the session
twice for the same kernel at the same size re-uses the plan, the workers'
compiled state and (for registry kernels run without caller data) the
shared-memory buffers, so a steady-state run is nothing but chunk dispatch.
:meth:`RuntimeSession.run` is the one place a backend name picks a
substrate: engine, hybrid and native all run a cached plan, and only the
final dispatch differs.

:func:`collapse_and_run` is the one-call version::

    from repro.runtime import collapse_and_run

    data = collapse_and_run("utma", {"N": 512}, workers=4, schedule="adaptive")

The module-level default session behind it starts its engine lazily on the
first call and is torn down at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..openmp.schedule import ScheduleSpec
from .engine import RunResult, RuntimeEngine
from .plan import ExecutionPlan, PlanError, build_plan
from .profile import (
    ProfileError,
    choose_backend,
    default_profile_store,
    flush_profile_stores,
    profile_key,
)
from .shm import SharedBuffers


def _profile_key_or_none(source, parameter_values, schedule, depth=None) -> Optional[str]:
    """The source's profile-store key, or ``None`` for unfingerprintable ones."""
    try:
        return profile_key(source, parameter_values, schedule, depth=depth)
    except ProfileError:
        return None


def resolve_auto_backend(
    source,
    parameter_values: Mapping[str, int],
    schedule: object = "adaptive",
    depth: Optional[int] = None,
    data=None,
    store=None,
    allow_native: bool = True,
    **plan_kwargs,
) -> str:
    """The substrate ``backend="auto"`` runs on: measured when warm, heuristic when cold.

    The decision has two stages.  *Viability* first: ``native`` needs a
    native-capable source (a kernel ``c_body``, a parseable nest — with
    caller ``data`` — or an explicit ``c_body=``), a present C compiler and
    ``allow_native`` (sessions clear it when engine-only options like
    ``depth`` or Python operations are in play); ``hybrid`` needs the same
    native capability and compiler; ``engine`` needs Python operations (an
    executable kernel or ``iteration_op``/``chunk_op``).  On machines with
    ``os.cpu_count() <= 2`` the ``hybrid`` candidate is dropped whenever
    ``native`` is viable — per-chunk dispatch through a 1–2 worker pool
    cannot beat the whole-range OpenMP call there, so auto pins native
    (mirroring ``benchmarks/bench_hybrid_backend.py``'s derated gate).

    Then *choice*: among the viable candidates,
    :func:`~repro.runtime.profile.choose_backend` explores any substrate the
    :class:`~repro.runtime.profile.ProfileStore` has no timing for yet (in
    heuristic order — the decision matrix of docs/architecture.md) and
    afterwards exploits the measured-fastest by median whole-run seconds.

    Degradation mirrors the hybrid contract: with nothing viable the
    function returns ``"engine"`` rather than raising, so the caller sees
    the engine's actionable error (missing ops, unknown kernel) instead of
    a second-hand resolver failure.
    """
    backend, _settled = _resolve_auto(
        source,
        parameter_values,
        schedule=schedule,
        depth=depth,
        data=data,
        store=store,
        allow_native=allow_native,
        **plan_kwargs,
    )
    return backend


def _resolve_auto(
    source,
    parameter_values: Mapping[str, int],
    schedule: object = "adaptive",
    depth: Optional[int] = None,
    data=None,
    store=None,
    allow_native: bool = True,
    **plan_kwargs,
) -> Tuple[str, bool]:
    """:func:`resolve_auto_backend` plus a *settled* flag.

    ``settled`` is ``True`` only for an exploit-phase choice — every viable
    candidate has a recorded timing, so the decision is stable enough for
    :class:`RuntimeSession` to memoise; an exploration pick or a degraded
    default must be re-resolved on the next call.
    """
    from ..ir import LoopNest
    from ..kernels import Kernel, get_kernel
    from ..native import native_available

    resolved = get_kernel(source) if isinstance(source, str) else source
    kernel = resolved if isinstance(resolved, Kernel) else None

    python_ops = (kernel is not None and kernel.is_executable) or any(
        plan_kwargs.get(name) is not None for name in ("iteration_op", "chunk_op")
    )
    native_capable = plan_kwargs.get("c_body") is not None
    if kernel is not None:
        native_capable = native_capable or kernel.supports_native
    elif isinstance(resolved, LoopNest) and not native_capable:
        from ..ir.parser import ParseError, native_body

        try:
            native_body(resolved)
        except ParseError:
            native_capable = False
        else:
            native_capable = True
    compiled = native_capable and native_available()

    whole_range_ok = kernel is not None or (isinstance(resolved, LoopNest) and data is not None)
    candidates = []
    if compiled and allow_native and whole_range_ok:
        candidates.append("native")
    if compiled:
        candidates.append("hybrid")
    if python_ops:
        candidates.append("engine")
    if not candidates:
        return "engine", False

    cpus = os.cpu_count() or 1
    if cpus <= 2 and "native" in candidates and "hybrid" in candidates:
        candidates.remove("hybrid")
    heuristic = ("native", "engine") if cpus <= 2 else ("hybrid", "native", "engine")
    if len(candidates) == 1:
        return candidates[0], True
    key = _profile_key_or_none(source, parameter_values, schedule, depth)
    profiles = (store or default_profile_store()).load(key) if key else {}
    settled = all(
        name in profiles and profiles[name].median_elapsed is not None
        for name in candidates
    )
    return choose_backend(profiles, candidates, heuristic), settled


def _structural_key(plan_source, parameter_values, spec, depth) -> tuple:
    """A hashable identity for plan caching (mirrors the collapse cache key)."""
    from ..ir import LoopNest
    from ..kernels import Kernel

    if isinstance(plan_source, str):
        source_key: tuple = ("kernel", plan_source)
    elif isinstance(plan_source, Kernel):
        source_key = ("kernel", plan_source.name)
    elif isinstance(plan_source, LoopNest):
        source_key = (
            "nest",
            plan_source.name,
            tuple((l.iterator, l.lower, l.upper) for l in plan_source.loops),
            tuple(plan_source.parameters),
            # statements are behavior now, not just metadata: hybrid/native
            # plans compile their C body from them, so two same-shaped nests
            # with different statements must never share a plan
            tuple(
                (
                    statement.name,
                    statement.c_text,
                    tuple(str(access) for access in statement.accesses),
                    getattr(statement.compute, "__qualname__", None),
                )
                for statement in plan_source.statements
            ),
        )
    else:
        # CollapsedLoop: identity is safe *because* the cache pins it — the
        # cached plan holds the collapsed loop, so its id cannot be recycled
        # while the entry (and thus this key) exists
        source_key = ("object", id(plan_source))
    return (
        source_key,
        depth,
        tuple(sorted((k, int(v)) for k, v in parameter_values.items())),
        str(spec),
    )


#: the substrates ``RuntimeSession.run`` dispatches to (``"auto"`` resolves
#: to one of them)
BACKENDS = ("engine", "hybrid", "native")

#: plan options that only shape the compiled translation unit: an engine
#: plan rejects them, so a run that lands on the engine drops them
NATIVE_PLAN_OPTIONS = ("c_body", "c_arrays", "array_ndims", "compile_flags")


def _without_native_options(plan_kwargs: Mapping[str, object]) -> Dict[str, object]:
    return {name: value for name, value in plan_kwargs.items() if name not in NATIVE_PLAN_OPTIONS}


def _engine_only_options(depth, fresh_data, plan_kwargs) -> list:
    """The options of one run only the worker pool honours, by name.

    The native backend rejects them instead of silently dropping them, and
    ``auto`` leaves native out of its candidates while any is in play.
    """
    names = sorted(_without_native_options(plan_kwargs))
    if depth is not None:
        names.append("depth")
    if fresh_data is not True:
        names.append("fresh_data")
    return names


#: settled auto resolutions are reused this many times before the session
#: re-reads the profile store — new measurements land every run, but medians
#: over the elapsed window move slowly, so a bounded-staleness memo buys back
#: the resolver's store read on the hot path without freezing the choice
AUTO_REVALIDATE_EVERY = 8


class RuntimeSession:
    """Plan cache + persistent engine + (optionally) persistent buffers."""

    def __init__(self, workers: int = 2, start_method: Optional[str] = None):
        self.engine = RuntimeEngine(workers=workers, start_method=start_method)
        self._plans: Dict[tuple, ExecutionPlan] = {}
        self._buffers: Dict[str, SharedBuffers] = {}  # plan_id -> session-owned buffers
        #: settled ``backend="auto"`` resolutions, re-validated every
        #: AUTO_REVALIDATE_EVERY uses: (profile key, option signature) ->
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
        depth: Optional[int] = None,
        **plan_kwargs,
    ) -> ExecutionPlan:
        """The cached plan of (source, parameters, schedule); built on miss."""
        spec = ScheduleSpec.parse(schedule)
        key = _structural_key(source, parameter_values, spec, depth) + (
            tuple(sorted(
                # module + qualname: two same-named functions from different
                # modules must not share a cached plan
                (
                    name,
                    f"{getattr(value, '__module__', '')}.{value.__qualname__}"
                    if hasattr(value, "__qualname__")
                    else repr(value),
                )
                for name, value in plan_kwargs.items()
            )),
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                plan = build_plan(
                    source, parameter_values, schedule=spec, depth=depth, **plan_kwargs
                )
                self._plans[key] = plan
        return plan

    def _plan(self, backend, source, parameter_values, schedule, depth, plan_kwargs):
        """The cached plan ``backend`` runs; native and hybrid share the compiled one.

        Where no C compiler exists, ``hybrid`` degrades to the engine plan
        (same result, without the per-chunk C speed); ``native`` raises
        :class:`~repro.native.NativeUnavailable`, because its OpenMP team
        and schedule are the thing being requested.  A compilation
        *failure* with a compiler present (e.g. a broken caller ``c_body``)
        raises on both, because silence there would hide a bug.
        """
        if backend == "engine":
            return self.plan_for(source, parameter_values, schedule, depth, **plan_kwargs)
        # deferred import: the native backend is optional
        from ..native import NativeUnavailable, native_available

        try:
            return self.plan_for(
                source, parameter_values, schedule, depth, native=True, **plan_kwargs
            )
        except NativeUnavailable as unavailable:
            if backend == "native" or native_available():
                raise
            try:
                return self.plan_for(
                    source, parameter_values, schedule, depth,
                    **_without_native_options(plan_kwargs),
                )
            except PlanError:
                # the engine cannot run this source either (no Python ops):
                # the actionable problem is the missing compiler, so that is
                # the error the caller must see
                raise unavailable from None

    def cache_info(self) -> Dict[str, int]:
        return {"plans": len(self._plans), "buffers": len(self._buffers)}

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        source,
        parameter_values: Mapping[str, int],
        data=None,
        schedule: object = "adaptive",
        depth: Optional[int] = None,
        fresh_data: bool = True,
        backend: str = "engine",
        threads: Optional[int] = None,
        **plan_kwargs,
    ):
        """Collapse (cached), plan (cached), execute on the chosen substrate.

        For a kernel source the return value is the kernel's result
        ``DataDict`` (private copies — safe to keep).  ``data`` seeds the
        run; with ``data=None`` the kernel's ``make_data`` output is used,
        and on the worker pool the session keeps the shared buffers
        attached across calls, with ``fresh_data=True`` (the default)
        re-initialising them in place each run — steady-state runs allocate
        nothing.

        Nest/collapsed-loop sources run against the caller's ``data``
        arrays, which are mutated in place, and the return value is the
        :class:`~repro.runtime.engine.RunResult`.  On the engine they need
        their operations passed through ``plan_kwargs``
        (``iteration_op=``/``chunk_op=``, module-level functions); on the
        compiled backends a C body (``c_body=``/``c_arrays=``, or the
        statements of a parsed nest).

        ``backend`` selects the execution substrate; every backend runs the
        session's cached plan of (source, parameters, schedule), and native
        and hybrid share one compiled plan, lint audit included:

        * ``"engine"`` (default) — chunks dispatched to the persistent
          worker pool, executed by the Python/NumPy operations;
        * ``"hybrid"`` — same pool, same schedules (including
          ``"adaptive"``), but each worker executes its chunks through the
          compiled translation unit's serial ``repro_run_range`` (the
          parent compiles once — disk-cached under ``$REPRO_NATIVE_CACHE``
          — and workers attach the shared object by path).  Where no C
          compiler exists (``$CC``, ``cc``, ``gcc``, ``clang`` all absent)
          the call *falls back to the engine backend* instead of raising;
        * ``"native"`` — one in-process ``ctypes`` call into the same
          unit's whole-range OpenMP ``repro_run`` (``adaptive`` has no
          OpenMP spelling and runs as ``static``).  Raises
          :class:`~repro.native.NativeUnavailable` without a compiler, and
          :class:`PlanError` for the engine-only options (Python
          operations, ``oversubscribe``, ``depth``, ``fresh_data``) rather
          than silently dropping them.

        ``c_body``/``c_arrays``/``array_ndims``/``compile_flags`` shape the
        compiled unit and are taken by both compiled backends.

        ``backend="auto"`` closes the measure→schedule loop one level up:
        every run (any backend) banks its timings in the persistent
        :class:`~repro.runtime.profile.ProfileStore` under the plan's key,
        and ``auto`` resolves to the viable substrate those profiles say is
        fastest — exploring each untimed candidate once (heuristic order)
        before exploiting the measured best.  Cold stores fall back to the
        static decision matrix; an unviable candidate set degrades to the
        engine, mirroring the hybrid missing-compiler contract.

        ``threads`` caps the native OpenMP team (defaulting to the engine's
        worker count) and is rejected on the engine/hybrid backends, whose
        parallelism is the session's ``workers``.
        """
        from ..kernels import get_kernel

        if backend == "auto":
            backend = self._auto_backend(
                source, parameter_values, data, schedule, depth, fresh_data, threads,
                plan_kwargs,
            )
            if backend == "engine":
                # an auto resolution landing on the engine must not forward
                # native-plan options an ad-hoc nest carried for the compiled
                # candidates; an *explicitly* requested engine backend still
                # rejects them — that is a caller mistake, not a degradation
                plan_kwargs = _without_native_options(plan_kwargs)
        if backend not in BACKENDS:
            raise PlanError(
                f"unknown backend {backend!r}; expected 'auto', 'engine', 'hybrid' "
                "or 'native'"
            )
        if backend == "native":
            engine_only = _engine_only_options(depth, fresh_data, plan_kwargs)
            if engine_only:
                raise PlanError(
                    f"the native backend does not take {engine_only}; these are "
                    "engine-only options — use backend='engine'"
                )
        elif threads is not None:
            raise PlanError(
                "threads is a native-backend option; the engine's parallelism is "
                "the session's worker count (set workers= when creating it)"
            )

        plan = self._plan(backend, source, parameter_values, schedule, depth, plan_kwargs)
        kernel = get_kernel(plan.kernel_name) if plan.kernel_name is not None else None

        if backend == "native":
            # the native substrate runs in this process: plain arrays, no
            # shared-memory staging — the caller's own arrays for a nest,
            # private copies (or fresh kernel data) for a kernel
            if kernel is None:
                if data is None:
                    raise PlanError(
                        f"running nest {plan.collapsed.nest.name!r} natively needs "
                        f"data= arrays for {list(plan.native_spec.arrays)}"
                    )
                return self._dispatch(backend, plan, data, threads)
            arrays = (
                {name: np.copy(value) for name, value in data.items()}
                if data is not None
                else kernel.make_data(parameter_values)
            )
            self._dispatch(backend, plan, arrays, threads)
            return arrays

        if kernel is None:
            if data is None:
                return self._dispatch(backend, plan)
            # nest sources run over the caller's arrays: stage them in shared
            # memory, execute, and copy the mutations back in place
            with SharedBuffers.create(dict(data)) as buffers:
                result = self._dispatch(backend, plan, buffers)
                for name, value in buffers.arrays.items():
                    data[name][...] = value
                self.engine.forget(plan)
            return result

        if data is not None:
            with SharedBuffers.create(dict(data)) as buffers:
                self._dispatch(backend, plan, buffers)
                result = buffers.snapshot()
                # workers must not keep mappings of segments about to vanish
                self.engine.forget(plan)
            return result

        buffers = self._buffers.get(plan.plan_id)
        if buffers is None or buffers.closed:
            buffers = SharedBuffers.create(kernel.make_data(parameter_values))
            self._buffers[plan.plan_id] = buffers
        elif fresh_data:
            buffers.fill_from(kernel.make_data(parameter_values))
        self._dispatch(backend, plan, buffers)
        return buffers.snapshot()

    def _auto_backend(
        self, source, parameter_values, data, schedule, depth, fresh_data, threads, plan_kwargs
    ) -> str:
        """The backend ``backend="auto"`` stands for on this call.

        A caller pinning ``threads`` (the OpenMP team size) has already
        chosen native.  Otherwise settled resolutions are memoised for
        :data:`AUTO_REVALIDATE_EVERY` uses; the native candidate is only
        considered when no engine-only option is in play.
        """
        if threads is not None:
            return "native"
        allow_native = not _engine_only_options(depth, fresh_data, plan_kwargs)
        memo_key = (
            _profile_key_or_none(source, parameter_values, schedule, depth),
            allow_native,
            data is None,
        )
        cached = self._auto_memo.get(memo_key) if memo_key[0] else None
        if cached is not None and cached[1] > 0:
            self._auto_memo[memo_key] = (cached[0], cached[1] - 1)
            return cached[0]
        backend, settled = _resolve_auto(
            source,
            parameter_values,
            schedule=schedule,
            depth=depth,
            data=data,
            allow_native=allow_native,
            **plan_kwargs,
        )
        if memo_key[0] is not None and settled:
            self._auto_memo[memo_key] = (backend, AUTO_REVALIDATE_EVERY)
        else:
            self._auto_memo.pop(memo_key, None)
        return backend

    def _dispatch(self, backend, plan, buffers=None, threads=None) -> RunResult:
        """Run ``plan`` once on ``backend``'s substrate and bank the timings.

        The one per-backend step of a run: ``native`` calls the plan's
        compiled whole-range ``repro_run`` on the staged arrays in this
        process; ``engine`` and ``hybrid`` hand the plan's chunks to the
        worker pool over the shared ``buffers``.
        """
        if backend == "native":
            result = plan.native_module.run(
                buffers, plan.parameter_values, threads=threads or self.engine.workers
            )
        else:
            result = self.engine.execute(plan, buffers=buffers)
        self._bank(plan.profile_key, result)
        return result

    def execute(self, plan: ExecutionPlan, buffers: Optional[SharedBuffers] = None) -> RunResult:
        """Engine pass-through for callers managing plans/buffers themselves.

        Like every session execution path, the run's timings are banked in
        the profile store under the plan's ``profile_key`` (when it has one)
        — recording is the session layer's job, so direct-engine callers
        stay profile-free.
        """
        return self._dispatch("engine", plan, buffers)

    def _bank(self, key: Optional[str], result: RunResult) -> None:
        """Bank one run's timings in the profile store's in-memory table.

        Disk is only written by the store's flush, which logs a failure
        instead of raising, so a run never fails on its profile.
        """
        if key is None:
            return
        default_profile_store().record(
            key,
            result.backend,
            elapsed_seconds=float(result.elapsed_seconds),
            workers=int(result.workers) or self.engine.workers,
            total_iterations=int(result.iterations),
            chunks=result.chunk_records(),
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush the banked profiles, shut the engine down and unlink every
        session-owned segment."""
        flush_profile_stores()
        self.engine.shutdown()
        for buffers in self._buffers.values():
            buffers.close()
        self._buffers.clear()
        self._plans.clear()
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
    :class:`~repro.kernels.Kernel`, a nest or a collapsed loop; see
    :meth:`RuntimeSession.run`.  Without an explicit ``session`` the default
    session is used (its engine starts on the first call and persists, so
    repeated calls pay no pool start-up; ``workers`` only takes effect on
    the call that creates it).

    ``backend`` picks the execution substrate (full decision matrix in
    ``docs/architecture.md``):

    * ``"engine"`` (default) — persistent worker pool, Python/NumPy chunk
      execution, every schedule policy including ``"adaptive"``;
    * ``"hybrid"`` — the same pool and schedules, each chunk executed
      natively through the compiled translation unit's ``repro_run_range``
      (adaptive scheduling *and* C speed; falls back to ``"engine"`` when
      no C compiler is found);
    * ``"native"`` — one whole-range call into the compiled C/OpenMP
      ``repro_run`` (raises :class:`~repro.native.NativeUnavailable`
      without a compiler);
    * ``"auto"`` — profile-guided choice among the above: every run banks
      its timings in the persistent profile store
      (``$REPRO_PROFILE_DIR``, default ``~/.cache/repro-profile``), and
      ``auto`` explores each viable substrate once, then runs the
      measured-fastest (see docs/runtime.md, "Online autotuning").

    Compiled shared objects are cached on disk under
    ``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-native``) and the
    compiler is picked from ``$CC``, then ``cc``/``gcc``/``clang``::

        data = collapse_and_run("utma", {"N": 512}, backend="hybrid")
    """
    session = session or default_session(workers=workers)
    return session.run(source, parameter_values, data=data, schedule=schedule, **run_kwargs)
