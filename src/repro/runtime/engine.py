"""The persistent shared-memory parallel execution engine.

:class:`RuntimeEngine` is a pool that outlives the calls: worker processes
start once, register each :class:`ExecutionPlan` once (re-collapsing
nothing — the solved unranking arrives pickled and only the cheap NumPy
code generation reruns locally), attach the shared-memory kernel arrays
once, and from then on every run is pure chunk dispatch over pre-compiled
state.

The parent *is* the OpenMP runtime of this design: it owns one command
queue per worker plus a single result queue, and hands chunks out the way
the schedule demands —

* **static** families: every chunk goes straight to its pre-assigned
  worker's queue (zero scheduling decisions at run time, like
  ``schedule(static)``),
* **dynamic / guided / adaptive**: each worker is primed with one chunk and
  receives the next one the moment it reports a result — the classic
  work-queue hand-out, with chunk granularity decided by the plan.

Results come back as per-chunk iteration counts (plus per-chunk wall-clock
times, for load-balance analysis); the kernel data itself never travels,
it lives in the shared segments.  Worker exceptions are captured with their
traceback, the in-flight chunks are drained, and an :class:`EngineError`
is raised in the parent — the pool stays usable.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..openmp.schedule import Chunk, ScheduleSpec
from .plan import ExecutionPlan
from .shm import SharedArraySpec, SharedBuffers

_ENGINE_IDS = itertools.count(1)

#: seconds the parent waits for a single chunk result before declaring the
#: pool wedged; generous, because a chunk may legitimately carry a large
#: fraction of a long kernel run.
DEFAULT_TASK_TIMEOUT = 300.0


class EngineError(RuntimeError):
    """Raised when a worker fails or the pool is in the wrong state."""


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run on any backend.

    ``results`` are the executed-iteration counts of each unit of work,
    ``assignments`` the worker (or OpenMP thread) that ran it,
    ``chunk_seconds`` its own wall-clock time inside the substrate (the
    load-balance view; their sum can exceed ``elapsed_seconds`` when
    workers overlap).  ``backend`` names the execution substrate that
    *actually* ran: ``"engine"`` (Python/NumPy chunk ops — including a
    hybrid plan whose workers had to degrade), ``"hybrid"`` (every chunk
    went through the plan's compiled ``repro_run_range``) or ``"native"``
    (one whole-range OpenMP ``repro_run``).

    **Timing schema** (one contract across every backend; asserted by
    ``tests/runtime/test_timing_schema.py``):

    * ``chunks``, ``results``, ``assignments`` and ``chunk_seconds`` are
      index-aligned — entry *k* of each describes the same unit of work:
      a scheduled chunk on the engine and hybrid backends, an OpenMP
      thread's whole span on the native backend (threads that executed no
      iteration are omitted there);
    * every value in ``chunk_seconds`` is wall-clock **seconds on a
      monotonic clock, measured inside the executing substrate** —
      ``time.perf_counter`` around the chunk body in an engine worker,
      ``omp_get_wtime`` inside the compiled ``repro_run_range`` for
      hybrid chunks and inside ``repro_run`` for native threads — so
      queue latency and dispatch overhead are excluded on all backends;
    * ``elapsed_seconds`` is the parent's ``time.perf_counter`` span
      around the whole run (dispatch included): the number backends are
      *compared* by, where ``chunk_seconds`` is what schedules are
      *re-cut* from.

    Under OpenMP dynamic/guided schedules a native thread's ``pc`` span
    may overlap other threads' (its chunks need not be contiguous), which
    is why :attr:`iterations` sums the executed counts rather than the
    span sizes, and why profile-guided re-cutting only trusts spans whose
    recorded sizes sum to the trip count.

    :meth:`chunk_records` renders the per-chunk view in the profile
    store's :class:`~repro.runtime.profile.ChunkProfile` schema.
    """

    results: Tuple[int, ...]
    elapsed_seconds: float
    chunks: Tuple[Chunk, ...]
    workers: int
    schedule: ScheduleSpec
    assignments: Tuple[int, ...] = ()
    chunk_seconds: Tuple[float, ...] = ()
    backend: str = "engine"

    @property
    def iterations(self) -> int:
        return sum(self.results)

    def chunk_records(self):
        """The run's measurements as profile-store :class:`ChunkProfile` rows.

        One row per chunk with a recorded time, pairing the chunk's ``pc``
        span with its substrate-internal seconds — the exact payload
        :meth:`ProfileStore.record <repro.runtime.profile.ProfileStore.record>`
        banks and :func:`~repro.runtime.profile.profile_guided_chunks`
        re-cuts from.
        """
        from .profile import ChunkProfile  # deferred: profile imports schedule

        return tuple(
            ChunkProfile(first_pc=chunk.first, last_pc=chunk.last, seconds=float(seconds))
            for chunk, seconds in zip(self.chunks, self.chunk_seconds)
        )


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #
class _WorkerPlan:
    """Per-worker state of one registered plan: ops resolved, recovery built."""

    def __init__(self, payload: dict):
        from ..core import batch_recovery, chunk_iterator_factory

        self.collapsed = payload["collapsed"]
        self.parameter_values = payload["parameter_values"]
        self.iteration_op = payload["iteration_op"]
        self.chunk_op = payload["chunk_op"]
        self.native = payload.get("native")
        self.native_runner = None
        self.buffers: Optional[SharedBuffers] = None
        kernel_name = payload["kernel_name"]
        if kernel_name is not None:
            from ..kernels import get_kernel

            kernel = get_kernel(kernel_name)
            self.iteration_op = kernel.iteration_op
            self.chunk_op = kernel.chunk_op
        self.batch = batch_recovery(self.collapsed)
        self.chunk_indices = chunk_iterator_factory(
            self.collapsed, self.parameter_values, "compiled"
        )

    def attach(self, specs: Tuple[SharedArraySpec, ...]) -> None:
        self.release_buffers()
        self.buffers = SharedBuffers.attach(specs)
        self._bind_native()

    def _bind_native(self) -> None:
        """Load the plan's compiled library (once) and bind the new buffers.

        The parent compiled the translation unit before dispatching; this
        side only ``dlopen``\\ s the cached shared object by path.  A load
        or bind failure (the cache wiped between compile and dispatch, data
        the C ABI cannot take — wrong dtype/rank) degrades to the Python
        operations, which compute the identical result — hybrid is a speed
        contract, not a semantic one.  Only a plan with *no* Python
        operations re-raises, because nothing could execute its chunks.
        """
        self.native_runner = None
        if self.native is None or self.buffers is None:
            return
        from ..native.module import NativeChunkRunner, NativeExecutionError

        try:
            runner = NativeChunkRunner(self.native)
            runner.bind(self.buffers.arrays, self.parameter_values)
        except (OSError, NativeExecutionError):
            if self.iteration_op is None and self.chunk_op is None:
                raise  # native-only plan: surfaced at the first chunk
            # fall back to the Python ops for *these* buffers only — the
            # spec stays, so the next attach (new buffers, restored cache)
            # retries the native binding
            return
        self.native_runner = runner

    def release_buffers(self) -> None:
        self.native_runner = None  # pointer tables reference the mapped views
        if self.buffers is not None:
            self.buffers.close()
            self.buffers = None

    def execute(self, first_pc: int, last_pc: int) -> Tuple[int, Optional[float]]:
        """Run one chunk against the attached shared arrays.

        Returns ``(count, seconds)`` where ``seconds`` is the chunk's own
        wall-clock measured *inside* the substrate when it can measure
        itself (the compiled ``repro_run_range`` reports ``omp_get_wtime``
        through the ABI) and ``None`` otherwise — the dispatch loop then
        substitutes its own ``perf_counter`` span around this call, which
        for the Python paths is the same "inside the worker, outside the
        queue" measurement.  Preference order: the plan's compiled
        ``repro_run_range`` (hybrid backend, one foreign call per chunk),
        then the vectorized ``chunk_op`` over a batch-recovered index
        array, then the scalar ``iteration_op`` walk.
        """
        if self.native_runner is not None:
            return self.native_runner.run_range_timed(first_pc, last_pc)
        data = self.buffers.arrays if self.buffers is not None else {}
        if self.chunk_op is not None:
            indices = self.batch.recover_range(first_pc, last_pc, self.parameter_values)
            self.chunk_op(data, indices, self.parameter_values)
            return int(indices.shape[0]), None
        if self.iteration_op is None:
            raise EngineError(
                "plan has no Python operations to fall back on (native-only plan "
                "whose compiled library could not be loaded in this worker)"
            )
        count = 0
        for index_tuple in self.chunk_indices(first_pc, last_pc):
            self.iteration_op(data, index_tuple, self.parameter_values)
            count += 1
        return count, None


def _worker_main(worker_id: int, commands, results) -> None:
    """Dispatch loop of one persistent worker (module-level: spawn-safe)."""
    plans: Dict[str, Any] = {}  # plan_id -> _WorkerPlan | Exception
    while True:
        message = commands.get()
        tag = message[0]
        if tag == "stop":
            for state in plans.values():
                if isinstance(state, _WorkerPlan):
                    state.release_buffers()
            break
        if tag == "plan":
            payload = message[1]
            try:
                plans[payload["plan_id"]] = _WorkerPlan(payload)
            except Exception as error:  # surfaced at the first chunk of the plan
                plans[payload["plan_id"]] = error
        elif tag == "buffers":
            _plan_id, specs = message[1], message[2]
            state = plans.get(_plan_id)
            if isinstance(state, _WorkerPlan):
                try:
                    state.attach(specs)
                except Exception as error:
                    plans[_plan_id] = error
        elif tag == "release":
            state = plans.pop(message[1], None)
            if isinstance(state, _WorkerPlan):
                state.release_buffers()
        elif tag == "chunk":
            _tag, task_id, plan_id, first_pc, last_pc = message
            state = plans.get(plan_id)
            started = time.perf_counter()
            try:
                if isinstance(state, Exception):
                    raise state
                if state is None:
                    raise EngineError(f"plan {plan_id!r} is not registered in worker {worker_id}")
                count, inner_seconds = state.execute(first_pc, last_pc)
                native = state.native_runner is not None
                # one timing schema for every substrate: the C-internal
                # measurement when the chunk ran natively, the worker's own
                # perf_counter span around the Python ops otherwise — both
                # exclude queue latency, so profiles compare across backends
                seconds = (
                    inner_seconds
                    if inner_seconds is not None
                    else time.perf_counter() - started
                )
                results.put(("ok", task_id, worker_id, count, seconds, native))
            except Exception:
                results.put(("error", task_id, worker_id, traceback.format_exc(), 0.0))


# ---------------------------------------------------------------------- #
# the engine
# ---------------------------------------------------------------------- #
class RuntimeEngine:
    """A persistent pool of workers executing :class:`ExecutionPlan` chunks.

    Use as a context manager (or call :meth:`start`/:meth:`shutdown`)::

        plan = build_plan("utma", {"N": 512}, schedule="adaptive")
        with SharedBuffers.create(data) as buffers, RuntimeEngine(workers=4) as engine:
            first = engine.execute(plan, buffers=buffers)    # registers + runs
            again = engine.execute(plan, buffers=buffers)    # pure dispatch

    The pool forks on Linux (inheriting warm memo caches) and spawns
    elsewhere; either way a worker builds each plan's compiled state exactly
    once, so repeated executions cost only queue traffic and chunk compute.
    """

    def __init__(
        self,
        workers: int = 2,
        start_method: Optional[str] = None,
        task_timeout: float = DEFAULT_TASK_TIMEOUT,
    ):
        if workers < 1:
            raise EngineError("workers must be at least 1")
        if start_method is None:
            start_method = "fork" if sys.platform.startswith("linux") else "spawn"
        self.workers = workers
        self.start_method = start_method
        self.task_timeout = task_timeout
        self.engine_id = f"engine-{next(_ENGINE_IDS)}-{os.getpid()}"
        self._context = multiprocessing.get_context(start_method)
        self._processes: List[multiprocessing.Process] = []
        self._commands: List[Any] = []
        self._results: Optional[Any] = None
        self._registered: Dict[str, Tuple[SharedArraySpec, ...]] = {}
        self._tasks = itertools.count(1)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return bool(self._processes)

    def start(self) -> "RuntimeEngine":
        if self.started:
            return self
        try:
            # spawn the shared-memory resource tracker *before* forking, so
            # every worker inherits it: attachments then register against the
            # owner's tracker (idempotent) instead of each worker spawning a
            # private one that later "cleans up" segments the owner unlinked
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - semi-private API, best effort
            pass
        self._results = self._context.Queue()
        self._commands = [self._context.Queue() for _ in range(self.workers)]
        for worker_id, commands in enumerate(self._commands):
            process = self._context.Process(
                target=_worker_main,
                args=(worker_id, commands, self._results),
                name=f"{self.engine_id}-w{worker_id}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers (idempotent); terminates stragglers after ``timeout``."""
        if not self.started:
            return
        for commands in self._commands:
            try:
                commands.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._processes:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=1.0)
        for commands in self._commands:
            commands.close()
        if self._results is not None:
            self._results.close()
        self._processes = []
        self._commands = []
        self._results = None
        self._registered = {}

    def __enter__(self) -> "RuntimeEngine":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # plan management
    # ------------------------------------------------------------------ #
    def _broadcast(self, message: tuple) -> None:
        for commands in self._commands:
            commands.put(message)

    def register(self, plan: ExecutionPlan, buffers: Optional[SharedBuffers] = None) -> None:
        """Ship a plan (and optionally its buffers) to every worker once."""
        self.start()
        specs = buffers.specs if buffers is not None else ()
        if plan.plan_id not in self._registered:
            self._broadcast(("plan", plan.payload()))
            self._registered[plan.plan_id] = None
        if buffers is not None and self._registered[plan.plan_id] != specs:
            self._broadcast(("buffers", plan.plan_id, specs))
            self._registered[plan.plan_id] = specs

    def forget(self, plan: ExecutionPlan) -> None:
        """Drop a plan's compiled state and buffer attachments in every worker."""
        if self.started and plan.plan_id in self._registered:
            self._broadcast(("release", plan.plan_id))
        self._registered.pop(plan.plan_id, None)

    def detach(self, specs: Tuple[SharedArraySpec, ...]) -> None:
        """:meth:`forget` every plan whose workers hold these buffers attached."""
        for plan_id, attached in list(self._registered.items()):
            if attached == specs:
                self._broadcast(("release", plan_id))
                del self._registered[plan_id]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _get_result(self) -> tuple:
        """Wait for one worker message, diagnosing a wedged or dead pool.

        Waits in short slices so a worker that *died* (killed, or crashed on
        a message it could not even unpickle — e.g. a function defined after
        the pool forked) surfaces as an immediate :class:`EngineError`
        instead of a silent hang until ``task_timeout``.
        """
        assert self._results is not None
        deadline = time.monotonic() + self.task_timeout
        while True:
            try:
                return self._results.get(timeout=min(0.5, self.task_timeout))
            except queue_module.Empty:
                dead = [p.name for p in self._processes if not p.is_alive()]
                if dead:
                    self.shutdown(timeout=0.5)  # next execute() starts a fresh pool
                    raise EngineError(
                        f"engine workers died with tasks outstanding: {dead}; "
                        "dispatched functions must be module-level and defined "
                        "before the pool starts"
                    ) from None
                if time.monotonic() >= deadline:
                    raise EngineError(f"no result within {self.task_timeout}s") from None

    def _run_tasks(self, assigned, on_demand) -> Dict[int, tuple]:
        """Dispatch pre-assigned and on-demand tasks; collect every result.

        ``assigned`` maps worker_id -> [(task_id, message)] (the static
        hand-out); ``on_demand`` is an ordered list of (task_id, message):
        each worker is primed with one and gets the next the moment it
        reports back (the dynamic hand-out).  Returns task_id ->
        ("ok", value, worker, seconds, native) — ``native`` reports whether
        the worker executed the chunk through a compiled library; raises
        after draining every in-flight task if any worker errored, leaving
        the pool clean.
        """
        outcomes: Dict[int, tuple] = {}
        failures: List[str] = []
        outstanding = 0
        for worker_id, tasks in assigned.items():
            for _task_id, message in tasks:
                self._commands[worker_id].put(message)
                outstanding += 1
        pending = list(on_demand)
        for worker_id in range(min(len(pending), self.workers)):
            _task_id, message = pending.pop(0)
            self._commands[worker_id].put(message)
            outstanding += 1
        while outstanding:
            message = self._get_result()
            tag, task_id, worker_id = message[0], message[1], message[2]
            if pending:  # the reporting worker is idle now: feed it the next chunk
                _task_id, next_message = pending.pop(0)
                self._commands[worker_id].put(next_message)
                outstanding += 1
            if tag == "error":
                failures.append(f"worker {worker_id}:\n{message[3]}")
                outcomes[task_id] = ("error", None, worker_id, 0.0, False)
            else:
                native = message[5] if len(message) > 5 else False
                outcomes[task_id] = ("ok", message[3], worker_id, message[4], native)
            outstanding -= 1
        if failures:
            raise EngineError("engine worker failed:\n" + "\n".join(failures))
        return outcomes

    def execute(
        self,
        plan: ExecutionPlan,
        buffers: Optional[SharedBuffers] = None,
        chunks: Optional[Sequence[Chunk]] = None,
    ) -> RunResult:
        """Run a plan once over its schedule's chunks; returns per-chunk counts.

        Registration and buffer attachment happen lazily on the first call
        (and whenever ``buffers`` changes); subsequent calls are pure
        dispatch.  Static-family chunks go to their pre-assigned workers,
        chunks without a thread are handed out on demand.
        """
        self.register(plan, buffers)
        chunk_list = list(chunks) if chunks is not None else plan.chunks(self.workers)
        if not chunk_list:
            return RunResult(
                results=(), elapsed_seconds=0.0, chunks=(), workers=self.workers,
                schedule=plan.schedule,
                backend="hybrid" if plan.native_spec is not None else "engine",
            )
        start = time.perf_counter()
        assigned: Dict[int, list] = {}
        on_demand: List[Tuple[int, tuple]] = []
        task_ids: List[int] = []
        for chunk in chunk_list:
            task_id = next(self._tasks)
            task_ids.append(task_id)
            message = ("chunk", task_id, plan.plan_id, chunk.first, chunk.last)
            if chunk.thread is not None:
                assigned.setdefault(chunk.thread % self.workers, []).append((task_id, message))
            else:
                on_demand.append((task_id, message))
        outcomes = self._run_tasks(assigned, on_demand)
        elapsed = time.perf_counter() - start
        ordered = [outcomes[task_id] for task_id in task_ids]
        # the substrate that *actually executed*: a hybrid plan whose workers
        # all ran the compiled library reports "hybrid"; if any worker had to
        # degrade to the Python ops (library unloadable, un-bindable data),
        # the honest answer is "engine"
        backend = (
            "hybrid"
            if plan.native_spec is not None and all(outcome[4] for outcome in ordered)
            else "engine"
        )
        return RunResult(
            results=tuple(outcome[1] for outcome in ordered),
            elapsed_seconds=elapsed,
            chunks=tuple(chunk_list),
            workers=self.workers,
            schedule=plan.schedule,
            assignments=tuple(outcome[2] for outcome in ordered),
            chunk_seconds=tuple(outcome[3] for outcome in ordered),
            backend=backend,
        )

    def __del__(self):  # pragma: no cover - safety net, normal path is shutdown()
        try:
            self.shutdown(timeout=0.5)
        except Exception:
            pass
