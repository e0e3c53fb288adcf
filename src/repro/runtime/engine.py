"""The persistent shared-memory parallel execution engine.

:class:`RuntimeEngine` is a pool that outlives the calls: worker processes
start once, register each :class:`ExecutionPlan` once (re-collapsing
nothing — the solved unranking arrives pickled and only the cheap NumPy
code generation reruns locally), attach the shared-memory kernel arrays
once, and from then on every run is pure chunk dispatch over pre-compiled
state.

The parent *is* the OpenMP runtime of this design: it owns one command
queue per worker, a single result queue and one shared chunk counter.  A
run costs one ``("run", …)`` message per worker used and one reply from
each; the chunks are shared out the way the schedule demands —

* **static** families: each worker's message carries its pre-assigned
  chunks (zero scheduling decisions at run time, like
  ``schedule(static)``),
* **dynamic / guided / adaptive**: every used worker receives the whole
  chunk list and claims the next index from the shared counter until the
  list runs out — the classic work-queue hand-out, with chunk granularity
  decided by the plan and no queue round trip per chunk.

Each reply lists the worker's per-chunk iteration counts and wall-clock
times (for load-balance analysis); the kernel data itself never travels,
it lives in the shared segments.  A worker exception is captured with its
traceback, the worker carries on with its share, and once every reply is
in an :class:`EngineError` is raised in the parent — the pool stays
usable.  A chunk that overruns the timeout, or a worker that dies, shuts
the pool down instead; the next run starts a fresh one.
"""

from __future__ import annotations

import itertools
import logging
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
_log = logging.getLogger(__name__)

#: seconds one chunk may run before the parent declares the pool wedged:
#: the deadline arms when the run's first chunk starts and restarts whenever
#: the shared counter shows a new chunk started, so it bounds a single
#: chunk, not a worker's whole share nor a pool's start-up and plan
#: registration; generous, because a chunk may legitimately carry a large
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
    """Per-worker state of one registered plan: ops resolved, recovery built.

    The batch recovery the Python operations walk chunks with is built only
    for chunks that will use it: at registration for a plan without a
    compiled library, and after a failed bind for one with a library (a
    bound library runs every chunk itself).  Both builds happen outside
    every chunk's measured seconds, so the profile the re-cut reads is not
    skewed by them.
    """

    def __init__(self, payload: dict):
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
        self.batch = None
        if self.native is None:
            self._recovery()

    def _recovery(self):
        """The plan's batch recovery, built on the first call."""
        from ..core import batch_recovery

        if self.batch is None:
            self.batch = batch_recovery(self.collapsed)
        return self.batch

    def attach(self, specs: Tuple[SharedArraySpec, ...]) -> None:
        self.release_buffers()
        self.buffers = SharedBuffers.attach(specs)
        self._bind_native()
        if self.native_runner is None:
            self._recovery()

    def _bind_native(self) -> None:
        """Load the plan's compiled library (once) and bind the new buffers.

        The parent compiled the translation unit before dispatching; this
        side only ``dlopen``\\ s the cached shared object by path.  A load
        or bind failure (the cache wiped between compile and dispatch, data
        the C ABI cannot take — wrong dtype/rank) degrades to the Python
        operations, which compute the identical result — hybrid is a speed
        contract, not a semantic one — and logs one warning naming the
        library and the error.  Only a plan with *no* Python operations
        re-raises, because nothing could execute its chunks.
        """
        self.native_runner = None
        if self.native is None or self.buffers is None:
            return
        from ..native.module import NativeChunkRunner, NativeExecutionError

        try:
            runner = NativeChunkRunner(self.native)
            runner.bind(self.buffers.arrays, self.parameter_values)
        except (OSError, NativeExecutionError) as error:
            if self.iteration_op is None and self.chunk_op is None:
                raise  # native-only plan: surfaced at the first chunk
            _log.warning(
                "native library %s unusable in this worker, running its chunks "
                "through the Python operations: %s",
                self.native.library_path,
                error,
            )
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
        then the vectorized ``chunk_op`` over the chunk's walked index
        array (:meth:`BatchRecovery.recover_range
        <repro.core.batch.BatchRecovery.recover_range>`), then the scalar
        ``iteration_op`` once per row of that array.
        """
        if self.native_runner is not None:
            return self.native_runner.run_range_timed(first_pc, last_pc)
        data = self.buffers.arrays if self.buffers is not None else {}
        if self.chunk_op is None and self.iteration_op is None:
            raise EngineError(
                "plan has no Python operations to fall back on (native-only plan "
                "whose compiled library could not be loaded in this worker)"
            )
        # built already unless a library plan runs without buffers to bind
        indices = self._recovery().recover_range(first_pc, last_pc, self.parameter_values)
        if self.chunk_op is not None:
            self.chunk_op(data, indices, self.parameter_values)
        else:
            for row in indices.tolist():
                self.iteration_op(data, tuple(row), self.parameter_values)
        return int(indices.shape[0]), None


def _next_span(spans, own: bool, done: int, counter) -> Optional[Tuple[int, int, int]]:
    """The next ``(index, first_pc, last_pc)`` of this worker's share, or ``None``.

    Own (pre-assigned) spans run in order; the others go to whichever
    worker takes the counter next.  Either way the counter moves once per
    chunk started, which is the progress the parent's timeout watches.
    """
    with counter.get_lock():
        position = done if own else counter.value
        if position >= len(spans):
            return None
        counter.value += 1
    return spans[position]


def _run_share(worker_id: int, state, plan_id: str, spans, own: bool, counter):
    """Execute one worker's share of a run; returns ``(records, traceback)``.

    ``records`` holds ``(index, count, seconds, native)`` per executed
    chunk.  A failing chunk keeps the first traceback and the worker goes
    on with its share, so every other chunk is still accounted for.
    """
    records: List[Tuple[int, int, float, bool]] = []
    failure: Optional[str] = None
    for taken in itertools.count():
        span = _next_span(spans, own, taken, counter)
        if span is None:
            return records, failure
        index, first_pc, last_pc = span
        started = time.perf_counter()
        try:
            if isinstance(state, Exception):
                raise state
            if state is None:
                raise EngineError(f"plan {plan_id!r} is not registered in worker {worker_id}")
            count, inner_seconds = state.execute(first_pc, last_pc)
        except Exception:
            failure = failure or traceback.format_exc()
            continue
        # one timing schema for every substrate: the C-internal measurement
        # when the chunk ran natively, the worker's own perf_counter span
        # around the Python ops otherwise — both exclude queue latency, so
        # profiles compare across backends
        seconds = inner_seconds if inner_seconds is not None else time.perf_counter() - started
        records.append((index, count, seconds, state.native_runner is not None))


def _worker_main(worker_id: int, commands, results, counter) -> None:
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
        elif tag == "run":
            _tag, run_id, plan_id, spans, own = message
            records, failure = _run_share(
                worker_id, plans.get(plan_id), plan_id, spans, own, counter
            )
            results.put((run_id, worker_id, records, failure))


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
    once, so a repeated execution costs one message and one reply per
    worker used, plus the chunk compute.
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
        self._counter: Optional[Any] = None  # chunks started in the current run
        self._registered: Dict[str, Tuple[SharedArraySpec, ...]] = {}
        self._runs = itertools.count(1)

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
            _log.debug("shared-memory resource tracker not started", exc_info=True)
        self._results = self._context.Queue()
        self._counter = self._context.Value("q", 0)
        self._commands = [self._context.Queue() for _ in range(self.workers)]
        for worker_id, commands in enumerate(self._commands):
            process = self._context.Process(
                target=_worker_main,
                args=(worker_id, commands, self._results, self._counter),
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
                # the join below terminates a worker that never got the stop
                _log.debug("could not send stop to an engine worker", exc_info=True)
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
        self._counter = None
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
    def _shares(self, run_id: int, plan_id: str, chunk_list: Sequence[Chunk]) -> Dict[int, tuple]:
        """One ``("run", run_id, plan_id, spans, own)`` message per worker used.

        ``spans`` are ``(index, first_pc, last_pc)`` triples.  When every
        chunk carries a thread (the static families) a worker's spans are
        its own chunks and ``own`` is true; otherwise each of
        ``min(workers, chunks)`` workers receives the whole list and claims
        indices from the shared counter.
        """
        spans = [(index, chunk.first, chunk.last) for index, chunk in enumerate(chunk_list)]
        if all(chunk.thread is not None for chunk in chunk_list):
            owned: Dict[int, list] = {}
            for span, chunk in zip(spans, chunk_list):
                owned.setdefault(chunk.thread % self.workers, []).append(span)
            return {
                worker_id: ("run", run_id, plan_id, tuple(own), True)
                for worker_id, own in owned.items()
            }
        shared = tuple(spans)
        return {
            worker_id: ("run", run_id, plan_id, shared, False)
            for worker_id in range(min(self.workers, len(shared)))
        }

    def _collect(self, run_id: int, waiting: set) -> List[tuple]:
        """Wait for one reply from each worker in ``waiting``.

        Waits in short slices so a worker that *died* (killed, or crashed on
        a message it could not even unpickle — e.g. a function defined after
        the pool forked) surfaces as an immediate :class:`EngineError`
        instead of a silent hang.  The ``task_timeout`` deadline arms when
        the shared counter shows the first chunk started and restarts at
        each later one, so it bounds one chunk; a freshly spawned worker
        still importing or building the plan has started none.  A reply of
        another run is dropped.
        """
        assert self._results is not None and self._counter is not None
        replies: List[tuple] = []
        started = 0
        deadline = 0.0
        while waiting:
            try:
                reply = self._results.get(timeout=min(0.5, self.task_timeout))
            except queue_module.Empty:
                dead = [p.name for p in self._processes if not p.is_alive()]
                if dead:
                    raise EngineError(
                        f"engine workers died with tasks outstanding: {dead}; "
                        "dispatched functions must be module-level and defined "
                        "before the pool starts"
                    ) from None
                progress = self._counter.value
                if progress != started:
                    started, deadline = progress, time.monotonic() + self.task_timeout
                elif started and time.monotonic() >= deadline:
                    raise EngineError(
                        f"no result within {self.task_timeout}s of the last chunk start"
                    ) from None
                continue
            if reply[0] == run_id and reply[1] in waiting:
                waiting.discard(reply[1])
                replies.append(reply)
        return replies

    def execute(
        self,
        plan: ExecutionPlan,
        buffers: Optional[SharedBuffers] = None,
        chunks: Optional[Sequence[Chunk]] = None,
    ) -> RunResult:
        """Run a plan once over its schedule's chunks; returns per-chunk counts.

        Registration and buffer attachment happen lazily on the first call
        (and whenever ``buffers`` changes); subsequent calls are pure
        dispatch: one message to each worker used and one reply back.
        Static-family chunks run on their pre-assigned workers; any chunk
        list with an unassigned chunk is claimed on demand.
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
        run_id = next(self._runs)
        messages = self._shares(run_id, plan.plan_id, chunk_list)
        self._counter.value = 0
        for worker_id, message in messages.items():
            self._commands[worker_id].put(message)
        try:
            replies = self._collect(run_id, set(messages))
        except BaseException:
            # an abandoned run (dead worker, timeout, interrupt) takes the pool
            # with it: none of its workers may claim chunks of, or reply
            # into, the next run, which starts a fresh pool
            self.shutdown(timeout=0.5)
            raise
        elapsed = time.perf_counter() - start
        records: List[tuple] = [()] * len(chunk_list)
        failures: List[str] = []
        for _run_id, worker_id, worker_records, failure in sorted(replies):
            for index, count, seconds, native in worker_records:
                records[index] = (count, worker_id, seconds, native)
            if failure is not None:
                failures.append(f"worker {worker_id}:\n{failure}")
        if failures:
            raise EngineError("engine worker failed:\n" + "\n".join(failures))
        # the substrate that *actually executed*: a hybrid plan whose workers
        # all ran the compiled library reports "hybrid"; if any worker had to
        # degrade to the Python ops (library unloadable, un-bindable data),
        # the honest answer is "engine"
        backend = (
            "hybrid"
            if plan.native_spec is not None and all(record[3] for record in records)
            else "engine"
        )
        return RunResult(
            results=tuple(record[0] for record in records),
            elapsed_seconds=elapsed,
            chunks=tuple(chunk_list),
            workers=self.workers,
            schedule=plan.schedule,
            assignments=tuple(record[1] for record in records),
            chunk_seconds=tuple(record[2] for record in records),
            backend=backend,
        )

    def __del__(self):  # pragma: no cover - safety net, normal path is shutdown()
        try:
            self.shutdown(timeout=0.5)
        except Exception:  # a finalizer must not raise, and at interpreter exit
            pass  # the queues and even logging may already be torn down
