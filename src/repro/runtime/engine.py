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

A run's chunks travel as the bytes of an int64 array of ``(index,
first_pc, last_pc)`` rows, and each reply as the bytes of two arrays, the
indices of the chunks the worker ran and their wall-clock times (for
load-balance analysis): raw bytes, because a pickled ``ndarray`` made a
4-chunk queue round trip about 85 µs slower on a 2-CPU container.  The
kernel data itself never travels, it lives in the shared segments.  A
worker exception is captured with its traceback, the worker carries on
with its share, and once every reply is in an :class:`EngineError` is
raised in the parent — the pool stays usable.  A chunk that overruns the
timeout, or a worker that dies, shuts the pool down instead; the next run
starts a fresh one.
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

import numpy as np

from ..core import batch_recovery
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


def chunk_bounds(chunks: Sequence[Chunk]) -> np.ndarray:
    """The read-only ``(n, 2)`` int64 array of ``chunks``' ``first, last`` pc."""
    bounds = np.array([(chunk.first, chunk.last) for chunk in chunks], dtype=np.int64)
    bounds = bounds.reshape(len(chunks), 2)
    bounds.flags.writeable = False
    return bounds


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one run on any backend.

    ``bounds`` holds the ``first, last`` pc of each chunk of ``chunks``
    (a read-only ``(n, 2)`` int64 array shared by every result of one
    chunk tuple), ``assignments`` the worker (or OpenMP thread) that ran
    it, ``chunk_seconds`` its own wall-clock time inside the substrate
    (the load-balance view; their sum can exceed ``elapsed_seconds`` when
    workers overlap), both arrays allocated for this run alone.
    ``backend`` names the execution substrate that ran: ``"engine"`` (the
    worker pool, Python/NumPy chunk ops), or ``"native"`` or ``"hybrid"``
    (two names for one run: the plan's chunk list in one in-process
    OpenMP call, the compiled ``repro_run_chunks``).  Results compare by
    identity.

    **Timing schema** (one contract across every backend; asserted by
    ``tests/runtime/test_timing_schema.py``):

    * ``chunks``, ``bounds``, ``assignments`` and ``chunk_seconds`` are
      index-aligned — entry *k* of each describes the same scheduled
      chunk on every backend (``assignments`` are engine worker ids on
      the engine, OpenMP thread ids on native and hybrid);
    * every value in ``chunk_seconds`` is wall-clock **seconds on a
      monotonic clock, measured inside the executing substrate** —
      ``time.perf_counter`` around the chunk body in an engine worker,
      ``omp_get_wtime`` around each chunk inside the compiled
      ``repro_run_chunks`` — so queue latency and dispatch overhead are
      excluded on all backends;
    * ``elapsed_seconds`` is the calling process's ``time.perf_counter``
      span around the whole run (dispatch included): the number backends are
      *compared* by, where ``chunk_seconds`` is what schedules are
      *re-cut* from.

    A session run's chunks are its plan's cut, which tiles the range, so
    an adaptive plan's ``bounds`` and ``chunk_seconds`` are the partition
    :func:`~repro.runtime.profile.profile_guided_chunks` re-cuts from.
    """

    elapsed_seconds: float
    chunks: Tuple[Chunk, ...]
    bounds: np.ndarray
    workers: int
    schedule: ScheduleSpec
    assignments: np.ndarray
    chunk_seconds: np.ndarray
    backend: str = "engine"

    @property
    def iterations(self) -> int:
        """The iterations the run executed: the sum of its (never empty)
        chunks' sizes, which cannot overflow where sums of bounds could."""
        first, last = self.bounds.T
        return int((last - first).sum()) + len(self.bounds)


# ---------------------------------------------------------------------- #
# worker process
# ---------------------------------------------------------------------- #
class _WorkerPlan:
    """Per-worker state of one registered plan: ops resolved, recovery built.

    The batch recovery the Python operations walk chunks with is built at
    registration, outside every chunk's measured seconds, so the profile
    the re-cut reads is not skewed by it.
    """

    def __init__(self, payload: dict):
        self.parameter_values = payload["parameter_values"]
        self.iteration_op = payload["iteration_op"]
        self.chunk_op = payload["chunk_op"]
        self.buffers: Optional[SharedBuffers] = None
        kernel_name = payload["kernel_name"]
        if kernel_name is not None:
            from ..kernels import get_kernel

            kernel = get_kernel(kernel_name)
            self.iteration_op = kernel.iteration_op
            self.chunk_op = kernel.chunk_op
        self.batch = batch_recovery(payload["collapsed"])

    def attach(self, specs: Tuple[SharedArraySpec, ...]) -> None:
        self.release_buffers()
        self.buffers = SharedBuffers.attach(specs)

    def release_buffers(self) -> None:
        if self.buffers is not None:
            self.buffers.close()
            self.buffers = None

    def execute(self, first_pc: int, last_pc: int) -> None:
        """Run one chunk against the attached shared arrays.

        The vectorized ``chunk_op`` runs over the chunk's walked index array
        (:meth:`BatchRecovery.recover_range
        <repro.core.batch.BatchRecovery.recover_range>`); without one, the
        scalar ``iteration_op`` runs once per row of that array.  A walk
        of another row count than the chunk's size raises before any
        operation runs: results report chunk sizes, never recount them.
        """
        data = self.buffers.arrays if self.buffers is not None else {}
        indices = self.batch.recover_range(first_pc, last_pc, self.parameter_values)
        size = max(0, last_pc - first_pc + 1)
        if indices.shape[0] != size:
            raise EngineError(
                f"recovered {indices.shape[0]} rows for chunk [{first_pc}, {last_pc}] "
                f"of {size} iterations"
            )
        if self.chunk_op is not None:
            self.chunk_op(data, indices, self.parameter_values)
        else:
            for row in indices.tolist():
                self.iteration_op(data, tuple(row), self.parameter_values)


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


def _run_share(worker_id: int, state, plan_id: str, spans: bytes, own: bool, counter):
    """Execute one worker's share of a run; returns ``(ran, seconds, traceback)``.

    ``spans`` are the bytes of the share's int64 ``(index, first_pc,
    last_pc)`` rows.  ``ran`` holds the index of every executed chunk and
    ``seconds`` its time, the worker's own ``perf_counter`` span around the
    chunk (inside the worker, outside the queue), as the bytes of int64
    and float64 arrays.  A failing chunk keeps the first traceback and the
    worker goes on with its share, so every other chunk is still accounted
    for.
    """
    spans = np.frombuffer(spans, dtype=np.int64).reshape(-1, 3).tolist()
    ran: List[int] = []
    seconds: List[float] = []
    failure: Optional[str] = None
    for taken in itertools.count():
        span = _next_span(spans, own, taken, counter)
        if span is None:
            ran_bytes = np.array(ran, dtype=np.int64).tobytes()
            return ran_bytes, np.array(seconds, dtype=np.float64).tobytes(), failure
        index, first_pc, last_pc = span
        started = time.perf_counter()
        try:
            if isinstance(state, Exception):
                raise state
            if state is None:
                raise EngineError(f"plan {plan_id!r} is not registered in worker {worker_id}")
            state.execute(first_pc, last_pc)
        except Exception:
            failure = failure or traceback.format_exc()
            continue
        seconds.append(time.perf_counter() - started)
        ran.append(index)


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
            ran, seconds, failure = _run_share(
                worker_id, plans.get(plan_id), plan_id, spans, own, counter
            )
            results.put((run_id, worker_id, ran, seconds, failure))


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
        #: ``(chunks, bounds, shares)`` of the chunk tuple last run (see
        #: :meth:`_shares`), so a warm run of one cut rebuilds nothing
        self._cut: Optional[tuple] = None

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
    def _shares(self, chunks: Tuple[Chunk, ...]) -> tuple:
        """``(chunks, bounds, shares)``: the chunk tuple, its bounds array and
        ``{worker_id: (spans, own)}``, the payload of one ``("run", …)``
        message per worker used, ``spans`` being the bytes of int64
        ``(index, first_pc, last_pc)`` rows.

        When every chunk carries a thread (the static families) a worker's
        spans are its own chunks and ``own`` is true; otherwise each of
        ``min(workers, chunks)`` workers receives the whole list and claims
        indices from the shared counter.  The shares of the tuple last run
        are kept.
        """
        cut = self._cut
        if cut is not None and cut[0] is chunks:
            return cut
        bounds = chunk_bounds(chunks)
        spans = np.column_stack((np.arange(len(chunks)), bounds))
        if chunks and all(chunk.thread is not None for chunk in chunks):
            owners = np.array([chunk.thread % self.workers for chunk in chunks])
            shares = {w: (spans[owners == w].tobytes(), True) for w in set(owners.tolist())}
        else:
            used = min(self.workers, len(chunks))
            shares = {worker_id: (spans.tobytes(), False) for worker_id in range(used)}
        cut = self._cut = (chunks, bounds, shares)
        return cut

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
        """Run a plan once over its schedule's chunks; returns their timings.

        Registration and buffer attachment happen lazily on the first call
        (and whenever ``buffers`` changes); subsequent calls are pure
        dispatch: one message to each worker used and one reply back.
        Static-family chunks run on their pre-assigned workers; any chunk
        list with an unassigned chunk is claimed on demand.
        """
        if not plan.source.has_python_ops:
            raise EngineError(
                f"plan of {plan.source.name!r} has no Python operations for the "
                "engine to run (its C body runs on the native and hybrid backends)"
            )
        self.register(plan, buffers)
        chunks = tuple(chunks) if chunks is not None else plan.chunks(self.workers)
        chunks, bounds, shares = self._shares(chunks)
        assignments = np.zeros(len(chunks), dtype=np.int64)
        chunk_seconds = np.zeros(len(chunks), dtype=np.float64)
        elapsed = self._run(plan.plan_id, shares, assignments, chunk_seconds) if chunks else 0.0
        return RunResult(
            elapsed_seconds=elapsed,
            chunks=chunks,
            bounds=bounds,
            workers=self.workers,
            schedule=plan.schedule,
            assignments=assignments,
            chunk_seconds=chunk_seconds,
        )

    def _run(self, plan_id: str, shares: dict, assignments, chunk_seconds) -> float:
        """Send each worker its share and scatter the replies into
        ``assignments`` and ``chunk_seconds``; returns the elapsed seconds."""
        start = time.perf_counter()
        run_id = next(self._runs)
        self._counter.value = 0
        for worker_id, (share, own) in shares.items():
            self._commands[worker_id].put(("run", run_id, plan_id, share, own))
        try:
            replies = self._collect(run_id, set(shares))
        except BaseException:
            # an abandoned run (dead worker, timeout, interrupt) takes the pool
            # with it: none of its workers may claim chunks of, or reply
            # into, the next run, which starts a fresh pool
            self.shutdown(timeout=0.5)
            raise
        elapsed = time.perf_counter() - start
        failures: List[str] = []
        for _run_id, worker_id, ran, seconds, failure in sorted(replies, key=lambda r: r[1]):
            ran = np.frombuffer(ran, dtype=np.int64)
            assignments[ran] = worker_id
            chunk_seconds[ran] = np.frombuffer(seconds, dtype=np.float64)
            if failure is not None:
                failures.append(f"worker {worker_id}:\n{failure}")
        if failures:
            raise EngineError("engine worker failed:\n" + "\n".join(failures))
        return elapsed

    def __del__(self):  # pragma: no cover - safety net, normal path is shutdown()
        try:
            self.shutdown(timeout=0.5)
        except Exception:  # a finalizer must not raise, and at interpreter exit
            pass  # the queues and even logging may already be torn down
