"""Integration tests for the persistent engine and the session layer.

One module-scoped session (2 workers) backs every test: starting pools is
the expensive part, and sharing one is exactly how the engine is meant to
be used.
"""

import os
import time

import numpy as np
import pytest

from repro.ir import Loop, LoopNest, enumerate_iterations
from repro.kernels import get_kernel, run_original, verify_kernel
from repro.openmp import Chunk, ScheduleKind
from repro.runtime import (
    EngineError,
    PlanError,
    RuntimeEngine,
    RuntimeSession,
    SharedBuffers,
    Source,
    build_plan,
    collapse_and_run,
)

VALUES = {"N": 24}


@pytest.fixture(scope="module")
def session():
    with RuntimeSession(workers=2) as session:
        yield session


def failing_op(data, indices, values):
    raise RuntimeError("deliberate kernel failure")


def mark_visit_op(data, indices, values):
    data["visits"][indices] += 1.0


#: the iteration whose chunk ``fail_midway_op`` refuses to run
FAILING_ITERATION = (5, 7)


def count_visits_op(data, indices, values):
    data["visits"][indices[:, 0], indices[:, 1]] += 1.0


def fail_midway_op(data, indices, values):
    if any(tuple(row) == FAILING_ITERATION for row in indices.tolist()):
        raise RuntimeError("deliberate mid-run failure")
    count_visits_op(data, indices, values)


def slow_chunk_op(data, indices, values):
    time.sleep(0.3)


def stuck_chunk_op(data, indices, values):
    time.sleep(5.0)


def slow_visits_op(data, indices, values):
    time.sleep(0.5)
    count_visits_op(data, indices, values)


def _shm_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _triangle(n=12):
    nest = LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")], parameters=["N"], name="triangle"
    )
    return nest, {"N": n}


class TestEngineCorrectness:
    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided", "adaptive"])
    def test_utma_matches_run_original_under_every_policy(self, session, schedule):
        expected = run_original(get_kernel("utma"), VALUES)
        result = session.run("utma", VALUES, schedule=schedule)
        assert np.array_equal(result["c"], expected["c"])

    def test_ltmp_fallback_iteration_path_matches(self, session):
        # ltmp has no chunk_op: workers walk the per-iteration fallback
        expected = run_original(get_kernel("ltmp"), {"N": 16})
        result = session.run("ltmp", {"N": 16}, schedule="adaptive")
        assert np.allclose(result["c"], expected["c"])

    def test_run_collapsed_engine_with_caller_data(self, session):
        kernel = get_kernel("utma")
        data = kernel.make_data(VALUES)
        expected = run_original(kernel, VALUES, data)
        result = session.run(kernel, VALUES, data=data)
        assert np.array_equal(result["c"], expected["c"])
        assert np.all(data["c"] == 0)  # caller's arrays are never mutated

    def test_verify_kernel_includes_the_engine_path(self, session):
        assert verify_kernel(get_kernel("utma"), VALUES, session=session)


class TestEngineRunResult:
    def test_counts_cover_every_iteration_exactly_once(self, session):
        kernel = get_kernel("utma")
        plan = session.plan_for("utma", VALUES, schedule="adaptive")
        with SharedBuffers.create(kernel.make_data(VALUES)) as buffers:
            result = session.execute(plan, buffers=buffers)
        session.engine.forget(plan)
        assert result.iterations == plan.total_iterations
        assert result.iterations == plan.total_iterations
        assert len(result.assignments) == len(result.chunks)
        assert len(result.chunk_seconds) == len(result.chunks)
        assert all(worker in (0, 1) for worker in result.assignments)
        assert result.schedule.kind is ScheduleKind.ADAPTIVE

    def test_static_chunks_run_on_their_assigned_workers(self, session):
        kernel = get_kernel("utma")
        plan = session.plan_for("utma", VALUES, schedule="static")
        with SharedBuffers.create(kernel.make_data(VALUES)) as buffers:
            result = session.execute(plan, buffers=buffers)
        session.engine.forget(plan)
        for chunk, worker in zip(result.chunks, result.assignments):
            assert worker == chunk.thread % session.engine.workers

    def test_empty_domain_executes_without_dispatch(self, session):
        plan = build_plan("utma", {"N": 0}, schedule="static")
        result = session.engine.execute(plan)
        assert result.bounds.shape == (0, 2) and result.iterations == 0
        assert result.chunks == ()


class TestErrorHandling:
    def test_worker_failure_raises_and_pool_survives(self, session):
        from repro.ir import Loop, LoopNest

        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")], parameters=["N"], name="boom"
        )
        plan = build_plan(Source.of(nest, iteration_op=failing_op), {"N": 6}, schedule="static")
        with pytest.raises(EngineError, match="deliberate kernel failure"):
            session.engine.execute(plan)
        session.engine.forget(plan)
        # the pool must still serve good plans afterwards
        expected = run_original(get_kernel("utma"), VALUES)
        assert np.array_equal(session.run("utma", VALUES)["c"], expected["c"])

    def test_a_short_recovery_fails_its_chunk(self, monkeypatch):
        """A worker compares the rows its walk recovered with the chunk's
        size: a walk one row short fails the chunk as an :class:`EngineError`
        before any operation runs on it, like any other chunk failure."""
        from repro.core.batch import BatchRecovery

        recover_range = BatchRecovery.recover_range

        def one_row_short(self, first_pc, last_pc, values):
            return recover_range(self, first_pc, last_pc, values)[:-1]

        # patched before the pool forks, so the workers inherit it
        monkeypatch.setattr(BatchRecovery, "recover_range", one_row_short)
        nest, values = _triangle()
        plan = build_plan(Source.of(nest, chunk_op=count_visits_op), values, schedule="static")
        size = plan.chunks(2)[0].size
        with RuntimeEngine(workers=2, start_method="fork") as engine, SharedBuffers.create(
            {"visits": np.zeros((12, 12))}
        ) as buffers:
            with pytest.raises(
                EngineError, match=rf"recovered {size - 1} rows for chunk \[1, {size}\] "
                rf"of {size} iterations"
            ):
                engine.execute(plan, buffers=buffers)
            assert not buffers.arrays["visits"].any()

    def test_workers_must_be_positive(self):
        from repro.runtime import RuntimeEngine

        with pytest.raises(EngineError):
            RuntimeEngine(workers=0)

    def test_unpicklable_worker_is_rejected_eagerly(self, session):
        # a closure would die in the queue feeder thread and hang the parent;
        # the plan refuses it up front instead
        from repro.ir import Loop, LoopNest

        nest = LoopNest([Loop.make("i", 0, "N")], parameters=["N"], name="closure")
        bound = 7
        with pytest.raises(PlanError, match="picklable"):
            session.run(nest, {"N": 5}, iteration_op=lambda data, indices, values: bound)

    def test_dead_worker_is_detected_fast_and_pool_restarts(self):
        from repro.runtime import RuntimeEngine

        kernel = get_kernel("utma")
        plan = build_plan(kernel, VALUES, schedule="static")
        with RuntimeEngine(workers=2, task_timeout=60.0) as engine, SharedBuffers.create(
            kernel.make_data(VALUES)
        ) as buffers:
            engine._processes[0].terminate()
            engine._processes[0].join()
            with pytest.raises(EngineError, match="died"):
                engine.execute(plan, buffers=buffers)
            # the broken pool was torn down; the next call starts a fresh one
            result = engine.execute(plan, buffers=buffers)
            assert result.iterations == plan.total_iterations


    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to probe")
    def test_worker_killed_mid_chunk(self):
        """SIGKILL one worker while it runs a slow chunk: the run raises
        EngineError, the next run on the same session gets a fresh pool and
        correct arrays, and close() leaves no segment of the session."""
        import signal
        import threading

        nest, values = _triangle()
        expected = np.zeros((12, 12))
        for indices in enumerate_iterations(nest, values):
            expected[indices] = 1.0
        before = _shm_segments()
        session = RuntimeSession(workers=2)
        engine = session.engine
        killed = []

        def kill_once_a_chunk_runs():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                counter = engine._counter
                if counter is not None and counter.value > 0 and engine._processes:
                    killed.append(engine._processes[0].pid)
                    os.kill(killed[0], signal.SIGKILL)
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_once_a_chunk_runs)
        try:
            killer.start()
            with pytest.raises(EngineError, match="died"):
                session.run(
                    nest, values, data={"visits": np.zeros((12, 12))},
                    schedule="dynamic", chunk_op=slow_visits_op,
                )
            killer.join()
            assert killed and not engine.started
            visits = np.zeros((12, 12))
            session.run(
                nest, values, data={"visits": visits}, schedule="dynamic",
                chunk_op=count_visits_op,
            )
            assert np.array_equal(visits, expected)
            assert killed[0] not in [process.pid for process in engine._processes]
            assert _shm_segments() - before, "the runs staged no segment"
        finally:
            killer.join()
            session.close()
        assert _shm_segments() - before == set()


class TestSession:
    def test_plans_are_cached_by_structure(self, session):
        first = session.plan_for("utma", VALUES, schedule="adaptive")
        second = session.plan_for("utma", VALUES, schedule="adaptive")
        assert first is second
        different = session.plan_for("utma", {"N": 25}, schedule="adaptive")
        assert different is not first

    def test_collapse_and_run_with_explicit_session(self, session):
        expected = run_original(get_kernel("utma"), VALUES)
        result = collapse_and_run("utma", VALUES, session=session)
        assert np.array_equal(result["c"], expected["c"])

    def test_collapse_and_run_accepts_nest_sources(self, session):
        from repro.ir import Loop, LoopNest, enumerate_iterations

        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")], parameters=["N"], name="visit2"
        )
        values = {"N": 10}
        data = {"visits": np.zeros((10, 12))}
        result = collapse_and_run(
            nest, values, session=session, schedule="static", iteration_op=mark_visit_op, data=data
        )
        expected = np.zeros((10, 12))
        for indices in enumerate_iterations(nest, values):
            expected[indices] += 1.0
        # nest sources mutate the caller's arrays in place and report the run
        assert np.array_equal(data["visits"], expected)
        assert result.iterations == int(expected.sum())

    def test_repeated_runs_reuse_buffers_and_stay_correct(self, session):
        # engine runs without data stage through the session's one pool
        # and warm ones of one signature share one set; hybrid runs in
        # place on the made arrays and stages nothing
        expected = run_original(get_kernel("utma"), VALUES)
        session.run("utma", VALUES, schedule="static")
        before = session.cache_info()["staged"]
        assert before >= 1
        for backend in ("engine", "hybrid"):
            for _ in range(3):
                result = session.run("utma", VALUES, schedule="static", backend=backend)
                assert np.array_equal(result["c"], expected["c"])
        assert session.cache_info()["staged"] == before

    def test_partially_collapsed_source_runs_and_keys_apart(self, session):
        # collapse(nest, depth) is how a caller collapses fewer loops
        from repro.core import collapse
        from repro.runtime import profile_key

        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i", "N"), Loop.make("k", 0, "j")],
            parameters=["N"],
            name="visit3",
        )
        values = {"N": 8}
        partial = collapse(nest, 2)
        data = {"visits": np.zeros((8, 8))}
        result = session.run(
            partial, values, data=data, schedule="static", iteration_op=mark_visit_op
        )
        expected = np.zeros((8, 8))
        for indices in enumerate_iterations(nest, values, depth=2):
            expected[indices] += 1.0
        assert np.array_equal(data["visits"], expected)
        assert result.iterations == partial.total_iterations(values)
        assert profile_key(partial, values) != profile_key(collapse(nest), values)


@pytest.fixture(scope="module", params=["fork", "spawn"])
def engine(request):
    """A two-worker pool under each start method (the counter is inherited
    by forked workers and pickled into spawned ones)."""
    with RuntimeEngine(workers=2, start_method=request.param) as engine:
        yield engine


def _spy_commands(engine, monkeypatch):
    """Record ``(worker_id, tag)`` of every command the parent sends."""
    sent = []
    for worker_id, commands in enumerate(engine._commands):
        def put(message, _put=commands.put, _worker=worker_id):
            sent.append((_worker, message[0]))
            _put(message)
        monkeypatch.setattr(commands, "put", put)
    return sent


class TestDispatch:
    """One ``run`` message per worker used, chunks claimed from the counter."""

    @pytest.mark.parametrize("schedule", ["dynamic", "guided", "adaptive"])
    def test_every_chunk_runs_exactly_once(self, engine, schedule):
        nest, values = _triangle()
        plan = build_plan(Source.of(nest, chunk_op=count_visits_op), values, schedule=schedule)
        expected = np.zeros((12, 12))
        for indices in enumerate_iterations(nest, values):
            expected[indices] = 1.0
        with SharedBuffers.create({"visits": np.zeros((12, 12))}) as buffers:
            for _ in range(3):
                buffers.arrays["visits"][:] = 0.0
                result = engine.execute(plan, buffers=buffers)
                assert len(result.chunks) > engine.workers
                assert np.array_equal(buffers.arrays["visits"], expected)
                assert result.bounds.tolist() == [
                    [chunk.first, chunk.last] for chunk in result.chunks
                ]
                assert set(result.assignments) <= {0, 1}
                assert len(result.chunk_seconds) == len(result.chunks)
        engine.forget(plan)

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "adaptive"])
    def test_one_message_per_worker_per_warm_run(self, engine, schedule, monkeypatch):
        kernel = get_kernel("utma")
        plan = build_plan(kernel, VALUES, schedule=schedule)
        with SharedBuffers.create(kernel.make_data(VALUES)) as buffers:
            engine.execute(plan, buffers=buffers)  # registers and attaches
            buffers.fill_from(kernel.make_data(VALUES))
            sent = _spy_commands(engine, monkeypatch)
            result = engine.execute(plan, buffers=buffers)
            sent = list(sent)
            assert np.array_equal(buffers.arrays["c"], run_original(kernel, VALUES)["c"])
        engine.forget(plan)
        assert result.backend == "engine"
        assert len(result.chunks) >= engine.workers
        assert sorted(sent) == [(0, "run"), (1, "run")]

    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_fewer_chunks_than_workers_messages_fewer_workers(
        self, engine, schedule, monkeypatch
    ):
        nest, values = _triangle(n=1)  # one iteration, so one chunk
        plan = build_plan(Source.of(nest, chunk_op=count_visits_op), values, schedule=schedule)
        with SharedBuffers.create({"visits": np.zeros((12, 12))}) as buffers:
            engine.execute(plan, buffers=buffers)
            sent = _spy_commands(engine, monkeypatch)
            result = engine.execute(plan, buffers=buffers)
            sent = list(sent)
        engine.forget(plan)
        assert len(result.chunks) == 1 < engine.workers
        assert sent == [(0, "run")]
        assert result.bounds.tolist() == [[1, 1]]
        assert result.assignments.tolist() == [0]

    @pytest.mark.parametrize("schedule", ["dynamic", "static,4"])
    def test_worker_error_mid_run_accounts_for_every_other_chunk(self, engine, schedule):
        nest, values = _triangle()
        plan = build_plan(Source.of(nest, chunk_op=fail_midway_op), values, schedule=schedule)
        chunks = plan.chunks(engine.workers)
        assert len(chunks) > 2 * engine.workers
        with SharedBuffers.create({"visits": np.zeros((12, 12))}) as buffers:
            with pytest.raises(EngineError, match="deliberate mid-run failure") as raised:
                engine.execute(plan, buffers=buffers)
            visits = buffers.arrays["visits"].copy()
        engine.forget(plan)
        assert "Traceback" in str(raised.value)
        from repro.core import batch_recovery, collapse

        recovery = batch_recovery(collapse(nest))
        failed = 0
        for chunk in chunks:
            rows = recovery.recover_range(chunk.first, chunk.last, values)
            cells = visits[rows[:, 0], rows[:, 1]]
            if FAILING_ITERATION in {tuple(row) for row in rows.tolist()}:
                failed += 1
                assert np.all(cells == 0.0)
            else:
                assert np.all(cells == 1.0)
        assert failed == 1
        # the pool serves the next run
        kernel = get_kernel("utma")
        good = build_plan(kernel, VALUES, schedule="dynamic")
        with SharedBuffers.create(kernel.make_data(VALUES)) as buffers:
            engine.execute(good, buffers=buffers)
            assert np.array_equal(buffers.arrays["c"], run_original(kernel, VALUES)["c"])
        engine.forget(good)

    def test_claims_never_collide_with_more_workers_than_cores(self):
        # a lost or doubled counter update would skip or repeat a chunk,
        # leaving a cell at 0 or 2; one-iteration chunks make claims race hard
        nest, values = _triangle()
        plan = build_plan(Source.of(nest, chunk_op=count_visits_op), values, schedule="dynamic,1")
        expected = np.zeros((12, 12))
        for indices in enumerate_iterations(nest, values):
            expected[indices] = 1.0
        began = time.monotonic()
        with RuntimeEngine(workers=2 * (os.cpu_count() or 1) + 1) as engine, (
            SharedBuffers.create({"visits": np.zeros((12, 12))})
        ) as buffers:
            for _ in range(20):
                buffers.arrays["visits"][:] = 0.0
                result = engine.execute(plan, buffers=buffers)
                assert np.array_equal(buffers.arrays["visits"], expected)
                assert len(result.chunks) == plan.total_iterations
        assert time.monotonic() - began < 60.0


class TestTimeouts:
    """``task_timeout`` bounds one chunk, not a worker's whole share."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_stuck_chunk_times_out_and_the_next_run_is_correct(self, start_method):
        nest, values = _triangle()
        stuck = build_plan(Source.of(nest, chunk_op=stuck_chunk_op), values, schedule="dynamic")
        kernel = get_kernel("utma")
        good = build_plan(kernel, VALUES, schedule="dynamic")
        with RuntimeEngine(workers=2, start_method=start_method, task_timeout=0.5) as engine:
            began = time.monotonic()
            with pytest.raises(EngineError, match="no result within"):
                engine.execute(stuck)
            assert time.monotonic() - began < 4.0
            assert not engine.started  # the abandoned run's workers are gone
            with SharedBuffers.create(kernel.make_data(VALUES)) as buffers:
                result = engine.execute(good, buffers=buffers)
                assert np.array_equal(buffers.arrays["c"], run_original(kernel, VALUES)["c"])
            assert result.iterations == good.total_iterations

    def test_slow_registration_is_not_a_stuck_chunk(self, monkeypatch):
        """The deadline arms at the first chunk start: a worker that takes
        longer than ``task_timeout`` to build the plan has run no chunk yet."""
        from repro.runtime import engine as engine_module

        original = engine_module._WorkerPlan.__init__

        def slow_init(self, payload):
            time.sleep(0.6)
            original(self, payload)

        # patched before the pool forks, so the workers inherit it
        monkeypatch.setattr(engine_module._WorkerPlan, "__init__", slow_init)
        kernel = get_kernel("utma")
        good = build_plan(kernel, VALUES, schedule="dynamic")
        with RuntimeEngine(workers=2, start_method="fork", task_timeout=0.3) as engine:
            with SharedBuffers.create(kernel.make_data(VALUES)) as buffers:
                result = engine.execute(good, buffers=buffers)
                assert np.array_equal(buffers.arrays["c"], run_original(kernel, VALUES)["c"])
        assert result.iterations == good.total_iterations

    def test_interrupted_run_takes_the_pool_with_it(self, monkeypatch):
        nest, values = _triangle()
        slow = build_plan(Source.of(nest, chunk_op=slow_chunk_op), values, schedule="dynamic")
        kernel = get_kernel("utma")
        good = build_plan(kernel, VALUES, schedule="dynamic")
        with RuntimeEngine(workers=2) as engine:
            def interrupted(run_id, waiting):
                raise KeyboardInterrupt

            monkeypatch.setattr(engine, "_collect", interrupted)
            with pytest.raises(KeyboardInterrupt):
                engine.execute(slow)  # the workers are still claiming chunks
            monkeypatch.undo()
            assert not engine.started
            with SharedBuffers.create(kernel.make_data(VALUES)) as buffers:
                engine.execute(good, buffers=buffers)
                assert np.array_equal(buffers.arrays["c"], run_original(kernel, VALUES)["c"])

    @pytest.mark.parametrize("thread", [None, 0], ids=["claimed", "own"])
    def test_many_short_chunks_outlast_the_timeout(self, thread):
        nest, values = _triangle()
        plan = build_plan(Source.of(nest, chunk_op=slow_chunk_op), values, schedule="dynamic")
        total = plan.total_iterations
        cuts = np.linspace(0, total, 9).astype(int)
        chunks = [Chunk(int(a) + 1, int(b), thread) for a, b in zip(cuts, cuts[1:])]
        with RuntimeEngine(workers=2, task_timeout=0.5) as engine:
            result = engine.execute(plan, chunks=chunks)
        # each worker's share (8 x 0.3 s on one worker, or about 4 x 0.3 s
        # on each of two) takes longer than the timeout; no chunk does
        assert result.iterations == total
        assert sum(result.chunk_seconds) >= 8 * 0.3
