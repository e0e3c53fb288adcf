"""Integration tests for the persistent engine and the session layer.

One module-scoped session (2 workers) backs every test: starting pools is
the expensive part, and sharing one is exactly how the engine is meant to
be used.
"""

import numpy as np
import pytest

from repro.kernels import get_kernel, run_original, verify_kernel
from repro.openmp import ScheduleKind
from repro.runtime import (
    EngineError,
    PlanError,
    RuntimeSession,
    SharedBuffers,
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
        assert sum(result.results) == plan.total_iterations
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
        assert result.results == ()
        assert result.chunks == ()


class TestErrorHandling:
    def test_worker_failure_raises_and_pool_survives(self, session):
        from repro.ir import Loop, LoopNest

        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")], parameters=["N"], name="boom"
        )
        plan = build_plan(nest, {"N": 6}, schedule="static", iteration_op=failing_op)
        with pytest.raises(EngineError, match="deliberate kernel failure"):
            session.engine.execute(plan)
        session.engine.forget(plan)
        # the pool must still serve good plans afterwards
        expected = run_original(get_kernel("utma"), VALUES)
        assert np.array_equal(session.run("utma", VALUES)["c"], expected["c"])

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
        assert sum(result.results) == int(expected.sum())

    def test_repeated_runs_reuse_buffers_and_stay_correct(self, session):
        expected = run_original(get_kernel("utma"), VALUES)
        before = session.cache_info()["buffers"]
        for _ in range(3):
            result = session.run("utma", VALUES, schedule="static")
            assert np.array_equal(result["c"], expected["c"])
        assert session.cache_info()["buffers"] == max(before, 1)
