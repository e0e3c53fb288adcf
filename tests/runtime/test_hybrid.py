"""The hybrid backend: engine scheduling driving compiled chunk execution.

Contract under test, layer by layer:

* *worker-side attachment* — the parent compiles the translation unit once,
  workers ``dlopen`` the cached shared object by path and execute chunks
  through the serial ``repro_run_range`` (proved by native-only plans that
  have no Python operations to fall back on);
* *differential equality* — hybrid results are element-wise identical to
  the Python engine and to the whole-range native call;
* *fallback* — without a C compiler, ``backend="hybrid"`` degrades to the
  engine and still produces the identical result;
* *cache keying* — schedule changes never reuse a stale native module or a
  stale plan (the PR's audit of the ``ScheduleSpec`` cache keys).
"""

import numpy as np
import pytest

from repro.ir import Loop, LoopNest, enumerate_iterations, iteration_count
from repro.native import native_available

needs_compiler = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)


def _mark_visit(data, indices, values):  # module-level: picklable
    data["visits"][indices] += 1.0


def _triangle_nest() -> LoopNest:
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", "i", "N")],
        parameters=["N"],
        name="triangle",
    )


@pytest.fixture(scope="module")
def session():
    from repro.runtime import RuntimeSession

    with RuntimeSession(workers=2) as session:
        yield session


# ---------------------------------------------------------------------- #
# differential equality on kernels
# ---------------------------------------------------------------------- #
@needs_compiler
class TestKernelEquality:
    @pytest.mark.parametrize("name,n", [("utma", 96), ("ltmp", 48)])
    def test_hybrid_equals_engine_and_native(self, session, name, n):
        from repro.kernels import get_kernel, run_original

        kernel = get_kernel(name)
        values = {"N": n}
        original = run_original(kernel, values)
        hybrid = session.run(name, values, backend="hybrid", schedule="adaptive")
        engine = session.run(name, values, backend="engine", schedule="adaptive")
        native = session.run(name, values, backend="native", threads=2)
        for array in original:
            assert np.allclose(hybrid[array], original[array], atol=1e-9), array
            assert np.allclose(hybrid[array], engine[array], atol=1e-9), array
            assert np.allclose(hybrid[array], native[array], atol=1e-9), array

    def test_elementwise_kernel_is_bit_identical(self, session):
        """utma's body is one add: hybrid must match to the last bit."""
        from repro.kernels import get_kernel, run_original

        values = {"N": 128}
        hybrid = session.run("utma", values, backend="hybrid")
        expected = run_original(get_kernel("utma"), values)
        assert np.array_equal(hybrid["c"], expected["c"])

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided", "adaptive"])
    def test_every_schedule_policy(self, session, schedule):
        from repro.kernels import get_kernel, run_original

        values = {"N": 64}
        hybrid = session.run("utma", values, backend="hybrid", schedule=schedule)
        expected = run_original(get_kernel("utma"), values)
        assert np.array_equal(hybrid["c"], expected["c"]), schedule

    def test_verify_kernel_hybrid_gate(self, session):
        from repro.kernels import get_kernel, verify_kernel

        assert verify_kernel(get_kernel("utma"), backend="hybrid", session=session)

    def test_run_collapsed_hybrid_with_caller_data(self, session):
        """Caller data seeds the run and is not mutated (private copies)."""
        from repro.kernels import get_kernel, run_original

        kernel = get_kernel("utma")
        values = {"N": 48}
        data = kernel.make_data(values)
        before = {name: value.copy() for name, value in data.items()}
        result = session.run(kernel, values, data=data, backend="hybrid")
        expected = run_original(kernel, values, data)
        assert np.array_equal(result["c"], expected["c"])
        for name in before:
            assert np.array_equal(data[name], before[name])

    @pytest.mark.parametrize("backend", ["native", "hybrid"])
    def test_compiled_backends_take_the_native_plan_options(self, session, backend):
        """Both compiled backends run one native plan, so native takes the
        options hybrid takes: an explicit C body for an opaque nest and
        extra compiler flags."""
        nest = _triangle_nest()
        values = {"N": 20}
        data = {"visits": np.zeros((20, 20))}
        result = session.run(
            nest, values, data=data, backend=backend,
            c_body="visits(i, j) += 1.0;", c_arrays=("visits",), compile_flags=("-O2",),
        )
        expected = np.zeros((20, 20))
        for indices in enumerate_iterations(nest, values):
            expected[indices] += 1.0
        assert result.backend == backend
        assert np.array_equal(data["visits"], expected)


# ---------------------------------------------------------------------- #
# worker-side module attachment
# ---------------------------------------------------------------------- #
@needs_compiler
class TestWorkerAttachment:
    def test_native_only_plan_proves_workers_run_the_library(self, session):
        """A plan with a C body and *no Python operations* can only execute
        if every worker loaded the compiled shared object — any silent
        Python fallback would raise EngineError instead."""
        from repro.core import batch_recovery, collapse
        from repro.runtime import SharedBuffers, build_plan

        nest = _triangle_nest()
        values = {"N": 40}
        total = collapse(nest).total_iterations(values)
        plan = build_plan(
            nest,
            values,
            schedule="dynamic,64",
            native=True,
            c_body="trace(pc - 1) = (double)(i * 1000 + j);",
            c_arrays=("trace",),
            array_ndims={"trace": 1},
        )
        assert plan.native_spec is not None
        assert plan.iteration_op is None and plan.chunk_op is None
        with SharedBuffers.create({"trace": np.zeros(total)}) as buffers:
            result = session.engine.execute(plan, buffers=buffers)
            trace = buffers.snapshot()["trace"]
        session.engine.forget(plan)
        assert result.backend == "hybrid"
        assert sum(result.results) == total
        indices = batch_recovery(collapse(nest)).recover_range(1, total, values)
        expected = indices[:, 0] * 1000 + indices[:, 1]
        assert np.array_equal(trace, expected.astype(np.float64))

    def test_second_run_is_pure_dispatch_no_compiler(self, session):
        """Steady state: the cached plan re-executes without any compiler
        invocation (the .so is memoised in-process and cached on disk)."""
        import unittest.mock

        from repro.kernels import get_kernel, run_original
        from repro.native import compiler as compiler_module

        values = {"N": 72}
        session.run("utma", values, backend="hybrid")
        with unittest.mock.patch.object(
            compiler_module.subprocess, "run",
            side_effect=AssertionError("hybrid steady state re-invoked the compiler"),
        ):
            again = session.run("utma", values, backend="hybrid")
        expected = run_original(get_kernel("utma"), values)
        assert np.array_equal(again["c"], expected["c"])

    def test_parser_derived_body_runs_hybrid(self, session):
        """A nest parsed from C-like text carries its own native body."""
        from repro.ir import parse_loop_nest
        from repro.runtime import SharedBuffers, build_plan

        nest, _ = parse_loop_nest(
            """
            for (i = 0; i < N - 1; i++)
              for (j = i + 1; j < N; j++)
                visits(i, j) += 1.0;
            """,
            parameters=["N"],
            name="correlation_text",
        )
        values = {"N": 20}
        plan = build_plan(nest, values, schedule="adaptive", native=True)
        assert plan.native_spec is not None
        expected = np.zeros((20, 20))
        for i, j in enumerate_iterations(nest, values):
            expected[i, j] += 1.0
        with SharedBuffers.create({"visits": np.zeros((20, 20))}) as buffers:
            result = session.engine.execute(plan, buffers=buffers)
            visits = buffers.snapshot()["visits"]
        session.engine.forget(plan)
        assert result.backend == "hybrid"
        assert np.array_equal(visits, expected)


# ---------------------------------------------------------------------- #
# fallback without a compiler
# ---------------------------------------------------------------------- #
class TestFallback:
    def test_hybrid_falls_back_to_engine_without_compiler(self, session, monkeypatch):
        """backend='hybrid' on a compiler-less machine must neither raise
        nor change the result — it runs the Python engine."""
        from repro.kernels import get_kernel, run_original
        from repro.native import clear_module_cache
        from repro.native import compiler as compiler_module

        monkeypatch.setattr(compiler_module, "find_compiler", lambda: None)
        clear_module_cache()  # an earlier test's memoised module must not mask the fallback
        values = {"N": 56}
        data = session.run("utma", values, backend="hybrid")
        expected = run_original(get_kernel("utma"), values)
        assert np.array_equal(data["c"], expected["c"])

    def test_fallback_result_reports_engine_backend(self, session, monkeypatch):
        """Nest sources return the run result, where the substrate that
        actually executed is visible: engine on fallback, hybrid otherwise."""
        from repro.native import clear_module_cache
        from repro.native import compiler as compiler_module

        nest, _ = _parse_visits_nest()
        values = {"N": 12}
        monkeypatch.setattr(compiler_module, "find_compiler", lambda: None)
        clear_module_cache()
        result = session.run(
            nest, values, data={"visits": np.zeros((12, 12))},
            backend="hybrid", iteration_op=_mark_visit,
        )
        assert result.backend == "engine"
        assert sum(result.results) == iteration_count(nest, values)

    def test_fallback_strips_native_only_plan_kwargs(self, session, monkeypatch):
        """An explicit c_body must not break the engine fallback: without a
        compiler the same call degrades, dropping the native-only options."""
        from repro.native import clear_module_cache
        from repro.native import compiler as compiler_module

        nest = _triangle_nest()
        values = {"N": 10}
        monkeypatch.setattr(compiler_module, "find_compiler", lambda: None)
        clear_module_cache()
        result = session.run(
            nest, values, data={"visits": np.zeros((10, 10))},
            backend="hybrid", iteration_op=_mark_visit,
            c_body="visits(i, j) += 1.0;", c_arrays=("visits",),
        )
        assert result.backend == "engine"
        assert sum(result.results) == iteration_count(nest, values)

    def test_hybrid_kernel_without_c_body_is_an_explicit_error(self, session):
        """The native plan checks the capability with a clear message, for
        hybrid exactly as for native — before any compiler is looked for."""
        import dataclasses

        from repro.kernels import get_kernel
        from repro.runtime.plan import PlanError

        # executable, no c_body (every registered executable kernel has one)
        kernel = dataclasses.replace(get_kernel("utma"), name="utma_python_only", c_body=None)
        for backend in ("hybrid", "native"):
            with pytest.raises(PlanError, match="no C body"):
                session.run(kernel, {"N": 8}, backend=backend)

    def test_opless_nest_without_compiler_names_the_compiler(self, session, monkeypatch):
        """A parsed nest with a C body but no Python ops, on a machine
        without a compiler: nothing can run it, and the error must name the
        missing compiler — not complain about missing Python ops."""
        from repro.native import NativeUnavailable, clear_module_cache
        from repro.native import compiler as compiler_module

        nest, _ = _parse_visits_nest()
        monkeypatch.setattr(compiler_module, "find_compiler", lambda: None)
        clear_module_cache()
        with pytest.raises(NativeUnavailable, match="no C compiler"):
            session.run(
                nest, {"N": 8}, data={"visits": np.zeros((8, 8))}, backend="hybrid"
            )

    @needs_compiler
    def test_broken_c_body_with_a_compiler_present_raises(self, session):
        """Fallback is for *missing compilers* only: a compilation failure
        of the caller's own C body must surface, not silently run the
        engine."""
        from repro.native import NativeUnavailable

        nest, _ = _parse_visits_nest()
        with pytest.raises(NativeUnavailable, match="compilation failed"):
            session.run(
                nest, {"N": 8}, data={"visits": np.zeros((8, 8))},
                backend="hybrid", iteration_op=_mark_visit,
                c_body="this is not C at all;", c_arrays=("visits",),
            )

    @needs_compiler
    def test_verify_kernel_hybrid_never_creates_the_default_session(self, monkeypatch):
        """Verification must not leave a process-wide worker pool behind."""
        from repro.kernels import get_kernel, verify_kernel
        from repro.runtime import session as session_module

        def _forbidden(*_args, **_kwargs):
            raise AssertionError("verify_kernel(hybrid) touched the default session")

        monkeypatch.setattr(session_module, "default_session", _forbidden)
        assert verify_kernel(get_kernel("utma"), parameter_values={"N": 32}, backend="hybrid")

    def test_hybrid_without_any_c_body_is_an_explicit_error(self, session):
        """A source that can never run natively (opaque nest, Python ops
        only) is a caller mistake, not a degraded mode: hybrid refuses it
        loudly instead of silently running the engine."""
        from repro.runtime.plan import PlanError

        nest = _triangle_nest()
        with pytest.raises(PlanError, match="no C body"):
            session.run(
                nest, {"N": 8}, data={"visits": np.zeros((8, 8))},
                backend="hybrid", iteration_op=_mark_visit,
            )

    @needs_compiler
    def test_with_compiler_the_same_call_reports_hybrid(self, session):
        nest, _ = _parse_visits_nest()
        values = {"N": 12}
        result = session.run(
            nest, values, data={"visits": np.zeros((12, 12))},
            backend="hybrid", iteration_op=_mark_visit,
        )
        assert result.backend == "hybrid"
        assert sum(result.results) == iteration_count(nest, values)


def _parse_visits_nest():
    from repro.ir import parse_loop_nest

    return parse_loop_nest(
        """
        for (i = 0; i < N; i++)
          for (j = i; j < N; j++)
            visits(i, j) += 1.0;
        """,
        parameters=["N"],
        name="triangle_text",
    )


# ---------------------------------------------------------------------- #
# worker-side degradation (honest backend reporting)
# ---------------------------------------------------------------------- #
@needs_compiler
class TestWorkerDegradation:
    def test_unbindable_data_degrades_to_python_ops(self, session):
        """float32 buffers cannot bind to the C ABI; with Python ops on the
        plan the workers must degrade — same results, honest backend."""
        nest, _ = _parse_visits_nest()
        values = {"N": 10}
        data = {"visits": np.zeros((10, 10), dtype=np.float32)}
        result = session.run(
            nest, values, data=data, backend="hybrid", iteration_op=_mark_visit
        )
        assert result.backend == "engine"  # degraded, and says so
        assert sum(result.results) == iteration_count(nest, values)
        assert float(data["visits"].sum()) == iteration_count(nest, values)

    def test_vanished_library_degrades_to_python_ops(self, session):
        """A hybrid plan whose .so disappeared between compile and dispatch
        must run the Python ops and report the engine substrate."""
        import dataclasses

        from repro.kernels import get_kernel, run_original
        from repro.native.module import NativeLibrarySpec
        from repro.runtime import SharedBuffers, build_plan

        kernel = get_kernel("utma")
        values = {"N": 40}
        plan = build_plan(kernel, values, schedule="static", native=True)
        broken = dataclasses.replace(
            plan,
            plan_id=plan.plan_id + "-broken",
            native_spec=NativeLibrarySpec(
                library_path="/nonexistent/repro-gone.so",
                parameters=plan.native_spec.parameters,
                arrays=plan.native_spec.arrays,
                array_ndims=plan.native_spec.array_ndims,
            ),
        )
        with SharedBuffers.create(kernel.make_data(values)) as buffers:
            result = session.engine.execute(broken, buffers=buffers)
            c = buffers.snapshot()["c"]
        session.engine.forget(broken)
        assert result.backend == "engine"
        assert np.array_equal(c, run_original(kernel, values)["c"])

    def test_a_worker_fallback_logs_one_warning(self, caplog):
        """In process: a worker whose spec names a missing library runs the
        Python ops and says so once, with the path and the loader's error."""
        import logging

        from repro.kernels import get_kernel, run_original
        from repro.native.module import NativeLibrarySpec
        from repro.runtime import SharedBuffers, build_plan
        from repro.runtime.engine import _WorkerPlan

        kernel = get_kernel("utma")
        values = {"N": 12}
        payload = build_plan(kernel, values, schedule="static").payload()
        missing = "/nonexistent/repro-missing.so"
        payload["native"] = NativeLibrarySpec(
            library_path=missing, parameters=("N",), arrays=("a", "b", "c"),
            array_ndims=(2, 2, 2),
        )
        worker = _WorkerPlan(payload)
        with SharedBuffers.create(kernel.make_data(values)) as buffers:
            with caplog.at_level(logging.WARNING, logger="repro.runtime.engine"):
                worker.attach(buffers.specs)
            assert worker.native_runner is None
            total = kernel.collapsed().total_iterations(values)
            assert worker.execute(1, total) == (total, None)
            worker.release_buffers()
            c = buffers.snapshot()["c"]
        warnings = [r for r in caplog.records if r.name == "repro.runtime.engine"]
        assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
        assert missing in warnings[0].getMessage()
        assert "repro-missing.so" in warnings[0].getMessage().split(": ", 1)[1]
        assert np.array_equal(c, run_original(kernel, values)["c"])

    def test_degradation_is_per_attachment_not_permanent(self, session):
        """A failed bind (float32 buffers) must not poison the plan: the
        next attachment with bindable float64 buffers runs natively again."""
        from repro.runtime import SharedBuffers, build_plan

        nest, _ = _parse_visits_nest()
        values = {"N": 10}
        plan = build_plan(
            nest, values, schedule="static", native=True,
            iteration_op=_mark_visit,
        )
        with SharedBuffers.create(
            {"visits": np.zeros((10, 10), dtype=np.float32)}
        ) as buffers:
            degraded = session.engine.execute(plan, buffers=buffers)
        assert degraded.backend == "engine"
        with SharedBuffers.create({"visits": np.zeros((10, 10))}) as buffers:
            recovered = session.engine.execute(plan, buffers=buffers)
            visits = buffers.snapshot()["visits"]
        session.engine.forget(plan)
        assert recovered.backend == "hybrid"
        assert visits.sum() == iteration_count(nest, values)

    def test_rank_conflict_reports_the_real_defect(self):
        """A parsed nest with a body but inconsistent array ranks must name
        the rank conflict, not claim there is no C body."""
        from repro.ir import parse_loop_nest
        from repro.runtime import build_plan
        from repro.runtime.plan import PlanError

        nest, _ = parse_loop_nest(
            "for (i = 0; i < N; i++)\n  v(i) = v(i, 0);", parameters=["N"]
        )
        with pytest.raises(PlanError, match="both 1 and 2 subscripts"):
            build_plan(nest, {"N": 8}, native=True, iteration_op=_mark_visit)

    def test_native_only_plan_with_unbindable_data_fails_loudly(self, session):
        """No Python ops to degrade to: the bind error must surface as an
        EngineError, not execute nothing."""
        from repro.runtime import EngineError, SharedBuffers, build_plan

        nest, _ = _parse_visits_nest()
        values = {"N": 8}
        plan = build_plan(nest, values, native=True)
        with SharedBuffers.create(
            {"visits": np.zeros((8, 8), dtype=np.float32)}
        ) as buffers:
            with pytest.raises(EngineError, match="float64"):
                session.engine.execute(plan, buffers=buffers)
        session.engine.forget(plan)


class TestWorkerBatchRecovery:
    """In process: a worker builds its batch recovery only for chunks that
    run through the Python operations, and before the first of them."""

    values = {"N": 12}

    def _worker(self, **plan_kwargs):
        from repro.kernels import get_kernel
        from repro.runtime import build_plan
        from repro.runtime.engine import _WorkerPlan

        plan = build_plan(get_kernel("utma"), self.values, schedule="static", **plan_kwargs)
        return _WorkerPlan(plan.payload())

    def _attach_and_run(self, worker):
        from repro.kernels import get_kernel, run_original
        from repro.runtime import SharedBuffers

        kernel = get_kernel("utma")
        with SharedBuffers.create(kernel.make_data(self.values)) as buffers:
            worker.attach(buffers.specs)
            built = worker.batch
            total = kernel.collapsed().total_iterations(self.values)
            assert worker.execute(1, total)[0] == total
            worker.release_buffers()
            assert np.array_equal(
                buffers.snapshot()["c"], run_original(kernel, self.values)["c"]
            )
        return built

    def test_an_engine_plan_builds_one_at_registration(self):
        worker = self._worker()
        assert worker.batch is not None
        assert self._attach_and_run(worker) is worker.batch

    @needs_compiler
    def test_a_bound_hybrid_plan_builds_none(self):
        worker = self._worker(native=True)
        assert worker.batch is None
        assert self._attach_and_run(worker) is None
        assert worker.batch is None

    def test_a_failed_bind_builds_one_before_the_first_chunk(self):
        from repro.kernels import get_kernel
        from repro.native.module import NativeLibrarySpec
        from repro.runtime import build_plan
        from repro.runtime.engine import _WorkerPlan

        payload = build_plan(get_kernel("utma"), self.values, schedule="static").payload()
        payload["native"] = NativeLibrarySpec(
            library_path="/nonexistent/repro-missing.so", parameters=("N",),
            arrays=("a", "b", "c"), array_ndims=(2, 2, 2),
        )
        worker = _WorkerPlan(payload)
        assert worker.batch is None
        built = self._attach_and_run(worker)
        assert worker.native_runner is None
        assert built is not None and built is worker.batch


# ---------------------------------------------------------------------- #
# cache keying (the ScheduleSpec audit)
# ---------------------------------------------------------------------- #
@needs_compiler
class TestCacheKeying:
    def test_adaptive_normalises_to_static_at_the_compile_choke_point(self):
        """compile_native_kernel is where every kernel-compiling path
        normalises the engine-only 'adaptive' policy."""
        from repro.native import compile_native_kernel

        module = compile_native_kernel("utma", schedule="adaptive")
        assert str(module.schedule) == "static"
        assert module is compile_native_kernel("utma", schedule="static")

    def test_schedule_change_never_reuses_a_stale_module(self):
        """The module memo is keyed by the parsed ScheduleSpec: asking for a
        new schedule compiles (or disk-loads) a unit carrying *that*
        schedule, while re-asking for an old one hits the memo."""
        from repro.native import compile_native_kernel

        static = compile_native_kernel("utma", schedule="static")
        dynamic = compile_native_kernel("utma", schedule="dynamic,64")
        assert static is not dynamic
        assert str(static.schedule) == "static"
        assert str(dynamic.schedule) == "dynamic,64"
        assert "schedule(static)" in static.source
        assert "schedule(dynamic, 64)" in dynamic.source
        assert compile_native_kernel("utma", schedule="static") is static

    def test_session_plans_are_keyed_by_schedule_and_backend(self, session):
        """One (kernel, size) under different schedules or backends must
        never share a cached plan — a hybrid plan carries a native spec an
        engine plan must not have."""
        values = {"N": 32}
        static = session.plan_for("utma", values, schedule="static")
        adaptive = session.plan_for("utma", values, schedule="adaptive")
        assert static is not adaptive
        assert session.plan_for("utma", values, schedule="static") is static
        engine_plan = session.plan_for("utma", values, schedule="static")
        hybrid_plan = session.plan_for("utma", values, schedule="static", native=True)
        assert engine_plan is not hybrid_plan
        assert engine_plan.native_spec is None
        assert hybrid_plan.native_spec is not None

    def test_same_shaped_nests_with_different_bodies_get_different_plans(self, session):
        """Two parsed nests with identical loops but different statements
        must not share a cached plan: the statement text *is* the compiled
        behavior now."""
        from repro.ir import parse_loop_nest
        from repro.kernels import get_kernel

        def parsed(op):
            nest, _ = parse_loop_nest(
                f"for (i = 0; i < N; i++)\n  for (j = i; j < N; j++)\n"
                f"    c(i, j) = a(i, j) {op} b(i, j);",
                parameters=["N"],
            )
            return nest

        values = {"N": 24}
        add_plan = session.plan_for(parsed("+"), values, native=True)
        mul_plan = session.plan_for(parsed("*"), values, native=True)
        assert add_plan is not mul_plan
        assert add_plan.native_spec.library_path != mul_plan.native_spec.library_path
        kernel_data = get_kernel("utma").make_data(values)
        add_result = session.run(parsed("+"), values, data=dict(kernel_data), backend="native")
        mul_data = dict(kernel_data)
        session.run(parsed("*"), values, data=mul_data, backend="native")
        assert add_result is not None
        expected = np.triu(kernel_data["a"] * kernel_data["b"])
        assert np.array_equal(np.triu(mul_data["c"]), expected)

    def test_hybrid_plans_share_one_library_across_schedules(self, session):
        """A native plan compiles its schedule's unit, and ``adaptive`` has
        no OpenMP spelling and maps to ``static``: the static and adaptive
        plans of one kernel reuse one compiled shared object — the inverse
        guarantee: sharing where sharing is *correct*."""
        values = {"N": 32}
        a = session.plan_for("utma", values, schedule="static", native=True)
        b = session.plan_for("utma", values, schedule="adaptive", native=True)
        assert a is not b
        assert a.native_spec.library_path == b.native_spec.library_path
