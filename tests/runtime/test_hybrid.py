"""The hybrid backend: a plan's chunks run by one in-process OpenMP call.

Contract under test, layer by layer:

* *in-process execution* — the plan's chunk list goes to the compiled
  ``repro_run_chunks`` in the calling process (proved by native-only plans
  that have no Python operations), no engine worker ever maps the
  compiled library, and a warm hybrid run sends no worker a message;
* *differential equality* — hybrid results are element-wise identical to
  the Python engine and to native's, which runs the same chunks;
* *fallback* — without a C compiler, ``backend="hybrid"`` degrades to the
  engine and still produces the identical result;
* *cache keying* — schedule changes never reuse a stale plan, and every
  schedule runs through the one compiled module of a nest.
"""

import sys

import numpy as np
import pytest

from repro.ir import Loop, LoopNest, enumerate_iterations, iteration_count
from repro.native import native_available
from repro.runtime import Source

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
        native = session.run(name, values, backend="native")
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

    #: kernels whose Python operation reduces through a NumPy dot product
    BLAS_REDUCED = frozenset({"correlation", "syrk", "syr2k", "trmm", "ltmp"})

    @pytest.mark.parametrize(
        "name", ["correlation", "covariance", "symm", "syrk", "syr2k", "trmm",
                 "cholesky_update", "lu_update", "utma", "ltmp"],
    )
    def test_every_schedule_runs_bit_identically_from_one_module(self, session, name):
        """Native and hybrid runs of every native kernel, under five
        schedules, agree to the last bit with each other and with
        ``run_original``, and all five schedules run one compiled library.

        The Python operations of the kernels in ``BLAS_REDUCED`` sum their
        inner loop through a NumPy dot product, which rounds differently
        from the C loop, so those match ``run_original`` to rounding only.
        """
        from repro.kernels import get_kernel, run_original

        kernel = get_kernel(name)
        values = {p: max(4, v // 6) for p, v in kernel.bench_parameters.items()}
        expected = run_original(kernel, values)
        first = None
        libraries = set()
        for schedule in ("static", "static,4", "dynamic", "dynamic,3", "guided"):
            for backend in ("native", "hybrid"):
                result = session.run(name, values, backend=backend, schedule=schedule)
                if first is None:
                    first = result
                for array in expected:
                    where = (schedule, backend, array)
                    assert np.array_equal(result[array], first[array]), where
                    if name in self.BLAS_REDUCED:
                        assert np.allclose(result[array], expected[array], atol=1e-9), where
                    else:
                        assert np.array_equal(result[array], expected[array]), where
            plan = session.plan_for(name, values, schedule, native=True)
            libraries.add(plan.native_module.library_path)
        assert len(libraries) == 1

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
# in-process execution
# ---------------------------------------------------------------------- #
@needs_compiler
class TestInProcess:
    def test_native_only_plan_runs_the_plan_chunks(self, session):
        """A nest with a C body and *no Python operations* can only run
        compiled; on hybrid it runs the plan's chunk list, one result entry
        per chunk, each count the chunk's size."""
        from repro.core import batch_recovery, collapse

        nest = _triangle_nest()
        values = {"N": 40}
        total = collapse(nest).total_iterations(values)
        source = Source.of(
            nest,
            c_body="trace(pc - 1) = (double)(i * 1000 + j);",
            c_arrays=("trace",),
            array_ndims={"trace": 1},
        )
        assert not source.has_python_ops
        trace = np.zeros(total)
        result = session.run(
            source, values, data={"trace": trace}, schedule="dynamic,64", backend="hybrid"
        )
        plan = session.plan_for(source, values, "dynamic,64", native=True)
        assert result.backend == "hybrid"
        assert result.chunks == plan.chunks(session.engine.workers)
        assert result.bounds.tolist() == [[chunk.first, chunk.last] for chunk in result.chunks]
        assert set(result.assignments) <= set(range(result.workers))
        indices = batch_recovery(collapse(nest)).recover_range(1, total, values)
        expected = indices[:, 0] * 1000 + indices[:, 1]
        assert np.array_equal(trace, expected.astype(np.float64))

    def test_nest_without_data_raises_the_native_error(self, session):
        """A nest on hybrid has nothing to run in place without ``data``:
        the same PlanError as native, never a silent engine run."""
        from repro.runtime.plan import PlanError

        nest, _ = _parse_visits_nest()
        for backend in ("hybrid", "native"):
            with pytest.raises(PlanError, match="needs data= arrays for \\['visits'\\]"):
                session.run(nest, {"N": 8}, backend=backend, iteration_op=_mark_visit)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/<pid>/maps"
    )
    def test_engine_workers_never_map_the_compiled_library(
        self, tmp_path, monkeypatch
    ):
        """Hybrid runs never reach the worker pool.  The pool starts before
        anything is compiled into a fresh ``$REPRO_NATIVE_CACHE``, so a
        worker could only map a file there by loading it itself; after
        hybrid runs between engine runs, none does."""
        from repro.native import clear_module_cache
        from repro.runtime import RuntimeSession

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        clear_module_cache()
        values = {"N": 48}
        try:
            with RuntimeSession(workers=2) as fresh:
                for backend in ("engine", "hybrid", "hybrid", "engine"):
                    fresh.run("utma", values, backend=backend, schedule="dynamic")
                assert any(tmp_path.iterdir()), "hybrid compiled nothing"
                workers = [process.pid for process in fresh.engine._processes]
                assert len(workers) == 2
                for pid in workers:
                    with open(f"/proc/{pid}/maps") as maps:
                        mapped = [line for line in maps if str(tmp_path) in line]
                    assert not mapped, (pid, mapped)
        finally:
            clear_module_cache()  # its modules point into tmp_path

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "adaptive"])
    def test_warm_run_sends_no_engine_message(self, session, schedule, monkeypatch):
        """With the worker pool up, a warm hybrid run puts nothing on any
        worker's command queue: the plan's chunks all run in this process,
        one result entry per chunk."""
        nest, _ = _parse_visits_nest()
        source = Source.of(nest, iteration_op=_mark_visit)
        values = {"N": 24}
        expected = np.zeros((24, 24))
        for indices in enumerate_iterations(nest, values):
            expected[indices] += 1.0
        for backend in ("engine", "hybrid"):  # pool up, module compiled
            session.run(source, values, data={"visits": np.zeros((24, 24))},
                        backend=backend, schedule=schedule)
        sent = []
        for worker_id, commands in enumerate(session.engine._commands):
            def put(message, _put=commands.put, _worker=worker_id):
                sent.append((_worker, message[0]))
                _put(message)
            monkeypatch.setattr(commands, "put", put)
        visits = np.zeros((24, 24))
        result = session.run(
            source, values, data={"visits": visits}, backend="hybrid", schedule=schedule
        )
        plan = session.plan_for(source, values, schedule, native=True)
        assert sent == []
        assert result.backend == "hybrid"
        assert result.chunks == plan.chunks(session.engine.workers)
        assert result.bounds.tolist() == [[chunk.first, chunk.last] for chunk in result.chunks]
        assert np.array_equal(visits, expected)

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
        expected = np.zeros((20, 20))
        for i, j in enumerate_iterations(nest, values):
            expected[i, j] += 1.0
        visits = np.zeros((20, 20))
        result = session.run(nest, values, data={"visits": visits}, backend="hybrid")
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
        assert result.iterations == iteration_count(nest, values)

    def test_fallback_runs_the_same_source_on_the_engine(self, session, monkeypatch):
        """An explicit c_body must not break the engine fallback: without a
        compiler the same source value degrades to an engine plan, which
        runs its Python ops and leaves its C body unused."""
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
        assert result.iterations == iteration_count(nest, values)

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
        assert result.iterations == iteration_count(nest, values)


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
# data the compiled call cannot take, plans the engine cannot run
# ---------------------------------------------------------------------- #
@needs_compiler
class TestCompiledDataErrors:
    def test_unbindable_data_raises_before_any_write(self, session):
        """float32 arrays cannot bind to the C ABI: hybrid runs in this
        process, so the bind error surfaces at once and nothing is
        written — there is no worker to degrade to the Python ops."""
        from repro.native import NativeExecutionError

        nest, _ = _parse_visits_nest()
        visits = np.zeros((10, 10), dtype=np.float32)
        with pytest.raises(NativeExecutionError, match="float64"):
            session.run(
                nest, {"N": 10}, data={"visits": visits}, backend="hybrid",
                iteration_op=_mark_visit,
            )
        assert not visits.any()

    def test_rank_conflict_reports_the_real_defect(self):
        """A parsed nest with a body but inconsistent array ranks must name
        the rank conflict, not claim there is no C body."""
        from repro.ir import parse_loop_nest
        from repro.runtime.plan import PlanError

        nest, _ = parse_loop_nest(
            "for (i = 0; i < N; i++)\n  v(i) = v(i, 0);", parameters=["N"]
        )
        with pytest.raises(PlanError, match="both 1 and 2 subscripts"):
            Source.of(nest, iteration_op=_mark_visit)

    def test_native_only_plan_on_the_engine_is_an_explicit_error(self, session):
        """The engine runs Python operations only: a plan without them is
        refused in this process, before any worker sees it."""
        from repro.runtime import EngineError, SharedBuffers, build_plan

        nest, _ = _parse_visits_nest()
        plan = build_plan(nest, {"N": 8}, native=True)
        with SharedBuffers.create({"visits": np.zeros((8, 8))}) as buffers:
            with pytest.raises(EngineError, match="no Python operations"):
                session.engine.execute(plan, buffers=buffers)


class TestWorkerBatchRecovery:
    """In process: a worker builds its batch recovery at registration,
    before the first chunk."""

    values = {"N": 12}

    def test_an_engine_plan_builds_one_at_registration(self):
        from repro.kernels import get_kernel, run_original
        from repro.runtime import SharedBuffers, build_plan
        from repro.runtime.engine import _WorkerPlan

        kernel = get_kernel("utma")
        worker = _WorkerPlan(build_plan(kernel, self.values, schedule="static").payload())
        built = worker.batch
        assert built is not None
        with SharedBuffers.create(kernel.make_data(self.values)) as buffers:
            worker.attach(buffers.specs)
            total = kernel.collapsed().total_iterations(self.values)
            worker.execute(1, total)
            worker.release_buffers()
            assert np.array_equal(
                buffers.snapshot()["c"], run_original(kernel, self.values)["c"]
            )
        assert worker.batch is built


@needs_compiler
class TestNativeAdaptive:
    """``native`` runs the plan's chunks under every schedule, ``adaptive``
    included, so it runs what hybrid runs and its per-chunk seconds feed
    the plan's measure→re-cut loop (under a frozen clock: re-cuts follow
    only the store's change token)."""

    @pytest.fixture
    def clock(self, monkeypatch):
        from repro.runtime import plan as plan_module, profile

        monkeypatch.setattr(profile, "monotonic", lambda: 1000.0)
        monkeypatch.setattr(plan_module, "monotonic", lambda: 1000.0)

    def test_native_and_hybrid_run_one_adaptive_cut(self, clock):
        """The first run's cost-model cut is replaced at its measurement;
        after that both names run the plan's one memoised tuple."""
        from repro.runtime import RuntimeSession

        nest = _triangle_nest()
        values = {"N": 40}
        source = Source.of(nest, c_body="visits(i, j) += 1.0;", c_arrays=("visits",))
        expected = np.zeros((40, 40))
        for indices in enumerate_iterations(nest, values):
            expected[indices] += 1.0
        results = []
        with RuntimeSession(workers=2) as session:
            for backend in ("native", "hybrid", "native"):
                visits = np.zeros((40, 40))
                results.append(session.run(
                    source, values, data={"visits": visits}, schedule="adaptive",
                    backend=backend,
                ))
                assert np.array_equal(visits, expected), backend
            plan = session.plan_for(source, values, "adaptive", native=True)
            _, hybrid, native = results
            assert (hybrid.backend, native.backend) == ("hybrid", "native")
            assert str(native.schedule) == "adaptive"
            assert native.chunks is hybrid.chunks is plan.chunks(session.engine.workers)
            assert native.bounds.tolist() == [[chunk.first, chunk.last] for chunk in native.chunks]

    def test_native_segments_tile_the_range_and_feed_the_recut(self, clock):
        from repro.runtime import RuntimeSession, default_profile_store, profile_guided_chunks
        from repro.runtime.plan import DEFAULT_OVERSUBSCRIBE

        values = {"N": 48}
        with RuntimeSession(workers=2) as session:
            plan = session.plan_for("ltmp", values, "adaptive", native=True)
            cold = plan.chunks(session.engine.workers)
            session.run("ltmp", values, backend="native", schedule="adaptive")
            store = default_profile_store()
            profiles = store.load(plan.profile_key)
            assert set(profiles) == {"native"}
            bounds, seconds = profiles["native"].segments
            total = plan.total_iterations
            assert bounds.tolist() == [[chunk.first, chunk.last] for chunk in cold]
            assert bounds[0, 0] == 1 and bounds[-1, 1] == total
            assert (bounds[1:, 0] == bounds[:-1, 1] + 1).all()
            assert len(seconds) == len(cold)
            preferred = store.segments(plan.profile_key, total, prefer_backend="hybrid")
            assert np.array_equal(preferred[0], bounds)
            assert np.array_equal(preferred[1], seconds)
            count = min(total, session.engine.workers * DEFAULT_OVERSUBSCRIBE)
            recut = plan.chunks(session.engine.workers)
            assert recut == tuple(profile_guided_chunks(bounds, seconds, total, count))


# ---------------------------------------------------------------------- #
# cache keying (the ScheduleSpec audit)
# ---------------------------------------------------------------------- #
@needs_compiler
class TestCacheKeying:
    def test_one_module_serves_every_schedule(self):
        """Compiling a kernel takes no schedule: the one memoised module
        runs whichever schedule's cut the call hands it, ``adaptive``
        included, and reports that schedule."""
        import inspect

        from repro.kernels import get_kernel
        from repro.native import compile_native_kernel
        from repro.runtime import build_plan

        assert "schedule" not in inspect.signature(compile_native_kernel).parameters
        module = compile_native_kernel("utma")
        assert module is compile_native_kernel("utma")
        assert not hasattr(module, "schedule")
        kernel = get_kernel("utma")
        values = {"N": 24}
        total = kernel.collapsed().total_iterations(values)
        for schedule in ("adaptive", "dynamic,64", "guided"):
            plan = build_plan(kernel, values, schedule, native=True)
            assert plan.native_module is module
            result = module.run(
                kernel.make_data(values), module.bind(values, schedule, threads=2), plan.chunks(2)
            )
            assert str(result.schedule) == schedule
            assert result.chunks == plan.chunks(2)
            assert result.iterations == total

    def test_schedule_change_reruns_the_one_library(self, session):
        """Native runs of one nest under two schedules share one compiled
        library, and each honours its own schedule: a ``static`` run after
        a ``dynamic,1`` run still gets one contiguous ``pc`` block per
        thread, tiling the range."""
        nest = _triangle_nest()
        values = {"N": 40}
        total = iteration_count(nest, values)
        options = {"c_body": "visits(i, j) += 1.0;", "c_arrays": ("visits",)}
        libraries = set()
        for schedule in ("dynamic,1", "static"):
            visits = np.zeros((40, 40))
            result = session.run(
                nest, values, data={"visits": visits}, schedule=schedule,
                backend="native", **options,
            )
            assert str(result.schedule) == schedule
            assert visits.sum() == total
            plan = session.plan_for(Source.of(nest, **options), values, schedule, native=True)
            libraries.add(plan.native_module.library_path)
        assert len(libraries) == 1
        spans = sorted((chunk.first, chunk.last) for chunk in result.chunks)
        assert len(spans) == result.workers  # static: every thread has a block
        assert spans[0][0] == 1 and spans[-1][1] == total
        assert all(last + 1 == first for (_, last), (first, _) in zip(spans, spans[1:]))
        assert result.iterations == total

    def test_session_plans_are_keyed_by_schedule_and_backend(self, session):
        """One (kernel, size) under different schedules or backends must
        never share a cached plan — a hybrid plan carries a compiled module
        an engine plan must not have."""
        values = {"N": 32}
        static = session.plan_for("utma", values, schedule="static")
        adaptive = session.plan_for("utma", values, schedule="adaptive")
        assert static is not adaptive
        assert session.plan_for("utma", values, schedule="static") is static
        engine_plan = session.plan_for("utma", values, schedule="static")
        hybrid_plan = session.plan_for("utma", values, schedule="static", native=True)
        assert engine_plan is not hybrid_plan
        assert engine_plan.native_module is None
        assert hybrid_plan.native_module is not None

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
        assert add_plan.native_module.library_path != mul_plan.native_module.library_path
        kernel_data = get_kernel("utma").make_data(values)
        add_result = session.run(parsed("+"), values, data=dict(kernel_data), backend="native")
        mul_data = dict(kernel_data)
        session.run(parsed("*"), values, data=mul_data, backend="native")
        assert add_result is not None
        expected = np.triu(kernel_data["a"] * kernel_data["b"])
        assert np.array_equal(np.triu(mul_data["c"]), expected)

    def test_hybrid_plans_share_one_library_across_schedules(self, session):
        """A native plan's unit does not depend on its schedule: the plans
        of one kernel under every schedule reuse one compiled shared
        object — the inverse guarantee: sharing where sharing is
        *correct*."""
        values = {"N": 32}
        a = session.plan_for("utma", values, schedule="static", native=True)
        b = session.plan_for("utma", values, schedule="adaptive", native=True)
        c = session.plan_for("utma", values, schedule="guided", native=True)
        assert a is not b and b is not c
        assert a.native_module.library_path == b.native_module.library_path
        assert b.native_module.library_path == c.native_module.library_path
