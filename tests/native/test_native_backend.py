"""Compile-and-run coverage of the native backend.

Differential contract: everything the compiled translation unit computes —
trip counts, recovered indices, kernel outputs, per-chunk bookkeeping —
must agree element-wise with the Python reference paths (scalar unranking,
:class:`BatchRecovery`, ``run_original`` and the runtime engine).
"""

import numpy as np
import pytest

from repro.core import batch_recovery, collapse
from repro.ir import enumerate_iterations, iteration_count
from repro.openmp import ScheduleSpec
from repro.openmp.schedule import Chunk
from repro.runtime import RunResult, Source
from repro.runtime.plan import policy_chunks
from repro.native import (
    NativeExecutionError,
    compile_collapsed,
    compile_native_kernel,
    native_available,
)

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)


def _dummy_op(data, indices, values):  # module-level: picklable for plans
    pass


def _cut(module, values, schedule="static", workers=2):
    """The chunks the runtime cuts ``[1, total]`` into under a classic
    ``schedule`` (what a plan of that schedule hands the module)."""
    return policy_chunks(ScheduleSpec.parse(schedule), module.total(values), workers)


def _run_native(kernel, values):
    """One native run of a kernel through a private session."""
    from repro.runtime import RuntimeSession

    with RuntimeSession(workers=2) as session:
        return session.run(kernel, values, backend="native")


# ---------------------------------------------------------------------- #
# index recovery
# ---------------------------------------------------------------------- #
class TestRecovery:
    @pytest.mark.parametrize(
        "schedule", ["static", "dynamic,3", "static,4", "static,1", "guided"]
    )
    def test_recover_matches_batch_on_every_pc(self, figure6_nest, schedule):
        """Every pc the one compiled unit runs, over each schedule's chunk
        cut, sees the indices the batch recovery gives: each chunk
        recovers at its first pc and increments across the rest."""
        collapsed = collapse(figure6_nest)
        module = compile_collapsed(Source.of(
            collapsed,
            c_body="rows(pc - 1, 0) = (double)i; rows(pc - 1, 1) = (double)j; "
            "rows(pc - 1, 2) = (double)k;",
            c_arrays=("rows",),
        ))
        values = {"N": 40}
        total = collapsed.total_iterations(values)
        batch = batch_recovery(collapsed).recover_range(1, total, values)
        assert np.array_equal(module.recover_range(1, total, values), batch)
        rows = np.full((total, 3), -1.0)
        chunks = _cut(module, values, schedule)
        result = module.run({"rows": rows}, module.bind(values, schedule, threads=2), chunks)
        assert str(result.schedule) == str(ScheduleSpec.parse(schedule))
        assert result.chunks == tuple(chunks)
        assert np.array_equal(rows, batch.astype(np.float64))

    def test_total_matches_ranking(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        module = compile_collapsed(collapsed)
        for n in (1, 2, 7, 40, 1000):
            assert module.total({"N": n}) == collapsed.total_iterations({"N": n})

    def test_first_and_last_pc_of_every_level(self, correlation_nest):
        """The boundary ranks — where the guarded floor earns its keep."""
        collapsed = collapse(correlation_nest)
        module = compile_collapsed(collapsed)
        values = {"N": 60}
        boundary_pcs = []
        expected = []
        rows = {}
        for pc, indices in enumerate(
            enumerate_iterations(correlation_nest, values), start=1
        ):
            rows.setdefault(indices[0], []).append((pc, indices))
        for level_rows in rows.values():
            for pc, indices in (level_rows[0], level_rows[-1]):
                boundary_pcs.append(pc)
                expected.append(indices)
        for pc, indices in zip(boundary_pcs, expected):
            assert tuple(module.recover_range(pc, pc, values)[0]) == indices

    def test_bisection_fallback_matches_exact_recovery(self):
        """Levels beyond the degree-4 closed forms run the emitted search."""
        from repro.ir import Loop, LoopNest

        nest = LoopNest(
            [
                Loop.make("i", 0, "N"),
                Loop.make("j", 0, "i + 1"),
                Loop.make("k", 0, "j + 1"),
                Loop.make("l", 0, "k + 1"),
                Loop.make("m", 0, "l + 1"),
            ],
            parameters=["N"],
            name="simplex5",
        )
        collapsed = collapse(nest)
        assert not collapsed.uses_only_closed_forms()
        module = compile_collapsed(collapsed)
        values = {"N": 6}
        total = collapsed.total_iterations(values)
        native = module.recover_range(1, total, values)
        batch = batch_recovery(collapsed).recover_range(1, total, values)
        assert np.array_equal(native, batch)

    def test_empty_range_returns_empty(self, correlation_nest):
        module = compile_collapsed(collapse(correlation_nest))
        assert module.recover_range(5, 4, {"N": 10}).shape == (0, 2)

    def test_missing_parameter_is_reported(self, correlation_nest):
        module = compile_collapsed(collapse(correlation_nest))
        with pytest.raises(NativeExecutionError, match="missing parameter"):
            module.recover_range(1, 3, {})

    def test_out_of_range_pcs_raise_like_batch_recovery(self, correlation_nest):
        """No silent clamping: a miscalculated range must fail loudly, with
        the same contract as BatchRecovery.recover_range."""
        collapsed = collapse(correlation_nest)
        module = compile_collapsed(collapsed)
        values = {"N": 6}
        total = collapsed.total_iterations(values)
        with pytest.raises(NativeExecutionError, match=r"must lie in \[1, 15\]"):
            module.recover_range(total - 1, total + 3, values)
        with pytest.raises(NativeExecutionError, match="must lie in"):
            module.recover_range(0, 2, values)

    def test_run_rejects_last_pc_beyond_total(self):
        from repro.kernels import get_kernel

        kernel = get_kernel("utma")
        values = {"N": 16}
        module = compile_native_kernel(kernel)
        data = kernel.make_data(values)
        before = data["c"].copy()
        with pytest.raises(NativeExecutionError, match="must lie in"):
            module.run(data, module.bind(values), [Chunk(1, 10**9)])
        assert np.array_equal(data["c"], before)


class TestGuardedFloorRegression:
    """The headline bugfix: the emitted C used a bare ``floor(creal(...))``.

    For the Fig. 6 tetrahedral nest at N=50 the closed-form cubic root of
    the *first* iteration evaluates to ``-1.1e-16`` — an exact ``0``
    mathematically, landing just below it in floats (the ``k - 1e-12``
    boundary class).  A bare floor recovers ``i = -1``; the guarded floor
    (epsilon + exact bracket correction, as the Python path always had)
    recovers ``0``.
    """

    def test_the_first_root_lands_just_below_zero(self, figure6_nest):
        # pc=1 is the k - 1e-12 case: the bare floor of the root lands one
        # below, so the case below still exercises the bracket correction
        import math

        recovery = collapse(figure6_nest).unranking.recoveries[0]
        root = recovery.expression.evaluate({"N": 50, "pc": 1})
        assert -1e-12 < root.real < 0
        assert math.floor(root.real) == -1

    def test_guarded_floor_recovers_identically(self, figure6_nest):
        collapsed = collapse(figure6_nest)
        values = {"N": 50}
        total = collapsed.total_iterations(values)
        module = compile_collapsed(collapsed)
        truth = batch_recovery(collapsed).recover_range(1, total, values)
        assert np.array_equal(module.recover_range(1, total, values), truth)
        # and the boundary iteration specifically
        assert tuple(module.recover_range(1, 1, values)[0]) == (0, 0, 0)


class TestSixtyFourBitArithmetic:
    """Depth-3 domains overflow 32-bit counters before N reaches 2600; the
    emitted ``long long`` arithmetic (pc, totals, recovered iterators and
    the ``repro_next`` successor test) must not truncate."""

    N = 2560  # total = N (N+1) (N+2) / 6 = 2 799 403 520 > 2^31

    def test_total_and_recovery_past_two_to_the_31(self, simplex3_nest):
        collapsed = collapse(simplex3_nest)
        values = {"N": self.N}
        total = collapsed.total_iterations(values)
        assert total > 2**31
        module = compile_collapsed(collapsed)
        assert module.total(values) == total
        native = module.recover_range(total - 2, total, values)
        expected = [collapsed.recover_indices(pc, values) for pc in range(total - 2, total + 1)]
        assert [tuple(row) for row in native] == expected
        assert tuple(native[-1]) == (self.N - 1, self.N - 1, self.N - 1)

    def test_chunked_run_past_two_to_the_31(self, simplex3_nest):
        """Chunk starts on pc values beyond 2^31 (a window of the huge
        domain, run as a list of 512-iteration chunks).

        Inside the window ``i`` stays at ``N - 1`` while ``j`` and ``k``
        vary, so each iteration owns the cell ``(j, k)``: a plain store, no
        two threads ever write one cell."""
        collapsed = collapse(simplex3_nest)
        values = {"N": self.N}
        total = collapsed.total_iterations(values)
        first = total - 4999
        window = batch_recovery(collapsed).recover_range(first, total, values)
        assert len({(j, k) for _i, j, k in window}) == len(window) == 5000
        module = compile_collapsed(Source.of(
            collapsed,
            c_body="visits(j, k) = (double)(i + 1);",
            c_arrays=("visits",),
        ))
        visits = np.zeros((self.N, self.N))
        chunks = [Chunk(start, min(start + 511, total)) for start in range(first, total + 1, 512)]
        result = module.run(
            {"visits": visits}, module.bind(values, "dynamic,512", threads=2), chunks
        )
        assert result.iterations == 5000
        expected = np.zeros((self.N, self.N))
        for i, j, k in window:
            expected[j, k] = i + 1
        assert np.array_equal(visits, expected)


class TestExactRecoveryHugeRanges:
    """The exact-recovery acceptance pin (ISSUE 5): a depth-3 nest with more
    than 2^50 collapsed iterations recovers indices exactly in the compiled
    backends.

    At ``N = 400000`` the simplex3 domain holds ~2^53.2 ranks.  The
    pre-__int128 emitted C — ``rint`` on double brackets, double-rounded
    totals — mis-recovered *every* probed level boundary at this size; the
    emitted seed-then-correct scheme over ``__int128`` integer brackets must
    agree with an independent big-int reference on every probe, for both the
    recovery entry (``repro_recover_range``) and the run entry
    (``repro_run_chunks``'s recover-once-then-increment per chunk).
    """

    N = 400000  # total = 10 666 746 666 800 000 ≈ 2^53.2 > 2^50

    # the independent big-int reference unranker comes from the shared
    # ``exact_reference_recover`` session fixture (tests/conftest.py)

    def _probe_firsts(self, collapsed, values):
        total = collapsed.total_iterations(values)
        firsts = {1, total - 9}
        for i in (self.N - 1, self.N - 7, self.N // 2):
            firsts.add(collapsed.rank_of((i, 0, 0), values) - 5)
        for point in (2**45, 2**50):
            firsts.add(point - 5)
        return sorted(first for first in firsts if 1 <= first <= total - 9)

    def test_total_is_exact_past_2_to_50(self, simplex3_nest):
        collapsed = collapse(simplex3_nest)
        values = {"N": self.N}
        total = collapsed.total_iterations(values)
        assert total > 2**50
        module = compile_collapsed(collapsed)
        assert module.total(values) == total

    def test_recover_range_windows_match_exact_reference(
        self, simplex3_nest, exact_reference_recover
    ):
        collapsed = collapse(simplex3_nest)
        values = {"N": self.N}
        module = compile_collapsed(collapsed)
        for first in self._probe_firsts(collapsed, values):
            native = module.recover_range(first, first + 9, values)
            expected = [
                exact_reference_recover(collapsed, pc, values)
                for pc in range(first, first + 10)
            ]
            assert [tuple(row) for row in native] == expected, first
            # and the batch (python/engine substrate) agrees on the same window
            batch = batch_recovery(collapsed).recover_range(first, first + 9, values)
            assert np.array_equal(batch, native), first

    def test_hybrid_run_chunks_recover_exactly(self, simplex3_nest, exact_reference_recover):
        """The run entry: ``repro_run_chunks`` recovers once at each
        chunk's first pc (deep inside the >2^50 domain) and increments —
        the traced index tuples must match the exact reference."""
        collapsed = collapse(simplex3_nest)
        values = {"N": self.N}
        module = compile_collapsed(Source.of(
            collapsed,
            c_body=(
                "trace(pc % 64, 0) = (double)i; "
                "trace(pc % 64, 1) = (double)j; "
                "trace(pc % 64, 2) = (double)k;"
            ),
            c_arrays=("trace",),
        ))
        for first in self._probe_firsts(collapsed, values):
            trace = np.full((64, 3), -1.0)
            chunks = [Chunk(first, first + 4), Chunk(first + 5, first + 9)]
            result = module.run({"trace": trace}, module.bind(values, threads=2), chunks)
            assert result.backend == "native"
            assert result.bounds.tolist() == [[first, first + 4], [first + 5, first + 9]]
            for pc in range(first, first + 10):
                assert tuple(trace[pc % 64].astype(np.int64)) == exact_reference_recover(
                    collapsed, pc, values
                ), (first, pc)


# ---------------------------------------------------------------------- #
# kernel execution
# ---------------------------------------------------------------------- #
class TestKernelExecution:
    def test_every_native_kernel_verifies(self):
        from repro.kernels import native_kernels, verify_kernel

        kernels = native_kernels()
        assert len(kernels) >= 10
        for kernel in kernels:
            assert verify_kernel(kernel, backend="native"), kernel.name

    def test_utma_is_bit_identical_to_original_order(self):
        """The triangular acceptance case: element-wise add, so the compiled
        C and the Python paths must agree to the last bit."""
        from repro.kernels import get_kernel, run_original

        kernel = get_kernel("utma")
        values = {"N": 160}
        original = run_original(kernel, values)
        native = _run_native(kernel, values)
        assert np.array_equal(original["c"], native["c"])

    def test_ltmp_depth3_reduction_matches(self):
        """The depth-3 acceptance case: the non-collapsed k loop runs as a
        real C loop inside each collapsed iteration."""
        from repro.kernels import get_kernel, run_original

        kernel = get_kernel("ltmp")
        values = {"N": 96}
        original = run_original(kernel, values)
        native = _run_native(kernel, values)
        assert np.allclose(original["c"], native["c"], atol=1e-9)

    @pytest.mark.parametrize("name", ["covariance", "symm", "cholesky_update", "lu_update"])
    def test_elementwise_kernels_are_bit_identical(self, name):
        from repro.kernels import get_kernel, run_original

        kernel = get_kernel(name)
        values = dict(kernel.bench_parameters)
        original = run_original(kernel, values)
        native = _run_native(kernel, values)
        for array in original:
            assert np.array_equal(original[array], native[array]), array

    def test_run_result_carries_per_chunk_timings(self):
        from repro.kernels import get_kernel

        kernel = get_kernel("utma")
        values = {"N": 64}
        module = compile_native_kernel(kernel)
        data = kernel.make_data(values)
        chunks = _cut(module, values, "static")
        result = module.run(data, module.bind(values, "static", threads=2), chunks)
        assert isinstance(result, RunResult)
        assert result.backend == "native"
        total = kernel.collapsed().total_iterations(values)
        assert result.iterations == total
        # one entry per chunk, in the order given
        assert result.chunks == tuple(chunks)
        assert result.bounds.tolist() == [[chunk.first, chunk.last] for chunk in chunks]
        assert len(result.chunk_seconds) == len(result.assignments) == len(chunks)
        assert all(seconds >= 0.0 for seconds in result.chunk_seconds)
        assert 1 <= result.workers <= 2
        assert set(result.assignments) <= set(range(result.workers))

    @pytest.mark.parametrize("omp_schedule", ["dynamic,1", "static,1000000"])
    def test_static_run_ignores_omp_schedule_and_the_previous_call(self, omp_schedule):
        """Nothing but the plan's cut steers a run: with ``OMP_SCHEDULE``
        set in the environment and a ``dynamic,1`` run just before, a
        ``static`` run executes exactly ``plan.chunks(workers)`` (one block
        per thread, tiling ``[1, total]``), and the caller's run-sched-var
        is the same after the calls as before."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = """
import ctypes, json
from repro.kernels import get_kernel
from repro.runtime import build_plan
kernel = get_kernel("utma")
values = {"N": 64}
plans = [build_plan(kernel, values, schedule) for schedule in ("dynamic,1", "static")]
module = plans[1].native_module
lib = ctypes.CDLL(str(module.library_path))
def run_sched_var():
    kind, chunk = ctypes.c_int(), ctypes.c_int()
    lib.omp_get_schedule(ctypes.byref(kind), ctypes.byref(chunk))
    return [kind.value, chunk.value]
before = run_sched_var()
for plan in plans:
    result = module.run(
        kernel.make_data(values), module.bind(values, plan.schedule, threads=2), plan.chunks(2)
    )
print(json.dumps({
    "total": kernel.collapsed().total_iterations(values),
    "ran": [[chunk.first, chunk.last] for chunk in result.chunks],
    "planned": [[chunk.first, chunk.last] for chunk in plans[1].chunks(2)],
    "schedule": [before, run_sched_var()],
}))
"""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, OMP_SCHEDULE=omp_schedule)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        spans, total = report["ran"], report["total"]
        assert spans == report["planned"]
        assert len(spans) == 2  # static: one block per thread
        assert spans[0][0] == 1 and spans[-1][1] == total
        assert all(last + 1 == first for (_, last), (first, _) in zip(spans, spans[1:]))
        before, after = report["schedule"]
        assert before == after

    def test_iterations_counts_executed_work_under_dynamic_schedules(self):
        """Under on-demand hand-out a thread runs many chunks; the result
        keeps one entry per chunk and counts the executed iterations."""
        from repro.kernels import get_kernel

        kernel = get_kernel("utma")
        values = {"N": 96}
        module = compile_native_kernel(kernel)
        chunks = _cut(module, values, "dynamic,64")
        result = module.run(
            kernel.make_data(values), module.bind(values, "dynamic,64", threads=2), chunks
        )
        total = kernel.collapsed().total_iterations(values)
        assert len(result.bounds) == len(chunks) > 2
        assert result.iterations == total

    def test_kernel_without_c_body_is_rejected(self):
        import dataclasses

        from repro.kernels import get_kernel

        kernel = dataclasses.replace(get_kernel("utma"), name="utma_python_only", c_body=None)
        with pytest.raises(ValueError, match="no C body"):
            _run_native(kernel, {"N": 8})

    def test_bad_array_dtype_is_rejected(self):
        from repro.kernels import get_kernel

        kernel = get_kernel("utma")
        values = {"N": 16}
        module = compile_native_kernel(kernel)
        data = kernel.make_data(values)
        data["c"] = data["c"].astype(np.float32)
        with pytest.raises(NativeExecutionError, match="float64"):
            module.run(data, module.bind(values), _cut(module, values))

    def test_run_chunks_covers_the_range(self):
        """The run entry: arbitrary contiguous chunks, claimed by the
        OpenMP team one at a time, must compose to exactly the
        whole-range result, in increasing order or in reverse (where no
        chunk follows the one its thread ran before, so each recovers)."""
        from repro.kernels import get_kernel, run_original

        kernel = get_kernel("utma")
        values = {"N": 80}
        module = compile_native_kernel(kernel)
        total = kernel.collapsed().total_iterations(values)
        forward = [Chunk(first, min(first + 112, total)) for first in range(1, total + 1, 113)]
        expected = run_original(kernel, values)
        for chunks in (forward, forward[::-1]):
            data = kernel.make_data(values)
            result = module.run(data, module.bind(values, "dynamic", threads=2), chunks)
            assert result.bounds.tolist() == [[chunk.first, chunk.last] for chunk in chunks]
            assert result.chunks == tuple(chunks)
            assert set(result.assignments) <= set(range(result.workers))
            assert str(result.schedule) == "dynamic"
            assert np.array_equal(data["c"], expected["c"])
        # an empty chunk list is legal and runs nothing (a chunk itself is
        # never empty: ``Chunk`` refuses last < first)
        assert module.run(data, module.bind(values, threads=2), []).bounds.shape == (0, 2)
        assert np.array_equal(data["c"], expected["c"])

    @pytest.mark.parametrize("bad", [(0, 3), (1, 10**6)])
    def test_out_of_range_chunk_fails_before_any_write(self, bad):
        from repro.kernels import get_kernel

        kernel = get_kernel("utma")
        values = {"N": 16}
        module = compile_native_kernel(kernel)
        data = kernel.make_data(values)
        before = {name: array.copy() for name, array in data.items()}
        with pytest.raises(NativeExecutionError, match="must lie in"):
            module.run(data, module.bind(values, threads=2), [Chunk(1, 5), Chunk(*bad)])
        for name in before:
            assert np.array_equal(data[name], before[name]), name

    def test_one_dimensional_arrays_run_natively(self, correlation_nest):
        """The N-D macro gap closed: a 1-D trace array, indexed by pc."""
        from repro.core import batch_recovery, collapse

        collapsed = collapse(correlation_nest)
        values = {"N": 40}
        total = collapsed.total_iterations(values)
        module = compile_collapsed(Source.of(
            collapsed,
            c_body="trace(pc - 1) = (double)(i * 1000 + j);",
            c_arrays=("trace",),
            array_ndims={"trace": 1},
        ))
        trace = np.zeros(total)
        result = module.run({"trace": trace}, module.bind(values, threads=2), _cut(module, values))
        assert result.iterations == total
        indices = batch_recovery(collapsed).recover_range(1, total, values)
        assert np.array_equal(trace, (indices[:, 0] * 1000 + indices[:, 1]).astype(float))

    def test_three_dimensional_arrays_run_natively(self, correlation_nest):
        from repro.core import collapse
        from repro.ir import enumerate_iterations

        collapsed = collapse(correlation_nest)
        values = {"N": 12}
        module = compile_collapsed(Source.of(
            collapsed,
            c_body="cube(i, j, 1) += 1.0;",
            c_arrays=("cube",),
            array_ndims={"cube": 3},
        ))
        cube = np.zeros((12, 12, 2))
        module.run({"cube": cube}, module.bind(values, threads=2), _cut(module, values))
        expected = np.zeros((12, 12, 2))
        for i, j in enumerate_iterations(correlation_nest, values):
            expected[i, j, 1] += 1.0
        assert np.array_equal(cube, expected)

    def test_wrong_rank_data_is_rejected(self, correlation_nest):
        from repro.core import collapse

        module = compile_collapsed(Source.of(
            collapse(correlation_nest),
            c_body="trace(pc - 1) = 1.0;",
            c_arrays=("trace",),
            array_ndims={"trace": 1},
        ))
        with pytest.raises(NativeExecutionError, match="1-D"):
            module.run({"trace": np.zeros((4, 4))}, module.bind({"N": 4}), _cut(module, {"N": 4}))


# ---------------------------------------------------------------------- #
# session / one-call integration
# ---------------------------------------------------------------------- #
class TestSessionBackend:
    def test_session_native_matches_engine(self):
        from repro.native import compiler as compiler_module
        from repro.runtime import RuntimeSession

        values = {"N": 96}
        with RuntimeSession(workers=2) as session:
            engine_data = session.run("utma", values)
            native_data = session.run("utma", values, backend="native")
            assert np.array_equal(engine_data["c"], native_data["c"])
            # the second native call must reuse the memoised module — no
            # compiler invocation allowed
            import unittest.mock

            with unittest.mock.patch.object(
                compiler_module.subprocess, "run",
                side_effect=AssertionError("module cache miss: compiler re-invoked"),
            ):
                again = session.run("utma", values, backend="native")
            assert np.array_equal(again["c"], native_data["c"])

    def test_collapse_and_run_backend_native(self):
        from repro.kernels import get_kernel, run_original
        from repro.runtime import RuntimeSession, collapse_and_run

        values = {"N": 80}
        with RuntimeSession(workers=2) as session:
            data = collapse_and_run("utma", values, backend="native", session=session)
        expected = run_original(get_kernel("utma"), values)
        assert np.array_equal(data["c"], expected["c"])

    def test_native_backend_rejects_nests_without_a_c_body(self, correlation_nest):
        """Opaque nests (statements with no C text) still have nothing the
        C generator could emit; the rejection must say so explicitly."""
        from repro.runtime import RuntimeSession
        from repro.runtime.plan import PlanError

        with RuntimeSession(workers=1) as session:
            with pytest.raises(PlanError, match="needs a C body"):
                session.run(correlation_nest, {"N": 10}, backend="native")

    def test_native_backend_runs_parsed_nests_with_c_bodies(self):
        """The ROADMAP gap: a nest parsed from C-like text whose statement is
        an array assignment runs natively — the statement's own C text is
        the emitted body, the caller's arrays are mutated in place."""
        from repro.ir import enumerate_iterations, parse_loop_nest
        from repro.runtime import RuntimeSession

        nest, _ = parse_loop_nest(
            """
            for (i = 0; i < N - 1; i++)
              for (j = i + 1; j < N; j++)
                visits(i, j) += 1.0;
            """,
            parameters=["N"],
            name="correlation_text",
        )
        values = {"N": 24}
        expected = np.zeros((24, 24))
        for i, j in enumerate_iterations(nest, values):
            expected[i, j] += 1.0
        data = {"visits": np.zeros((24, 24))}
        with RuntimeSession(workers=1) as session:
            result = session.run(nest, values, data=data, backend="native")
        assert isinstance(result, RunResult) and result.backend == "native"
        assert result.iterations == int(expected.sum())
        assert np.array_equal(data["visits"], expected)

    def test_parsed_nest_macro_ranks_follow_subscripts(self):
        """A parsed 1-D access must generate a 1-D macro (not the 2-D
        default), both whole-range and as a hybrid plan."""
        from repro.ir import enumerate_iterations, parse_loop_nest
        from repro.runtime import RuntimeSession, Source, build_plan

        nest, _ = parse_loop_nest(
            """
            for (i = 0; i < N; i++)
              for (j = i; j < N; j++)
                hist(i) += 1.0;
            """,
            parameters=["N"],
            name="histogram_text",
        )
        values = {"N": 16}
        expected = np.zeros(16)
        for i, _j in enumerate_iterations(nest, values):
            expected[i] += 1.0
        data = {"hist": np.zeros(16)}
        with RuntimeSession(workers=1) as session:
            session.run(nest, values, data=data, backend="native")
        assert np.array_equal(data["hist"], expected)
        plan = build_plan(Source.of(nest, iteration_op=_dummy_op), values)
        assert plan.native_module.array_ndims == (1,)

    def test_native_nest_run_requires_data(self):
        from repro.ir import parse_loop_nest
        from repro.runtime import RuntimeSession
        from repro.runtime.plan import PlanError

        nest, _ = parse_loop_nest(
            "for (i = 0; i < N; i++)\n  v(i, i) = 1.0;", parameters=["N"]
        )
        with RuntimeSession(workers=1) as session:
            with pytest.raises(PlanError, match="data="):
                session.run(nest, {"N": 8}, backend="native")

    def test_unknown_backend_is_rejected(self):
        from repro.runtime import RuntimeSession
        from repro.runtime.plan import PlanError

        with RuntimeSession(workers=1) as session:
            with pytest.raises(PlanError, match="unknown backend"):
                session.run("utma", {"N": 10}, backend="fortran")

    @pytest.mark.parametrize("backend", ["engine", "hybrid", "native", "auto"])
    @pytest.mark.parametrize(
        "part",
        [
            {"iteration_op": _dummy_op},
            {"chunk_op": _dummy_op},
            {"c_body": "c(i, j) = 0.0;"},
            {"c_arrays": ("c",)},
            {"array_ndims": {"c": 2}},
        ],
        ids=lambda part: next(iter(part)),
    )
    def test_kernel_source_rejects_caller_parts(self, backend, part):
        """A kernel brings its own operations and C body: any part but
        ``compile_flags`` passed with it raises, naming the part, on every
        backend — none is dropped or run under the kernel's key."""
        from repro.runtime import RuntimeSession
        from repro.runtime.plan import PlanError

        (name,) = part
        with RuntimeSession(workers=1) as session:
            with pytest.raises(PlanError, match=name):
                session.run("utma", {"N": 10}, backend=backend, **part)
            flagged = session.run("utma", {"N": 10}, backend=backend, compile_flags=("-O1",))
            assert flagged["c"].shape == (10, 10)

    def test_first_compiled_call_audits_once_before_compiling(self, monkeypatch):
        """The plan's unit is attached on the first compiled call: the
        overflow audit runs once, then the compiler, and every later native
        or hybrid call of the configuration reuses the unit."""
        import repro.native
        from repro.kernels import get_kernel, run_original
        from repro.lint import registry
        from repro.runtime import RuntimeSession

        events = []
        audit, compile_unit = registry.static_check_plan, repro.native.compile_collapsed

        def audit_spy(*args, **kwargs):
            events.append(("audit", kwargs.get("full", False)))
            return audit(*args, **kwargs)

        def compile_spy(source, **kwargs):
            events.append(("compile", source.name))
            return compile_unit(source, **kwargs)

        monkeypatch.setattr(registry, "static_check_plan", audit_spy)
        monkeypatch.setattr(repro.native, "compile_collapsed", compile_spy)
        values = {"N": 12}
        expected = run_original(get_kernel("utma"), values)["c"]
        with RuntimeSession(workers=1) as session:
            for backend in ("native", "hybrid", "native", "hybrid"):
                result = session.run("utma", values, backend=backend)
                assert np.allclose(result["c"], expected), backend
        assert events == [("audit", False), ("compile", "utma")]

    def test_failing_audit_never_invokes_the_compiler(self, monkeypatch):
        """A trip count past int64 fails the audit on both compiled names,
        on every call, and the compiler is never reached."""
        import repro.native
        from repro.kernels import get_kernel
        from repro.runtime import RuntimeSession
        from repro.runtime.plan import PlanError

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before the overflow audit passed")

        monkeypatch.setattr(repro.native, "compile_collapsed", no_compile)
        huge = {"N": 2**33}
        data = get_kernel("utma").make_data({"N": 8})
        with RuntimeSession(workers=1) as session:
            for backend in ("native", "hybrid", "native"):
                with pytest.raises(PlanError, match="overflow/total-exceeds-int64"):
                    session.run("utma", huge, data=data, backend=backend)
            assert "native_module" not in vars(session.plan_for("utma", huge))

    def test_caller_data_is_not_mutated(self):
        from repro.kernels import get_kernel
        from repro.runtime import RuntimeSession

        kernel = get_kernel("utma")
        values = {"N": 48}
        data = kernel.make_data(values)
        before = {name: value.copy() for name, value in data.items()}
        with RuntimeSession(workers=1) as session:
            result = session.run(kernel, values, data=data, backend="native")
        for name in before:
            assert np.array_equal(data[name], before[name])
        assert not np.array_equal(result["c"], before["c"])
