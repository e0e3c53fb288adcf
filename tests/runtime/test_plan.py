"""Unit tests for execution plans and the cost-model-driven adaptive chunker."""

import pickle

import numpy as np
import pytest

from repro.ir import Loop, LoopNest
from repro.kernels import get_kernel
from repro.openmp import ScheduleKind, ScheduleSpec
from repro.runtime import (
    DEFAULT_OVERSUBSCRIBE,
    ExecutionPlan,
    PlanError,
    Source,
    adaptive_chunks,
    build_plan,
    per_iteration_work,
)


def partition_is_exact(chunks, total):
    if total == 0:
        return chunks == []
    if not chunks or chunks[0].first != 1 or chunks[-1].last != total:
        return False
    return all(a.last + 1 == b.first for a, b in zip(chunks, chunks[1:]))


def module_level_op(data, indices, values):
    """Picklable stand-in operation for nest-based plans."""


class TestBuildPlan:
    def test_from_kernel_name(self):
        plan = build_plan("utma", {"N": 16})
        assert plan.source.kernel_name == "utma"
        assert plan.schedule.kind is ScheduleKind.ADAPTIVE
        assert plan.total_iterations == 16 * 17 // 2

    def test_from_kernel_object_and_nest(self):
        kernel = get_kernel("ltmp")
        plan = build_plan(kernel, {"N": 8}, schedule="static")
        assert plan.source.kernel_name == "ltmp"
        nest = LoopNest([Loop.make("i", 0, "N"), Loop.make("j", "i", "N")], parameters=["N"], name="t")
        nest_plan = build_plan(Source.of(nest, iteration_op=module_level_op), {"N": 6}, schedule="dynamic,2")
        assert nest_plan.source.kernel_name is None
        assert nest_plan.schedule == ScheduleSpec(ScheduleKind.DYNAMIC, 2)

    def test_plans_get_distinct_ids(self):
        first = build_plan("utma", {"N": 8})
        second = build_plan("utma", {"N": 8})
        assert first.plan_id != second.plan_id

    def test_nest_without_ops_is_rejected(self):
        nest = LoopNest([Loop.make("i", 0, "N")], parameters=["N"], name="bare")
        with pytest.raises(PlanError, match="iteration_op"):
            build_plan(nest, {"N": 4})

    def test_unpicklable_op_is_rejected(self):
        nest = LoopNest([Loop.make("i", 0, "N")], parameters=["N"], name="bare")
        with pytest.raises(PlanError, match="picklable"):
            build_plan(Source.of(nest, iteration_op=lambda d, i, v: None), {"N": 4})

    def test_chunk_op_only_requires_compiled_recovery(self):
        # workers always batch-recover (compiled), so a chunk_op alone is a
        # complete plan; the scalar walk is no longer a plan option
        nest = LoopNest([Loop.make("i", 0, "N")], parameters=["N"], name="bare")
        plan = build_plan(Source.of(nest, chunk_op=module_level_op), {"N": 4})
        assert plan.source.iteration_op is None and plan.source.chunk_op is module_level_op
        assert "recovery" not in plan.payload()
        with pytest.raises(TypeError, match="recovery"):
            Source.of(nest, chunk_op=module_level_op, recovery="symbolic")

    def test_non_executable_kernel_is_rejected(self):
        from repro.kernels import all_kernels

        inert = [k for k in all_kernels() if not k.is_executable]
        if not inert:
            pytest.skip("every registered kernel is executable")
        with pytest.raises(PlanError, match="executable"):
            build_plan(inert[0], dict(inert[0].bench_parameters))

    def test_payload_is_picklable_and_registry_backed(self):
        plan = build_plan("utma", {"N": 10})
        payload = pickle.loads(pickle.dumps(plan.payload()))
        assert payload["kernel_name"] == "utma"
        assert payload["iteration_op"] is None  # workers resolve from the registry
        assert payload["collapsed"].total_iterations({"N": 10}) == plan.total_iterations


class TestChunks:
    @pytest.mark.parametrize("schedule", ["static", "static,9", "dynamic,16", "guided", "adaptive"])
    def test_every_policy_partitions_exactly(self, schedule):
        plan = build_plan("utma", {"N": 20}, schedule=schedule)
        chunks = plan.chunks(workers=3)
        assert partition_is_exact(chunks, plan.total_iterations)

    def test_dynamic_default_chunk_is_oversubscribed_not_unit(self):
        plan = build_plan("utma", {"N": 64}, schedule="dynamic")
        chunks = plan.chunks(workers=4)
        assert partition_is_exact(chunks, plan.total_iterations)
        # OpenMP's default chunk of 1 would mean one hand-out per iteration;
        # the engine default stays within ~workers * oversubscribe hand-outs
        assert len(chunks) <= 4 * DEFAULT_OVERSUBSCRIBE + 1

    def test_static_chunks_carry_threads_adaptive_chunks_do_not(self):
        plan = build_plan("utma", {"N": 20}, schedule="static")
        assert all(chunk.thread is not None for chunk in plan.chunks(2))
        adaptive = build_plan("utma", {"N": 20}, schedule="adaptive")
        assert all(chunk.thread is None for chunk in adaptive.chunks(2))


class TestAdaptive:
    def test_constant_work_gives_near_equal_chunks(self):
        collapsed = get_kernel("utma").collapsed()
        chunks = adaptive_chunks(collapsed, {"N": 32}, workers=4)
        sizes = [chunk.size for chunk in chunks]
        assert partition_is_exact(chunks, collapsed.total_iterations({"N": 32}))
        assert max(sizes) - min(sizes) <= 2

    def test_varying_work_gives_work_weighted_chunks(self):
        # ltmp keeps a non-collapsed k loop: late pc values (large i) are much
        # heavier, so equal-work chunks must get shorter towards the end
        kernel = get_kernel("ltmp")
        collapsed = kernel.collapsed()
        values = {"N": 32}
        chunks = adaptive_chunks(collapsed, values, workers=4, cost_model=kernel.cost_model())
        assert partition_is_exact(chunks, collapsed.total_iterations(values))
        sizes = [chunk.size for chunk in chunks]
        assert sizes[0] > sizes[-1]
        work = per_iteration_work(collapsed, values, kernel.cost_model())
        per_chunk = [float(work[c.first - 1 : c.last].sum()) for c in chunks]
        # every chunk's estimated work is within a small factor of the mean
        mean = sum(per_chunk) / len(per_chunk)
        assert max(per_chunk) <= 2.5 * mean

    def test_per_iteration_work_matches_cost_model_pointwise(self):
        kernel = get_kernel("ltmp")
        collapsed = kernel.collapsed()
        values = {"N": 12}
        model = kernel.cost_model()
        work = per_iteration_work(collapsed, values, model)
        assert work.shape == (collapsed.total_iterations(values),)
        for pc in (1, 7, work.shape[0]):
            indices = collapsed.recover_indices(pc, values)
            assert work[pc - 1] == pytest.approx(model.iteration_work(indices, values))

    def test_empty_domain_gives_no_chunks(self):
        collapsed = get_kernel("utma").collapsed()
        assert adaptive_chunks(collapsed, {"N": 0}, workers=4) == []

    def test_chunk_count_tracks_oversubscription(self):
        collapsed = get_kernel("utma").collapsed()
        chunks = adaptive_chunks(collapsed, {"N": 64}, workers=3)
        assert len(chunks) == pytest.approx(3 * DEFAULT_OVERSUBSCRIBE, abs=2)


class TestRecutCadence:
    """``ExecutionPlan.chunks`` re-cuts an adaptive plan on the profile
    store's flush cadence, not after every measurement, under a patched clock."""

    WORKERS = 2

    @pytest.fixture
    def clock(self, monkeypatch):
        from repro.runtime import plan as plan_module, profile

        now = [1000.0]
        monkeypatch.setattr(profile, "monotonic", lambda: now[0])
        monkeypatch.setattr(plan_module, "monotonic", lambda: now[0])
        return now

    @staticmethod
    def segments(total, split, dense_seconds):
        """Two measured chunks: ``[1, split]`` costs ``dense_seconds``, the rest 1 ms."""
        return np.array([[1, split], [split + 1, total]]), np.array([dense_seconds, 1e-3])

    def measure(self, plan, segments):
        from repro.runtime import default_profile_store

        default_profile_store().record(
            plan.profile_key, "engine", elapsed_seconds=0.01, workers=self.WORKERS,
            total_iterations=plan.total_iterations, segments=segments,
        )

    def cut_of(self, plan, segments):
        from repro.runtime import profile_guided_chunks

        count = min(plan.total_iterations, self.WORKERS * DEFAULT_OVERSUBSCRIBE)
        return tuple(profile_guided_chunks(*segments, plan.total_iterations, count))

    @pytest.fixture
    def plan(self, clock):
        plan = build_plan("utma", {"N": 16}, schedule="adaptive")
        assert plan.profile_key is not None
        return plan

    def test_a_cold_cut_is_replaced_at_the_first_measurement(self, plan):
        cold = plan.chunks(self.WORKERS)
        assert cold == tuple(adaptive_chunks(plan.collapsed, plan.parameter_values, self.WORKERS))
        first = self.segments(plan.total_iterations, 20, 0.05)
        self.measure(plan, first)  # no clock advance: the cold rule alone re-cuts
        assert plan.chunks(self.WORKERS) == self.cut_of(plan, first) != cold

    def test_a_measurement_within_the_cadence_keeps_the_cut(self, plan, clock):
        from repro.runtime.profile import FLUSH_EVERY_S

        plan.chunks(self.WORKERS)
        first = self.segments(plan.total_iterations, 20, 0.05)
        self.measure(plan, first)
        measured = plan.chunks(self.WORKERS)
        second = self.segments(plan.total_iterations, 100, 0.05)
        assert self.cut_of(plan, second) != measured
        for step in range(3):
            clock[0] += FLUSH_EVERY_S / 4
            self.measure(plan, second)
            assert plan.chunks(self.WORKERS) == measured, step

    def test_a_measurement_after_the_cadence_recuts(self, plan, clock):
        from repro.runtime.profile import FLUSH_EVERY_S

        plan.chunks(self.WORKERS)
        self.measure(plan, self.segments(plan.total_iterations, 20, 0.05))
        measured = plan.chunks(self.WORKERS)
        clock[0] += FLUSH_EVERY_S
        assert plan.chunks(self.WORKERS) == measured  # no new measurement, no re-cut
        second = self.segments(plan.total_iterations, 100, 0.05)
        self.measure(plan, second)
        assert plan.chunks(self.WORKERS) == self.cut_of(plan, second) != measured

    def test_another_process_flush_recuts_within_one_cadence(self, plan, clock):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.runtime import default_profile_store
        from repro.runtime.profile import FLUSH_EVERY_S

        plan.chunks(self.WORKERS)
        self.measure(plan, self.segments(plan.total_iterations, 20, 0.05))
        measured = plan.chunks(self.WORKERS)
        default_profile_store().flush()
        total = plan.total_iterations
        script = (
            "from repro.runtime.profile import default_profile_store\n"
            "store = default_profile_store()\n"
            f"store.record({plan.profile_key!r}, 'engine', elapsed_seconds=0.01, workers=2,\n"
            f"             total_iterations={total},\n"
            f"             segments=([[1, 100], [101, {total}]], [0.05, 1e-3]))\n"
            "store.flush()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert plan.chunks(self.WORKERS) == measured  # not re-read before the cadence
        clock[0] += FLUSH_EVERY_S
        expected = self.cut_of(plan, self.segments(total, 100, 0.05))
        assert plan.chunks(self.WORKERS) == expected != measured


class TestMeasurementIdentity:
    """Segments measured on an instrumented or differently flagged build
    never shape the cut of a run without those flags: the profile key
    carries the flags the environment adds to every compiled unit."""

    WORKERS = 2

    @pytest.mark.parametrize(
        "variable, value",
        [("REPRO_NATIVE_SANITIZE", "address,undefined"), ("REPRO_NATIVE_FLAGS", "-O0")],
    )
    def test_instrumented_segments_never_shape_a_plain_cut(self, monkeypatch, variable, value):
        from repro.runtime import default_profile_store, profile_guided_chunks

        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_NATIVE_FLAGS", raising=False)
        values = {"N": 16}
        plain_key = build_plan("utma", values, schedule="adaptive").profile_key
        monkeypatch.setenv(variable, value)
        instrumented = build_plan("utma", values, schedule="adaptive")
        assert instrumented.profile_key != plain_key
        total = instrumented.total_iterations
        segments = np.array([[1, 20], [21, total]]), np.array([0.5, 1e-3])
        default_profile_store().record(
            instrumented.profile_key, "native", elapsed_seconds=0.1, workers=self.WORKERS,
            total_iterations=total, segments=segments,
        )
        count = min(total, self.WORKERS * DEFAULT_OVERSUBSCRIBE)
        measured = tuple(profile_guided_chunks(*segments, total, count))
        assert instrumented.chunks(self.WORKERS) == measured
        monkeypatch.delenv(variable)
        plain = build_plan("utma", values, schedule="adaptive")
        assert plain.profile_key == plain_key
        cold = tuple(adaptive_chunks(plain.collapsed, plain.parameter_values, self.WORKERS))
        assert plain.chunks(self.WORKERS) == cold != measured
