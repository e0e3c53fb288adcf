"""Tests for the compiled batch recovery path (repro.core.batch)."""

import numpy as np
import pytest

from repro.core import (
    BatchRecovery,
    BatchRecoveryError,
    BatchStats,
    batch_recovery,
    clear_batch_cache,
    clear_collapse_cache,
    collapse,
    collapse_cache_info,
)
from repro.ir import Loop, LoopNest


def exhaustive_match(nest: LoopNest, parameter_values, depth=None) -> BatchStats:
    """Assert the range walk and the per-pc solver both equal the scalar
    path on the whole domain; returns the solver's counters."""
    collapsed = collapse(nest, depth)
    total = collapsed.total_iterations(parameter_values)
    recoverer = batch_recovery(collapsed)
    stats = BatchStats()
    solved = recoverer.recover_pcs(np.arange(1, total + 1), parameter_values, stats)
    recovered = recoverer.recover_range(1, total, parameter_values)
    expected = np.array(
        [collapsed.recover_indices(pc, parameter_values) for pc in range(1, total + 1)]
    )
    assert recovered.dtype == np.int64
    assert recovered.shape == (total, collapsed.depth)
    np.testing.assert_array_equal(recovered, expected)
    np.testing.assert_array_equal(solved, expected)
    return stats


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_collapse_cache()
    clear_batch_cache()
    yield
    clear_collapse_cache()
    clear_batch_cache()


class TestElementwiseEquality:
    def test_triangular_nest(self, correlation_nest):
        for n in (2, 3, 7, 30):
            exhaustive_match(correlation_nest, {"N": n})

    def test_tetrahedral_nest(self, figure6_nest):
        stats = exhaustive_match(figure6_nest, {"N": 16})
        assert stats.bisection_levels == 0  # cube roots stay closed-form

    def test_quartic_simplex_nest(self, simplex4_nest):
        exhaustive_match(simplex4_nest, {"N": 10})

    def test_rectangular_nest(self, rectangular_nest):
        exhaustive_match(rectangular_nest, {"N": 6, "M": 9})

    def test_trapezoidal_nest(self, trapezoidal_nest):
        exhaustive_match(trapezoidal_nest, {"N": 9, "M": 5})

    def test_skewed_nest(self):
        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "2*i", "2*i + M")],
            parameters=["N", "M"],
            name="skewed_batch",
        )
        exhaustive_match(nest, {"N": 11, "M": 6})

    def test_degree5_fallback_nest(self):
        # a 5-deep simplex: the outer level's equation has degree 5, which is
        # beyond the paper's closed forms — the scalar path bisects, the
        # batch path must match through its vectorized bisection
        nest = LoopNest(
            [
                Loop.make("i", 0, "N"),
                Loop.make("j", 0, "i + 1"),
                Loop.make("k", 0, "j + 1"),
                Loop.make("l", 0, "k + 1"),
                Loop.make("m", 0, "l + 1"),
            ],
            parameters=["N"],
            name="simplex5_batch",
        )
        collapsed = collapse(nest)
        assert not collapsed.uses_only_closed_forms()
        recoverer = batch_recovery(collapsed)
        assert not recoverer.uses_only_closed_forms()
        stats = exhaustive_match(nest, {"N": 8})
        assert stats.bisection_levels >= 1

    def test_partial_collapse_depth(self, figure6_nest):
        exhaustive_match(figure6_nest, {"N": 12}, depth=2)

    def test_collapse_depth_one(self, correlation_nest):
        exhaustive_match(correlation_nest, {"N": 9}, depth=1)

    def test_executable_kernels_match(self):
        from repro.kernels import executable_kernels

        for kernel in executable_kernels()[:3]:
            values = {name: max(6, value // 10) for name, value in kernel.bench_parameters.items()}
            exhaustive_match(kernel.nest, values, kernel.collapse_depth)


class TestRangesAndValidation:
    def test_sub_range_matches_offsets(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        values = {"N": 20}
        recovered = batch_recovery(collapsed).recover_range(10, 40, values)
        for offset, row in enumerate(recovered.tolist()):
            assert tuple(row) == collapsed.recover_indices(10 + offset, values)

    def test_empty_range(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        recovered = batch_recovery(collapsed).recover_range(5, 4, {"N": 10})
        assert recovered.shape == (0, 2)

    def test_single_element(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        recovered = batch_recovery(collapsed).recover_range(1, 1, {"N": 10})
        assert tuple(recovered[0].tolist()) == collapsed.recover_indices(1, {"N": 10})

    def test_arbitrary_unsorted_pcs(self, figure6_nest):
        collapsed = collapse(figure6_nest)
        values = {"N": 10}
        pcs = np.array([7, 1, 100, 42, 7])
        recovered = batch_recovery(collapsed).recover_pcs(pcs, values)
        for pc, row in zip(pcs.tolist(), recovered.tolist()):
            assert tuple(row) == collapsed.recover_indices(pc, values)

    def test_out_of_range_pc_raises(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        recoverer = batch_recovery(collapsed)
        with pytest.raises(BatchRecoveryError):
            recoverer.recover_range(0, 5, {"N": 10})
        with pytest.raises(BatchRecoveryError):
            recoverer.recover_range(1, 46, {"N": 10})  # total is 45

    def test_non_1d_pcs_raises(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        with pytest.raises(BatchRecoveryError):
            batch_recovery(collapsed).recover_pcs(np.ones((2, 2), dtype=np.int64), {"N": 10})

    def test_iterate_is_a_drop_in_for_iterate_chunk(self, correlation_nest):
        from repro.core import iterate_chunk

        collapsed = collapse(correlation_nest)
        values = {"N": 14}
        batch = list(batch_recovery(collapsed).iterate(3, 50, values))
        scalar = list(iterate_chunk(collapsed, 3, 50, values))
        assert batch == scalar
        assert all(isinstance(v, int) for row in batch for v in row)

    def test_stats_accumulate(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        stats = BatchStats()
        recoverer = batch_recovery(collapsed)
        recoverer.recover_pcs(np.arange(1, 11), {"N": 10}, stats)
        recoverer.recover_pcs(np.arange(11, 21), {"N": 10}, stats)
        assert stats.iterations == 20
        assert stats.vector_levels == 4  # 2 levels x 2 calls
        merged = stats.merge(stats)
        assert merged.iterations == 40


class TestMemoCaches:
    def test_collapse_cache_returns_identical_object(self, correlation_nest):
        first = collapse(correlation_nest)
        second = collapse(correlation_nest)
        assert first is second
        assert collapse_cache_info()["entries"] == 1

    def test_structurally_equal_nests_share_one_entry(self):
        def make():
            return LoopNest(
                [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")],
                parameters=["N"],
                name="cache_probe",
            )

        assert collapse(make()) is collapse(make())

    def test_different_options_get_different_entries(self, correlation_nest):
        default = collapse(correlation_nest)
        renamed = collapse(correlation_nest, pc_name="q")
        assert default is not renamed
        assert collapse_cache_info()["entries"] == 2

    def test_clearing_the_cache_forces_fresh_construction(self, correlation_nest):
        first = collapse(correlation_nest)
        clear_collapse_cache()
        fresh = collapse(correlation_nest)
        assert first is not fresh

    def test_batch_recovery_is_memoised(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        assert batch_recovery(collapsed) is batch_recovery(collapsed)
        assert batch_recovery(collapsed) is batch_recovery(collapse(correlation_nest))

    def test_clear_batch_cache(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        first = batch_recovery(collapsed)
        clear_batch_cache()
        assert batch_recovery(collapsed) is not first

    def test_direct_construction_bypasses_cache(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        assert BatchRecovery(collapsed) is not BatchRecovery(collapsed)


class TestExecutorIntegration:
    @pytest.mark.parametrize("name", ["utma", "tiled_triangle"])
    def test_sweep_serial_column_walks_the_batch_recovery(self, name, monkeypatch):
        # the sweep's serial ``compiled`` column: batch-walked chunks through
        # the Python operations, for kernels and transformed nests alike
        from repro.analysis import sweep
        from repro.openmp import ScheduleSpec

        scenario = next(s for s in sweep.default_scenarios() if s.name == name)
        walked = []
        original_iterate = BatchRecovery.iterate

        def spy(self, first_pc, last_pc, values):
            walked.append((first_pc, last_pc))
            return original_iterate(self, first_pc, last_pc, values)

        monkeypatch.setattr(BatchRecovery, "iterate", spy)
        data = sweep._run_compiled(scenario, ScheduleSpec.parse("static"), 3)
        assert len(walked) == 3
        reference = scenario.reference()
        for key in reference:
            np.testing.assert_allclose(data[key], reference[key])

    def test_measured_throughput_reports_speedup(self, correlation_nest):
        from repro.analysis import measure_recovery_throughput

        collapsed = collapse(correlation_nest)
        values = {"N": 48}
        compiled = measure_recovery_throughput(collapsed, values, recovery="compiled")
        symbolic = measure_recovery_throughput(collapsed, values, recovery="symbolic")
        assert compiled.iterations == symbolic.iterations == collapsed.total_iterations(values)
        assert compiled.elapsed_seconds < symbolic.elapsed_seconds
        with pytest.raises(ValueError):
            measure_recovery_throughput(collapsed, values, recovery="quantum")
