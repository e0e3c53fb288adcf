"""Tests for the kernel suite: registry, shapes, preconditions and correctness."""

import numpy as np
import pytest

from repro.core import batch_recovery
from repro.ir import may_carry_dependence
from repro.kernels import (
    TILED_KERNELS,
    all_kernels,
    executable_kernels,
    get_kernel,
    get_tiled_kernel,
    run_collapsed_chunks,
    run_original,
    verify_kernel,
)
from repro.kernels.base import Kernel, register_kernel
from repro.openmp.schedule import dynamic_chunks


def small_parameters(kernel):
    """Scaled-down sizes that keep brute-force verification fast."""
    values = {name: max(8, value // 20) for name, value in kernel.bench_parameters.items()}
    if "K" in values:
        values["K"] = 2
    if "M" in values:
        values["M"] = 6
    return values


class TestRegistry:
    def test_eleven_programs_are_registered(self):
        names = [kernel.name for kernel in all_kernels()]
        assert len(names) == 11
        # the paper's two handwritten programs are present
        assert "utma" in names and "ltmp" in names
        # the motivating example is present
        assert "correlation" in names

    def test_two_tiled_variants(self):
        assert sorted(TILED_KERNELS) == ["correlation_tiled", "covariance_tiled"]

    def test_get_kernel_unknown(self):
        with pytest.raises(KeyError):
            get_kernel("does_not_exist")

    def test_get_tiled_kernel_unknown(self):
        with pytest.raises(KeyError):
            get_tiled_kernel("does_not_exist")

    def test_duplicate_registration_rejected(self):
        kernel = get_kernel("utma")
        with pytest.raises(ValueError):
            register_kernel(kernel)

    def test_executable_subset(self):
        executable = {kernel.name for kernel in executable_kernels()}
        assert "correlation" in executable
        assert "jacobi1d_skewed" not in executable

    def test_descriptions_are_informative(self):
        for kernel in all_kernels():
            assert len(kernel.description) > 20
            assert str(kernel).startswith(kernel.name)


class TestShapes:
    def test_every_kernel_is_non_rectangular_except_lu_update(self):
        for kernel in all_kernels():
            rectangular = kernel.nest.is_rectangular(kernel.collapse_depth)
            assert rectangular == (kernel.name == "lu_update"), kernel.name

    def test_collapse_depth_is_valid(self):
        for kernel in all_kernels():
            assert 1 <= kernel.collapse_depth <= kernel.nest.depth

    def test_collapse_validates_on_small_sizes(self):
        for kernel in all_kernels():
            collapsed = kernel.collapsed()
            assert collapsed.validate(small_parameters(kernel)), kernel.name

    def test_all_recoveries_are_closed_forms(self):
        """Every kernel of the suite fits the paper's degree <= 4 requirement."""
        for kernel in all_kernels():
            assert kernel.collapsed().uses_only_closed_forms(), kernel.name

    def test_collapsible_loops_carry_no_dependence(self):
        for kernel in all_kernels():
            if kernel.nest.statements and kernel.check_dependences:
                assert not may_carry_dependence(kernel.nest, kernel.collapse_depth), kernel.name

    def test_ltmp_innermost_loop_carries_the_reduction(self):
        ltmp = get_kernel("ltmp")
        assert may_carry_dependence(ltmp.nest, 3)

    def test_correlation_matches_paper_figure1(self):
        correlation = get_kernel("correlation")
        assert correlation.collapse_depth == 2
        total = correlation.collapsed().total_polynomial
        assert total.evaluate({"N": 1000}) == 1000 * 999 // 2


class TestExecution:
    @pytest.mark.parametrize("name", [k.name for k in all_kernels() if k.is_executable])
    def test_verify_collapsed_equals_original_equals_reference(self, name):
        kernel = get_kernel(name)
        assert verify_kernel(kernel, small_parameters(kernel), threads=3), name

    def test_chunked_execution_with_dynamic_chunks(self):
        kernel = get_kernel("utma")
        values = small_parameters(kernel)
        collapsed = kernel.collapsed()
        total = collapsed.total_iterations(values)
        data = kernel.make_data(values)
        original = run_original(kernel, values, data)
        chunked = run_collapsed_chunks(
            kernel, values, data, chunks=dynamic_chunks(total, 5), collapsed=collapsed
        )
        assert np.allclose(original["c"], chunked["c"])

    def test_verify_walks_the_scalar_reference(self, monkeypatch):
        # the serial collapsed run walks each static chunk with the exact
        # scalar unranker (Fig. 4), one call per chunk
        from repro.core import iterate_chunk
        from repro.kernels import execution

        walked = []

        def spy(collapsed, first_pc, last_pc, values, *args, **kwargs):
            walked.append((first_pc, last_pc))
            return iterate_chunk(collapsed, first_pc, last_pc, values, *args, **kwargs)

        monkeypatch.setattr(execution, "iterate_chunk", spy)
        kernel = get_kernel("utma")
        values = small_parameters(kernel)
        assert verify_kernel(kernel, values, threads=3)
        total = kernel.collapsed().total_iterations(values)
        assert len(walked) == 3
        assert walked[0][0] == 1 and walked[-1][1] == total

    def test_non_executable_kernel_raises(self):
        kernel = get_kernel("jacobi1d_skewed")
        with pytest.raises(ValueError):
            run_original(kernel, small_parameters(kernel))
        with pytest.raises(ValueError):
            verify_kernel(kernel)

    def test_make_data_is_deterministic(self):
        kernel = get_kernel("correlation")
        values = small_parameters(kernel)
        first, second = kernel.make_data(values), kernel.make_data(values)
        assert np.array_equal(first["b"], second["b"])


#: kernels whose chunk op computes each element as its iteration op does
BIT_IDENTICAL_CHUNK_OPS = {"utma", "covariance", "symm", "cholesky_update", "lu_update"}
EXECUTABLE = [kernel.name for kernel in executable_kernels()]


def conformance_sizes(kernel):
    """N=2 (one pivot step at K=0), the small sizes and a quarter of the bench size."""
    bench = kernel.bench_parameters
    tiny = {name: 0 if name == "K" else 2 for name in bench}
    quarter = {name: value // 4 for name, value in bench.items()}
    return {"tiny": tiny, "small": small_parameters(kernel), "quarter": quarter}


def conformance_chunks(walk):
    """Chunk lists over a whole-range walk, as ``(first_pc, last_pc)`` lists.

    ``mid-row`` partitions the range at the middle of every other row, so
    its inner chunks start and end inside a row and span whole rows
    between; ``one-iteration`` is one index row, ``one-row`` one outer
    row, ``whole`` the whole range.
    """
    total = len(walk)
    starts = np.flatnonzero(np.r_[True, walk[1:, 0] != walk[:-1, 0]])
    ends = np.r_[starts[1:], total]
    cuts = sorted({int(middle) + 1 for middle in ((starts + ends) // 2)[1::2]} - {1})
    middle_row = len(starts) // 2
    return {
        "mid-row": list(zip([1] + cuts, [cut - 1 for cut in cuts] + [total])),
        "one-iteration": [((total + 1) // 2, (total + 1) // 2)],
        "one-row": [(int(starts[middle_row]) + 1, int(ends[middle_row]))],
        "whole": [(1, total)],
    }


class TestChunkOps:
    """Every executable kernel's chunk op against its iteration op, row by row."""

    def test_every_executable_kernel_has_a_chunk_op(self):
        assert [name for name in EXECUTABLE if get_kernel(name).chunk_op is None] == []

    @pytest.mark.parametrize("dense", [False, True], ids=["make_data", "dense"])
    @pytest.mark.parametrize("size", ["tiny", "small", "quarter"])
    @pytest.mark.parametrize("name", EXECUTABLE)
    def test_chunk_op_matches_the_iteration_op(self, name, size, dense):
        # dense random arrays catch an op that leans on the data's zeros
        # (a triangular operand) instead of the loop bounds
        kernel = get_kernel(name)
        values = conformance_sizes(kernel)[size]
        batch = batch_recovery(kernel.collapsed())
        total = kernel.collapsed().total_iterations(values)
        assert total >= 1
        initial = kernel.make_data(values)
        if dense:
            rng = np.random.default_rng(7)
            initial = {key: rng.standard_normal(array.shape) for key, array in initial.items()}
        same = np.array_equal if name in BIT_IDENTICAL_CHUNK_OPS else (
            lambda left, right: np.allclose(left, right, atol=1e-9)
        )
        for kind, chunks in conformance_chunks(batch.recover_range(1, total, values)).items():
            expected = {key: array.copy() for key, array in initial.items()}
            chunked = {key: array.copy() for key, array in initial.items()}
            for first, last in chunks:
                indices = batch.recover_range(first, last, values)
                assert len(indices) == last - first + 1
                for row in indices.tolist():
                    kernel.iteration_op(expected, tuple(row), values)
                kernel.chunk_op(chunked, indices, values)
            for key in expected:
                assert same(chunked[key], expected[key]), (kind, key)

    def test_mid_row_chunks_start_and_end_inside_rows(self):
        walk = batch_recovery(get_kernel("ltmp").collapsed()).recover_range(1, 55, {"N": 10})
        chunks = conformance_chunks(walk)["mid-row"]
        assert chunks[0][0] == 1 and chunks[-1][1] == 55
        assert all(last + 1 == first for (_, last), (first, _) in zip(chunks, chunks[1:]))
        inner = chunks[1:-1]
        assert inner and all(
            walk[first - 1, 0] == walk[first - 2, 0] and walk[last - 1, 0] == walk[last, 0]
            for first, last in inner
        )


class TestTiledKernels:
    def test_tile_nest_collapses_and_validates(self):
        for tiled in TILED_KERNELS.values():
            collapsed = tiled.collapsed()
            tile_values = tiled.tile_parameters(tiled.bench_parameters)
            assert collapsed.validate(tile_values), tiled.name

    def test_tiled_work_conserves_total(self):
        tiled = get_tiled_kernel("covariance_tiled")
        values = {"N": 100}
        # the covariance domain has N(N+1)/2 points of unit work
        assert tiled.tiled.total_work(values) == 100 * 101 / 2

    def test_correlation_tiled_weights_points_by_inner_loop(self):
        tiled = get_tiled_kernel("correlation_tiled")
        values = {"N": 64}
        assert tiled.tiled.total_work(values) == (64 * 63 / 2) * 64

    def test_work_functions(self):
        tiled = get_tiled_kernel("covariance_tiled")
        values = {"N": 100}
        tiles = tiled.tile_parameters(values)["NT"]
        work = tiled.work_function(values)
        outer = tiled.outer_work_function(values)
        assert outer(0) == pytest.approx(sum(work(0, j) for j in range(tiles)))
