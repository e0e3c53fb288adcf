"""Tests for the kernel suite: registry, shapes, preconditions and correctness."""

import numpy as np
import pytest

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
