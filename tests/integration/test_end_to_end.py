"""End-to-end integration tests: the full pipeline of the paper in one place.

Each test starts from the textual C-like loop nest (the input of the
paper's source-to-source tool), collapses it, and checks one of the paper's
claims on the result: the generated formulas, the generated code, the
semantics on NumPy data, or the scheduling outcome.
"""

import math

import numpy as np
import pytest

from repro import batch_recovery, collapse, generate_openmp_chunked, parse_loop_nest
from repro.analysis import gain
from repro.core import RecoveryStrategy, iterate_chunk
from repro.ir import enumerate_iterations
from repro.kernels import get_kernel, verify_kernel
from repro.openmp import (
    ScheduleKind,
    simulate_collapsed_static,
    simulate_outer_parallel,
    static_schedule,
)

CORRELATION_SOURCE = """
#pragma omp parallel for private(j, k) schedule(static)
for (i = 0; i < N - 1; i++)
  for (j = i + 1; j < N; j++)
    S(i, j);
"""


class TestMotivatingExample:
    """Section II: the correlation nest from Fig. 1 to Fig. 4."""

    def test_from_source_to_collapsed_loop(self):
        nest, pragma = parse_loop_nest(CORRELATION_SOURCE, parameters=["N"])
        collapsed = collapse(nest)
        assert pragma.schedule == "static"
        n = 30
        # Fig. 3's loop header: pc runs from 1 to (N-1)N/2
        assert collapsed.total_iterations({"N": n}) == (n - 1) * n // 2
        # and the recovered indices follow the paper's closed forms
        for pc in range(1, collapsed.total_iterations({"N": n}) + 1):
            i, j = collapsed.recover_indices(pc, {"N": n})
            paper_i = math.floor(-(math.sqrt(4 * n * n - 4 * n - 8 * pc + 9) - 2 * n + 1) / 2)
            paper_j = math.floor(-(2 * paper_i * n - 2 * pc - paper_i ** 2 - 3 * paper_i) / 2)
            assert (i, j) == (paper_i, paper_j)

    def test_generated_c_looks_like_figure4(self):
        nest, _ = parse_loop_nest(CORRELATION_SOURCE, parameters=["N"])
        source = generate_openmp_chunked(collapse(nest))
        # the structural elements of Fig. 4
        assert "firstprivate(first_iteration)" in source
        assert "csqrt" in source
        assert "j = i + 1;" in source or "j = (i) + (1);" in source or "j = ((i) + (1));" in source

    def test_chunked_walk_executes_the_same_iterations(self):
        # Fig. 4: one recovery per thread's static chunk, then incrementation
        nest, _ = parse_loop_nest(CORRELATION_SOURCE, parameters=["N"])
        collapsed = collapse(nest)
        values = {"N": 25}
        visited = [
            indices
            for chunk in static_schedule(collapsed.total_iterations(values), 4)
            for indices in iterate_chunk(
                collapsed, chunk.first, chunk.last, values,
                RecoveryStrategy.FIRST_THEN_INCREMENT,
            )
        ]
        assert visited == list(enumerate_iterations(nest, values))


class TestNumericalEquivalence:
    """Section VII: 'outputs of collapsed and non-collapsed programs have been
    compared to ensure the correctness of the collapsed loops'."""

    @pytest.mark.parametrize("name", ["correlation", "utma", "ltmp", "syrk"])
    def test_collapsed_execution_bitwise_matches_reference(self, name):
        kernel = get_kernel(name)
        values = {key: max(10, value // 12) for key, value in kernel.bench_parameters.items()}
        if "K" in values:
            values["K"] = 3
        assert verify_kernel(kernel, values, threads=5)


class TestSchedulingClaims:
    """Section VII, Fig. 9: who wins under which schedule."""

    def test_collapsed_static_beats_original_static_on_correlation(self):
        kernel = get_kernel("correlation")
        values = {"N": 100}
        static = simulate_outer_parallel(kernel.nest, values, 12, ScheduleKind.STATIC)
        collapsed = simulate_collapsed_static(kernel.collapsed(), values, 12)
        assert gain(static.makespan, collapsed.makespan) > 0.3

    def test_collapsed_static_competitive_with_dynamic_on_correlation(self):
        kernel = get_kernel("correlation")
        values = {"N": 100}
        dynamic = simulate_outer_parallel(
            kernel.nest, values, 12, ScheduleKind.DYNAMIC, chunk_size=kernel.dynamic_chunk
        )
        collapsed = simulate_collapsed_static(kernel.collapsed(), values, 12)
        assert gain(dynamic.makespan, collapsed.makespan) > -0.05

    def test_dynamic_wins_on_ltmp(self):
        kernel = get_kernel("ltmp")
        values = {"N": 100}
        dynamic = simulate_outer_parallel(
            kernel.nest, values, 12, ScheduleKind.DYNAMIC, chunk_size=kernel.dynamic_chunk
        )
        collapsed = simulate_collapsed_static(kernel.collapsed(), values, 12)
        assert dynamic.makespan < collapsed.makespan


class TestDepth3Pipeline:
    """Section IV-C: the Figure 6/7 nest, complex radicals included."""

    def test_figure7_style_code_and_execution(self):
        source = """
        for (i = 0; i < N - 1; i++)
          for (j = 0; j < i + 1; j++)
            for (k = j; k < i + 1; k++)
              S(i, j, k);
        """
        nest, _ = parse_loop_nest(source, parameters=["N"])
        collapsed = collapse(nest)
        n = 12
        assert collapsed.total_iterations({"N": n}) == (n ** 3 - n) // 6
        emitted = generate_openmp_chunked(collapsed)
        assert "cpow" in emitted      # the cube root of Fig. 7
        walked = batch_recovery(collapsed).recover_range(
            1, collapsed.total_iterations({"N": n}), {"N": n}
        )
        assert [tuple(row) for row in walked.tolist()] == list(
            enumerate_iterations(nest, {"N": n})
        )

    def test_numpy_accumulation_through_collapsed_depth3_loop(self):
        source = """
        for (i = 0; i < N - 1; i++)
          for (j = 0; j < i + 1; j++)
            for (k = j; k < i + 1; k++)
              S(i, j, k);
        """
        nest, _ = parse_loop_nest(source, parameters=["N"])
        collapsed = collapse(nest)
        n = 10
        direct = np.zeros((n, n, n))
        for i in range(n - 1):
            for j in range(i + 1):
                for k in range(j, i + 1):
                    direct[i, j, k] += 1
        via_collapse = np.zeros((n, n, n))
        rows = batch_recovery(collapsed).recover_range(
            1, collapsed.total_iterations({"N": n}), {"N": n}
        )
        np.add.at(via_collapse, tuple(rows.T), 1)
        assert np.array_equal(direct, via_collapse)
