"""Tests for the recovery strategies and their cost accounting (Section V)."""

import pytest

from repro.core import (
    RecoveryStats,
    RecoveryStrategy,
    batch_recovery,
    collapse,
    iterate_chunk,
    recover_range,
)
from repro.ir import Loop, LoopNest, enumerate_iterations


@pytest.fixture
def collapsed_correlation(correlation_nest):
    return collapse(correlation_nest)


@pytest.fixture
def collapsed_figure6(figure6_nest):
    return collapse(figure6_nest)


class TestChunkContents:
    def test_full_range_matches_original_order(self, collapsed_correlation, correlation_nest):
        values = {"N": 11}
        total = collapsed_correlation.total_iterations(values)
        chunk = recover_range(collapsed_correlation, 1, total, values)
        assert chunk == list(enumerate_iterations(correlation_nest, values))

    def test_both_strategies_agree(self, collapsed_figure6):
        values = {"N": 8}
        total = collapsed_figure6.total_iterations(values)
        first, last = total // 3, 2 * total // 3
        per_iteration = recover_range(
            collapsed_figure6, first, last, values, RecoveryStrategy.PER_ITERATION
        )
        incremented = recover_range(
            collapsed_figure6, first, last, values, RecoveryStrategy.FIRST_THEN_INCREMENT
        )
        assert per_iteration == incremented

    def test_chunks_partition_the_iteration_space(self, collapsed_correlation, correlation_nest):
        """Splitting [1, total] into arbitrary chunks loses and duplicates nothing."""
        values = {"N": 13}
        total = collapsed_correlation.total_iterations(values)
        chunk_size = 7
        recovered = []
        for start in range(1, total + 1, chunk_size):
            end = min(start + chunk_size - 1, total)
            recovered.extend(recover_range(collapsed_correlation, start, end, values))
        assert recovered == list(enumerate_iterations(correlation_nest, values))

    def test_empty_chunk(self, collapsed_correlation):
        assert recover_range(collapsed_correlation, 5, 4, {"N": 10}) == []

    def test_single_iteration_chunk(self, collapsed_correlation):
        values = {"N": 10}
        assert recover_range(collapsed_correlation, 1, 1, values) == [(0, 1)]

    def test_chunk_past_the_end_raises(self, collapsed_correlation):
        values = {"N": 4}
        total = collapsed_correlation.total_iterations(values)
        with pytest.raises(ValueError):
            recover_range(collapsed_correlation, total, total + 3, values)


class TestCostAccounting:
    def test_per_iteration_pays_one_recovery_each(self, collapsed_correlation):
        stats = RecoveryStats()
        recover_range(
            collapsed_correlation, 1, 20, {"N": 12}, RecoveryStrategy.PER_ITERATION, stats
        )
        assert stats.costly_recoveries == 20
        assert stats.increments == 0
        assert stats.iterations == 20

    def test_chunked_pays_one_recovery_per_chunk(self, collapsed_correlation):
        stats = RecoveryStats()
        recover_range(
            collapsed_correlation, 1, 20, {"N": 12}, RecoveryStrategy.FIRST_THEN_INCREMENT, stats
        )
        assert stats.costly_recoveries == 1
        assert stats.increments == 19
        assert stats.iterations == 20

    def test_twelve_chunks_pay_twelve_recoveries(self, collapsed_correlation):
        """The Figure 10 experiment: 12 root evaluations for 12 threads."""
        values = {"N": 30}
        total = collapsed_correlation.total_iterations(values)
        threads = 12
        stats = RecoveryStats()
        bounds = [
            (thread * total // threads + 1, (thread + 1) * total // threads)
            for thread in range(threads)
        ]
        for first, last in bounds:
            recover_range(
                collapsed_correlation, first, last, values, RecoveryStrategy.FIRST_THEN_INCREMENT, stats
            )
        assert stats.costly_recoveries == threads
        assert stats.iterations == total

    def test_stats_merge(self):
        merged = RecoveryStats(1, 2, 3).merge(RecoveryStats(10, 20, 30))
        assert (merged.costly_recoveries, merged.increments, merged.iterations) == (11, 22, 33)

    def test_iterate_chunk_is_lazy(self, collapsed_figure6):
        iterator = iterate_chunk(collapsed_figure6, 1, 10 ** 9, {"N": 6})
        assert next(iterator) == (0, 0, 0)


def _walk(kind, collapsed, first_pc, last_pc, values):
    """The chunk ``[first_pc, last_pc]`` through one of the two Python walks."""
    if kind == "scalar":
        return list(iterate_chunk(collapsed, first_pc, last_pc, values))
    rows = batch_recovery(collapsed).recover_range(first_pc, last_pc, values)
    return [tuple(row) for row in rows.tolist()]


@pytest.mark.parametrize("kind", ["scalar", "batch"])
class TestPythonExecutors:
    """The scalar reference walk and the batch walk run the same cases: the
    full order, a chunk, several parameters, double-blurring ranks,
    bisection levels and a chunk past the end."""

    def test_reproduces_original_order(self, kind, collapsed_correlation, correlation_nest):
        values = {"N": 15}
        total = collapsed_correlation.total_iterations(values)
        assert _walk(kind, collapsed_correlation, 1, total, values) == list(
            enumerate_iterations(correlation_nest, values)
        )

    def test_chunk_matches_slice(self, kind, collapsed_correlation, correlation_nest):
        values = {"N": 15}
        assert _walk(kind, collapsed_correlation, 20, 50, values) == list(
            enumerate_iterations(correlation_nest, values)
        )[19:50]

    def test_multi_parameter_nest(self, kind, trapezoidal_nest):
        collapsed = collapse(trapezoidal_nest)
        values = {"N": 6, "M": 3}
        total = collapsed.total_iterations(values)
        assert _walk(kind, collapsed, 1, total, values) == list(
            enumerate_iterations(trapezoidal_nest, values)
        )

    def test_exact_at_sizes_where_doubles_blur(self, kind, collapsed_correlation):
        n = 3000
        values = {"N": n}
        total = n * (n - 1) // 2
        assert collapsed_correlation.total_iterations(values) == total
        visited = _walk(kind, collapsed_correlation, total - 3, total, values)
        assert visited == [(n - 4, n - 1), (n - 3, n - 2), (n - 3, n - 1), (n - 2, n - 1)]

    def test_bisection_levels_are_walked_exactly(self, kind):
        nest = LoopNest(
            [
                Loop.make("i", 0, "N"),
                Loop.make("j", 0, "i + 1"),
                Loop.make("k", 0, "j + 1"),
                Loop.make("l", 0, "k + 1"),
                Loop.make("m", 0, "l + 1"),
            ],
            parameters=["N"],
            name="simplex5_executors",
        )
        collapsed = collapse(nest)
        assert any(r.method == "bisection" for r in collapsed.unranking.recoveries)
        values = {"N": 6}
        total = collapsed.total_iterations(values)
        assert _walk(kind, collapsed, 1, total, values) == list(enumerate_iterations(nest, values))

    def test_chunk_past_the_end_is_rejected(self, kind, collapsed_correlation):
        values = {"N": 10}
        total = collapsed_correlation.total_iterations(values)
        assert total == 45
        with pytest.raises(ValueError):
            _walk(kind, collapsed_correlation, 40, 10 ** 9, values)
