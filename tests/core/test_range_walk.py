"""The range walk: ``BatchRecovery.recover_range`` recovers a range's two
endpoints exactly and enumerates the rows between them (the paper's Fig. 4
scheme, vectorised).  Every test pins it element for element to the per-pc
solver ``recover_pcs`` (or, past 2^53 ranks, to the independent big-int
reference), on the shapes where an enumeration can go wrong: the first and
last prefix of each level, outer-row boundaries, empty inner ranges,
partial-depth collapses, bisection levels and huge magnitudes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis.sweep import transformed_scenarios
from repro.core import BatchRecoveryError, BatchStats, batch_recovery, collapse
from repro.ir import Loop, LoopNest
from repro.kernels import executable_kernels
from repro.polyhedra import AffineExpr, ClearedAffine


def assert_walk_matches_solver(collapsed, values, first, last):
    recoverer = batch_recovery(collapsed)
    walked = recoverer.recover_range(first, last, values)
    solved = recoverer.recover_pcs(np.arange(first, last + 1), values)
    assert walked.dtype == np.int64
    assert walked.shape == (last - first + 1, collapsed.depth)
    np.testing.assert_array_equal(walked, solved)
    return walked


def assert_every_subrange_matches(collapsed, values, ranges):
    """Check each ``(first, last)`` against one solve of the whole domain."""
    total = collapsed.total_iterations(values)
    recoverer = batch_recovery(collapsed)
    solved = recoverer.recover_pcs(np.arange(1, total + 1), values)
    for first, last in ranges:
        walked = recoverer.recover_range(first, last, values)
        np.testing.assert_array_equal(walked, solved[first - 1 : last], err_msg=f"{first}..{last}")


def outer_row_boundaries(collapsed, values):
    """The first pc of every outermost row (1-based), from the solved indices."""
    total = collapsed.total_iterations(values)
    outer = batch_recovery(collapsed).recover_pcs(np.arange(1, total + 1), values)[:, 0]
    return (np.nonzero(np.diff(outer))[0] + 2).tolist()


def scaled(parameters, factor):
    return {name: max(1, int(value * factor)) for name, value in parameters.items()}


@pytest.fixture
def simplex3_nest() -> LoopNest:
    """The depth-3 simplex of the huge-range pins: total = N(N+1)(N+2)/6."""
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", 0, "j + 1")],
        parameters=["N"],
        name="simplex3",
    )


def far_offset_nest():
    """Inner indices sit at offset ``M``: large ``M`` puts the bounds near 2**63."""
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", "i + M", "i + M + 3")],
        parameters=["N", "M"],
        name="far_offset",
    )


class TestWholeDomains:
    @pytest.mark.parametrize("factor", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("kernel", executable_kernels(), ids=lambda k: k.name)
    def test_executable_kernels_at_bench_sizes(self, kernel, factor):
        collapsed = kernel.collapsed()
        values = scaled(kernel.bench_parameters, factor)
        total = collapsed.total_iterations(values)
        assert total > 0
        assert_walk_matches_solver(collapsed, values, 1, total)

    @pytest.mark.parametrize("scenario", transformed_scenarios(), ids=lambda s: s.name)
    def test_transformed_scenarios(self, scenario):
        assert {s.name for s in transformed_scenarios()} == {"skewed_rect", "tiled_triangle"}
        collapsed = collapse(scenario.nest)
        values = dict(scenario.parameter_values)
        total = collapsed.total_iterations(values)
        assert_walk_matches_solver(collapsed, values, 1, total)
        boundaries = outer_row_boundaries(collapsed, values)
        assert_every_subrange_matches(
            collapsed, values, [(b, min(total, b + 5)) for b in boundaries] + [(2, total - 1)]
        )

    def test_partial_depth_collapse(self, figure6_nest):
        collapsed = collapse(figure6_nest, 2)
        values = {"N": 14}
        total = collapsed.total_iterations(values)
        assert collapsed.depth == 2
        assert_walk_matches_solver(collapsed, values, 1, total)
        assert_every_subrange_matches(collapsed, values, [(3, total - 2), (total, total)])

    def test_degree5_simplex(self):
        nest = LoopNest(
            [
                Loop.make("i", 0, "N"),
                Loop.make("j", 0, "i + 1"),
                Loop.make("k", 0, "j + 1"),
                Loop.make("l", 0, "k + 1"),
                Loop.make("m", 0, "l + 1"),
            ],
            parameters=["N"],
            name="simplex5_walk",
        )
        collapsed = collapse(nest)
        assert not collapsed.uses_only_closed_forms()
        values = {"N": 9}
        total = collapsed.total_iterations(values)
        assert_walk_matches_solver(collapsed, values, 1, total)
        rng = np.random.default_rng(5)
        ranges = [tuple(sorted(rng.integers(1, total + 1, 2).tolist())) for _ in range(40)]
        assert_every_subrange_matches(collapsed, values, ranges)

    def test_empty_inner_rows_drop_out(self):
        # j runs over [i + 1, N): the last outer row has no inner iteration,
        # and every row of level k holds fewer children than the one before
        nest = LoopNest(
            [Loop.make("i", 0, "N"), Loop.make("j", "i + 1", "N"), Loop.make("k", "j", "N")],
            parameters=["N"],
            name="strict_simplex_walk",
        )
        collapsed = collapse(nest)
        values = {"N": 11}
        total = collapsed.total_iterations(values)
        assert_walk_matches_solver(collapsed, values, 1, total)


class TestSubranges:
    def test_single_pc_ranges(self, figure6_nest):
        collapsed = collapse(figure6_nest)
        values = {"N": 12}
        total = collapsed.total_iterations(values)
        assert_every_subrange_matches(collapsed, values, [(pc, pc) for pc in range(1, total + 1)])

    def test_ranges_that_start_or_end_on_an_outer_row_boundary(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        values = {"N": 17}
        total = collapsed.total_iterations(values)
        boundaries = outer_row_boundaries(collapsed, values)
        assert boundaries
        ranges = []
        for first_of_row in boundaries:
            ranges += [
                (first_of_row, total),  # starts on a row's first pc
                (1, first_of_row - 1),  # ends on the previous row's last pc
                (first_of_row - 1, first_of_row),  # straddles the boundary
                (first_of_row, first_of_row),
            ]
        assert_every_subrange_matches(collapsed, values, ranges)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_random_ranges(self, seed, figure6_nest, simplex4_nest, trapezoidal_nest):
        rng = np.random.default_rng(seed)
        cases = [
            (collapse(figure6_nest), {"N": 15}),
            (collapse(simplex4_nest), {"N": 9}),
            (collapse(trapezoidal_nest), {"N": 9, "M": 5}),
        ]
        for collapsed, values in cases:
            total = collapsed.total_iterations(values)
            ranges = [tuple(sorted(rng.integers(1, total + 1, 2).tolist())) for _ in range(50)]
            assert_every_subrange_matches(collapsed, values, ranges)

    def test_iterate_yields_the_walked_rows(self, correlation_nest):
        collapsed = collapse(correlation_nest)
        values = {"N": 14}
        rows = list(batch_recovery(collapsed).iterate(3, 50, values))
        assert rows == [collapsed.recover_indices(pc, values) for pc in range(3, 51)]


class TestMagnitudes:
    def test_window_past_2_to_53_ranks_on_the_depth3_pin(
        self, simplex3_nest, exact_reference_recover
    ):
        collapsed = collapse(simplex3_nest)
        values = {"N": 400000}  # the huge-range pin: total ≈ 2^53.2
        total = collapsed.total_iterations(values)
        assert total > 2**53
        firsts = [2**53 - 7, collapsed.rank_of((300000, 0, 0), values) - 7, total - 19]
        for first in firsts:
            walked = batch_recovery(collapsed).recover_range(first, first + 19, values)
            expected = [
                exact_reference_recover(collapsed, pc, values) for pc in range(first, first + 20)
            ]
            assert [tuple(row) for row in walked.tolist()] == expected, first

    def test_walk_counts_rows_and_solves_nothing(self):
        collapsed = collapse(far_offset_nest())
        stats = BatchStats()
        batch_recovery(collapsed).recover_range(2, 17, {"N": 6, "M": 5}, stats)
        assert stats == BatchStats(iterations=16)

    @pytest.mark.parametrize("offset", [2**62, 2**62 + 2**61])
    def test_int64_wrap_falls_back_to_the_solver(self, offset, exact_reference_recover):
        collapsed = collapse(far_offset_nest())
        values = {"N": 6, "M": offset}
        stats = BatchStats()
        walked = batch_recovery(collapsed).recover_range(1, 18, values, stats)
        # the solver ran (its counters moved) on its big-int carrier
        assert stats.iterations == 18 and stats.vector_levels == collapsed.depth
        expected = [exact_reference_recover(collapsed, pc, values) for pc in range(1, 19)]
        assert [tuple(row) for row in walked.tolist()] == expected

    def test_out_of_range_raises(self, correlation_nest):
        recoverer = batch_recovery(collapse(correlation_nest))
        values = {"N": 10}  # total is 45
        for first, last in ((0, 5), (1, 46), (46, 46), (-3, -1)):
            with pytest.raises(BatchRecoveryError, match=r"must lie in \[1, 45\]"):
                recoverer.recover_range(first, last, values)
        assert recoverer.recover_range(5, 4, values).shape == (0, 2)


class TestClearedBounds:
    def test_ceil_is_exact_for_rational_bounds(self):
        expr = AffineExpr.build({"i": Fraction(-2, 3), "N": Fraction(1, 2)}, Fraction(5, 6))
        cleared = ClearedAffine.of(expr)
        assert cleared.den == 6
        rng = np.random.default_rng(7)
        i = rng.integers(-10**6, 10**6, 500)
        got = cleared.ceil({"i": i, "N": 101})
        expected = [math.ceil(expr.evaluate({"i": int(x), "N": 101})) for x in i]
        assert got.tolist() == expected

    def test_magnitude_bounds_the_numerator(self):
        cleared = ClearedAffine.of(AffineExpr.build({"i": 3, "N": -2}, 7))
        assert cleared.den == 1
        assert cleared.magnitude({"i": 10, "N": 4}) == 7 + 30 + 8
