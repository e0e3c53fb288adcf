"""The walk's endpoints: ``BatchRecovery._endpoint`` recovers one rank with
each level's root compiled to scalar straight-line code as the seed and the
compiled integer bracket, on Python ints, as the certificate, through the
one seed-then-correct routine :func:`repro.core.unranking.exact_search`.

The symbolic ``UnrankingFunction.recover`` stays the exact reference: the
endpoint must equal it at every pc of every executable kernel and of the
sweep's skewed and tiled nests, equal the independent big-int reference past
2^53 ranks, fall back to the exact search when a seed is non-finite or
raises, correct a seed that is off, and never need the symbolic unranker.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.sweep import transformed_scenarios
from repro.core import batch, batch_recovery, collapse
from repro.core.batch import BatchRecovery
from repro.core.unranking import UnrankingError, UnrankingFunction, exact_search, float_seed
from repro.ir import Loop, LoopNest
from repro.kernels import executable_kernels


def assert_endpoints_match_reference(collapsed, values):
    """``_endpoint(pc)`` and ``recover_range(pc, pc)`` equal ``recover(pc)`` at every pc."""
    recoverer = batch_recovery(collapsed)
    total = collapsed.total_iterations(values)
    assert total > 0
    environment = {name: int(value) for name, value in values.items()}
    for pc in range(1, total + 1):
        expected = collapsed.unranking.recover(pc, values)
        assert recoverer._endpoint(pc, environment) == expected, pc
    ones = [tuple(recoverer.recover_range(pc, pc, values)[0]) for pc in (1, total // 2 + 1, total)]
    assert ones == [collapsed.unranking.recover(pc, values) for pc in (1, total // 2 + 1, total)]


@pytest.fixture
def simplex3_nest() -> LoopNest:
    """The depth-3 simplex of the huge-range pins: total = N(N+1)(N+2)/6."""
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", 0, "j + 1")],
        parameters=["N"],
        name="simplex3",
    )


class _Root:
    """A stand-in scalar root: a fixed value, an exception, or a shifted real root."""

    def __init__(self, inner=None, value=None, error=None, shift=0.0):
        self.inner, self.value, self.error, self.shift = inner, value, error, shift
        self.calls = 0

    def evaluate(self, assignment):
        self.calls += 1
        if self.error is not None:
            raise self.error
        if self.value is not None:
            return self.value
        return self.inner.evaluate(assignment) + self.shift


def with_root(collapsed, level, **root):
    """A fresh recoverer whose ``level`` seeds from a :class:`_Root`."""
    recoverer = BatchRecovery(collapsed)
    plan = recoverer._plans[level]
    fake = _Root(inner=plan.scalar_root, **root)
    recoverer._plans[level] = dataclasses.replace(plan, scalar_root=fake)
    return recoverer, fake


class TestEndpointsEqualTheSymbolicRecovery:
    @pytest.mark.parametrize("kernel", executable_kernels(), ids=lambda k: k.name)
    def test_every_pc_of_every_executable_kernel(self, kernel):
        values = {name: max(1, value // 4) for name, value in kernel.bench_parameters.items()}
        assert_endpoints_match_reference(kernel.collapsed(), values)

    @pytest.mark.parametrize("scenario", transformed_scenarios(), ids=lambda s: s.name)
    def test_transformed_scenarios(self, scenario):
        assert {s.name for s in transformed_scenarios()} == {"skewed_rect", "tiled_triangle"}
        assert_endpoints_match_reference(
            collapse(scenario.nest), dict(scenario.parameter_values)
        )

    def test_cubic_quartic_and_bisection_levels(self, figure6_nest, simplex4_nest):
        assert_endpoints_match_reference(collapse(figure6_nest), {"N": 9})
        assert_endpoints_match_reference(collapse(simplex4_nest), {"N": 7})
        quintic = LoopNest(
            [Loop.make(name, 0, bound) for name, bound in
             (("i", "N"), ("j", "i + 1"), ("k", "j + 1"), ("l", "k + 1"), ("m", "l + 1"))],
            parameters=["N"],
            name="simplex5_endpoints",
        )
        collapsed = collapse(quintic)
        assert any(plan.scalar_root is None for plan in batch_recovery(collapsed)._plans)
        assert_endpoints_match_reference(collapsed, {"N": 6})

    def test_recover_range_never_calls_the_symbolic_unranker(self, monkeypatch, figure6_nest):
        collapsed = collapse(figure6_nest)
        values = {"N": 12}
        total = collapsed.total_iterations(values)
        expected = batch_recovery(collapsed).recover_pcs(np.arange(1, total + 1), values)

        def refuse(self, pc, parameter_values):
            raise AssertionError("the walk recovered an endpoint symbolically")

        monkeypatch.setattr(UnrankingFunction, "recover", refuse)
        for first, last in ((1, total), (7, 7), (5, total - 3)):
            walked = batch_recovery(collapsed).recover_range(first, last, values)
            np.testing.assert_array_equal(walked, expected[first - 1 : last])


class TestMagnitudes:
    def test_past_2_to_53_ranks_on_the_depth3_pin(self, simplex3_nest, exact_reference_recover):
        collapsed = collapse(simplex3_nest)
        values = {"N": 400000}  # total ≈ 2^53.2
        total = collapsed.total_iterations(values)
        assert total > 2**53
        recoverer = batch_recovery(collapsed)
        environment = dict(values)
        row_start = collapsed.rank_of((300000, 0, 0), values)
        pcs = [1, 2**53 - 1, 2**53, 2**53 + 1, row_start - 1, row_start, total - 1, total]
        for pc in pcs:
            expected = exact_reference_recover(collapsed, pc, values)
            assert recoverer._endpoint(pc, environment) == expected, pc
            assert tuple(recoverer.recover_range(pc, pc, values)[0]) == expected, pc


class TestSeeds:
    @pytest.mark.parametrize(
        "root",
        [
            {"value": complex(float("inf"))},
            {"value": complex(float("nan"))},
            {"value": complex(float("-inf"), 0.0)},
            {"error": ZeroDivisionError("degenerate branch")},
            {"error": OverflowError("float overflow")},
        ],
        ids=["inf", "nan", "-inf", "zero-division", "overflow"],
    )
    def test_non_finite_or_raising_seeds_route_to_the_exact_search(
        self, monkeypatch, figure6_nest, root
    ):
        collapsed = collapse(figure6_nest)
        values = {"N": 10}
        seeds = []

        def spy(bracket, rank, lower, upper, seed=None):
            seeds.append(seed)
            return exact_search(bracket, rank, lower, upper, seed)

        monkeypatch.setattr(batch, "exact_search", spy)
        for level in range(collapsed.depth):
            recoverer, fake = with_root(collapsed, level, **root)
            for pc in range(1, collapsed.total_iterations(values) + 1):
                seeds.clear()
                assert recoverer._endpoint(pc, values) == collapsed.unranking.recover(pc, values)
                assert seeds[level] is None  # no seed: the whole range was bisected
            assert fake.calls > 0

    @pytest.mark.parametrize("shift", [-3.5, -1.0, 1.0, 2.5, 40.0])
    def test_an_off_seed_is_corrected_by_the_bracket(self, correlation_nest, shift):
        collapsed = collapse(correlation_nest)
        values = {"N": 30}
        for level in range(collapsed.depth):
            recoverer, fake = with_root(collapsed, level, shift=shift)
            for pc in range(1, collapsed.total_iterations(values) + 1):
                assert recoverer._endpoint(pc, values) == collapsed.unranking.recover(pc, values)
            assert fake.calls > 0

    def test_float_seed_floors_or_gives_none(self):
        assert float_seed(lambda a: complex(a["x"], 0.0), {"x": 2.9999999999}) == 3
        assert float_seed(lambda a: complex(-1.5, 7.0), {}) == -2
        assert float_seed(lambda a: complex(float("inf")), {}) is None
        assert float_seed(lambda a: complex(float("nan")), {}) is None
        assert float_seed(lambda a: 1 / 0, {}) is None


class TestExactSearch:
    """The one scalar seed-then-correct routine, on ``bracket(x) = x**2``."""

    @staticmethod
    def square(x):
        return x * x

    @pytest.mark.parametrize("seed", [None, 0, 3, 4, 5, 9, 10, 100, -7])
    def test_any_seed_gives_the_largest_x_with_bracket_at_most_rank(self, seed):
        for rank in range(0, 101):
            expected = max(x for x in range(0, 11) if x * x <= rank)
            assert exact_search(self.square, rank, 0, 10, seed) == expected, (rank, seed)

    def test_a_right_seed_costs_two_evaluations(self):
        calls = []

        def bracket(x):
            calls.append(x)
            return x * x

        assert exact_search(bracket, 50, 0, 10, seed=7) == 7
        assert calls == [7, 8]

    def test_unseeded_search_rejects_empty_and_unreachable_ranges(self):
        with pytest.raises(UnrankingError, match="empty index range"):
            exact_search(self.square, 5, 4, 3)
        with pytest.raises(UnrankingError, match="below the first index"):
            exact_search(self.square, 5, 3, 9)

    def test_seeded_search_keeps_the_clamp_on_a_degenerate_range(self):
        assert exact_search(self.square, 5, 4, 3, seed=0) == 3

    def test_exact_at_big_int_magnitudes(self):
        rank = 10**40 + 12345
        root = exact_search(self.square, rank, 0, 10**21, seed=int(float(rank) ** 0.5))
        assert root * root <= rank < (root + 1) ** 2
