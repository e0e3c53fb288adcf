"""Tests for the iteration cost models."""

import pytest

from repro.ir import Loop, LoopNest
from repro.openmp import CostModel, RecoveryCosts
from repro.symbolic import Polynomial


@pytest.fixture
def correlation_nest():
    return LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N"), Loop.make("k", 0, "N")],
        parameters=["N"],
        name="correlation",
    )


class TestRecoveryCosts:
    def test_defaults_are_positive(self):
        costs = RecoveryCosts()
        assert costs.costly_recovery > costs.increment > 0
        assert costs.unit_work > 0

    def test_scaled(self):
        scaled = RecoveryCosts().scaled(2.0)
        assert scaled.costly_recovery == RecoveryCosts().costly_recovery * 2
        assert scaled.unit_work == RecoveryCosts().unit_work  # work is not an overhead


class TestWorkPolynomials:
    def test_work_below_whole_nest(self, correlation_nest):
        model = CostModel(correlation_nest)
        N = Polynomial.variable("N")
        assert model.work_below(0) == N * (N * (N - 1)) / 2

    def test_work_below_parallel_level(self, correlation_nest):
        model = CostModel(correlation_nest)
        N, i = Polynomial.variable("N"), Polynomial.variable("i")
        # one outer iteration runs (N - 1 - i) * N inner iterations
        assert model.work_below(1) == (N - 1 - i) * N

    def test_work_below_collapse_level(self, correlation_nest):
        model = CostModel(correlation_nest)
        assert model.work_below(2) == Polynomial.variable("N")

    def test_work_below_innermost_is_one(self, correlation_nest):
        model = CostModel(correlation_nest)
        assert model.work_below(3) == Polynomial.constant(1)

    def test_invalid_level(self, correlation_nest):
        with pytest.raises(ValueError):
            CostModel(correlation_nest).work_below(4)


class TestNumericEvaluation:
    def test_iteration_work(self, correlation_nest):
        model = CostModel(correlation_nest)
        # row i=0 of a N=10 correlation: 9 * 10 inner iterations
        assert model.iteration_work((0,), {"N": 10}) == 90.0
        assert model.iteration_work((8,), {"N": 10}) == 10.0

    def test_iteration_work_at_collapse_depth(self, correlation_nest):
        model = CostModel(correlation_nest)
        assert model.iteration_work((3, 5), {"N": 10}) == 10.0

    def test_unit_work_scales_everything(self, correlation_nest):
        model = CostModel(correlation_nest, RecoveryCosts(unit_work=2.0))
        assert model.iteration_work((0,), {"N": 10}) == 180.0

    def test_negative_extrapolation_clamped_to_zero(self, correlation_nest):
        model = CostModel(correlation_nest)
        # out-of-domain row: the polynomial goes negative, the cost must not
        assert model.iteration_work((100,), {"N": 10}) == 0.0

    def test_total_work(self, correlation_nest):
        model = CostModel(correlation_nest)
        assert model.total_work({"N": 10}) == 45 * 10

    def test_compile_work_matches_interpreted(self, correlation_nest):
        model = CostModel(correlation_nest)
        compiled = model.compile_work(1, {"N": 12})
        for i in range(11):
            assert compiled(i) == model.iteration_work((i,), {"N": 12})

    def test_compile_work_for_collapsed_depth(self, correlation_nest):
        model = CostModel(correlation_nest)
        compiled = model.compile_work(2, {"N": 12})
        assert compiled(0, 1) == 12.0
