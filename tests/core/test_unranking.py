"""Tests for unranking: symbolic inversion and the recovery fallbacks (Section IV)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import UnrankingError, build_unranking, ranking_polynomial
from repro.ir import Loop, LoopNest, enumerate_iterations


def full_round_trip(nest, parameter_values, depth=None, **kwargs):
    ranking = ranking_polynomial(nest, depth)
    unranking = build_unranking(ranking, **kwargs)
    return unranking, unranking.validate(parameter_values)


class TestPaperClosedForms:
    def test_correlation_outer_index_matches_paper_formula(self, correlation_nest):
        """The recovered i must equal ⌊-(sqrt(4N²-4N-8pc+9)-2N+1)/2⌋ for every pc."""
        ranking = ranking_polynomial(correlation_nest)
        unranking = build_unranking(ranking)
        n = 40
        total = ranking.total_iterations({"N": n})
        for pc in range(1, total + 1):
            paper_i = math.floor(-(math.sqrt(4 * n * n - 4 * n - 8 * pc + 9) - 2 * n + 1) / 2)
            recovered = unranking.recover(pc, {"N": n})
            assert recovered[0] == paper_i

    def test_correlation_inner_index_matches_paper_formula(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        unranking = build_unranking(ranking)
        n = 25
        total = ranking.total_iterations({"N": n})
        for pc in range(1, total + 1):
            i, j = unranking.recover(pc, {"N": n})
            paper_j = math.floor(-(2 * i * n - 2 * pc - i * i - 3 * i) / 2)
            assert j == paper_j

    def test_correlation_uses_closed_forms_only(self, correlation_nest):
        unranking, ok = full_round_trip(correlation_nest, {"N": 15})
        assert ok
        assert unranking.uses_only_closed_forms()
        assert [r.method for r in unranking.recoveries] == ["symbolic", "linear"]

    def test_figure6_uses_cubic_closed_form(self, figure6_nest):
        unranking, ok = full_round_trip(figure6_nest, {"N": 10})
        assert ok
        assert [r.method for r in unranking.recoveries] == ["symbolic", "symbolic", "linear"]
        assert [r.degree for r in unranking.recoveries] == [3, 2, 1]

    def test_simplex4_uses_quartic_closed_form(self, simplex4_nest):
        unranking, ok = full_round_trip(simplex4_nest, {"N": 7})
        assert ok
        assert unranking.uses_only_closed_forms()
        assert unranking.recoveries[0].degree == 4

    def test_figure6_complex_radicand_at_pc_1(self, figure6_nest):
        """Section IV-C: at pc=1 the radicand is negative, yet i must recover to 0."""
        ranking = ranking_polynomial(figure6_nest)
        unranking = build_unranking(ranking)
        assert unranking.recover(1, {"N": 100})[0] == 0


class TestRoundTrips:
    @pytest.mark.parametrize(
        "fixture_name,parameter_values",
        [
            ("correlation_nest", {"N": 2}),
            ("correlation_nest", {"N": 13}),
            ("figure6_nest", {"N": 9}),
            ("simplex4_nest", {"N": 6}),
            ("rectangular_nest", {"N": 5, "M": 7}),
            ("trapezoidal_nest", {"N": 6, "M": 2}),
            ("rhomboidal_nest", {"N": 7}),
        ],
    )
    def test_round_trip_on_all_shapes(self, fixture_name, parameter_values, request):
        nest = request.getfixturevalue(fixture_name)
        _, ok = full_round_trip(nest, parameter_values)
        assert ok

    def test_round_trip_partial_depth(self, figure6_nest):
        _, ok = full_round_trip(figure6_nest, {"N": 9}, depth=2)
        assert ok

    def test_round_trip_much_larger_than_selection_sample(self, correlation_nest):
        """Roots are selected on a small sample but must stay correct at larger sizes."""
        ranking = ranking_polynomial(correlation_nest)
        unranking = build_unranking(ranking, sample_parameters={"N": 6})
        assert unranking.validate({"N": 60})

    def test_recover_is_inverse_of_rank(self, figure6_nest):
        ranking = ranking_polynomial(figure6_nest)
        unranking = build_unranking(ranking)
        values = {"N": 11}
        for indices in enumerate_iterations(figure6_nest, values):
            pc = ranking.rank(indices, values)
            assert unranking.recover(pc, values) == indices


class TestFallbacksAndGuards:
    def test_degree_five_nest_falls_back_to_bisection(self):
        """A 5-deep simplex exceeds the paper's degree-4 limit (Section IV-B)."""
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
        ranking = ranking_polynomial(nest)
        unranking = build_unranking(ranking)
        assert unranking.recoveries[0].method == "bisection"
        assert not unranking.uses_only_closed_forms()
        assert unranking.validate({"N": 5})

    def test_guarded_recovery_at_large_sizes(self, correlation_nest):
        """Large sizes stress the floating-point floor; the guard keeps it exact.

        Check the boundary iterations (first/last of selected rows) where an
        off-by-one would appear first.
        """
        ranking = ranking_polynomial(correlation_nest)
        unranking = build_unranking(ranking)
        n = 5000
        values = {"N": n}
        for i in (0, 1, 1234, 2499, 4997):
            first_pc = ranking.rank((i, i + 1), values)
            last_pc = ranking.rank((i, n - 1), values)
            assert unranking.recover(first_pc, values) == (i, i + 1)
            assert unranking.recover(last_pc, values) == (i, n - 1)

    def test_pc_name_clash_detected(self, correlation_nest):
        nest = LoopNest(
            [Loop.make("pc", 0, "N - 1"), Loop.make("j", "pc + 1", "N")],
            parameters=["N"],
            name="clash",
        )
        ranking = ranking_polynomial(nest)
        with pytest.raises(UnrankingError, match="clash"):
            build_unranking(ranking)
        # an alternative name resolves the clash
        alternative = build_unranking(ranking, pc_name="flat_index")
        assert alternative.validate({"N": 8})

    def test_invalid_pc_rejected(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        unranking = build_unranking(ranking)
        with pytest.raises(ValueError):
            unranking.recover(0, {"N": 10})

    def test_describe_lists_every_iterator(self, figure6_nest):
        ranking = ranking_polynomial(figure6_nest)
        unranking = build_unranking(ranking)
        text = unranking.describe()
        for iterator in ("i", "j", "k"):
            assert iterator in text


class TestSampleEnumeration:
    @pytest.mark.parametrize("fixture_name", ["correlation_nest", "figure6_nest"])
    def test_each_sample_instantiation_is_enumerated_once(self, fixture_name, request, monkeypatch):
        """The sample search, the degeneracy check and every level's root
        selection share one enumeration per parameter instantiation."""
        import repro.core.unranking as unranking_module

        enumerated = []

        def counting(nest, values, depth=None):
            enumerated.append(tuple(sorted(values.items())))
            return enumerate_iterations(nest, values, depth)

        monkeypatch.setattr(unranking_module, "enumerate_iterations", counting)
        ranking = ranking_polynomial(request.getfixturevalue(fixture_name))
        unranking = build_unranking(ranking)
        assert unranking.uses_only_closed_forms()
        assert enumerated == [(("N", 8),), (("N", 13),)]


@settings(max_examples=12, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), offset=st.integers(min_value=0, max_value=3))
def test_property_round_trip_on_shifted_triangles(n, offset):
    """Triangles whose inner loop starts at i + offset round-trip for every pc."""
    nest = LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", f"i + {offset}", f"N + {offset}")],
        parameters=["N"],
        name="shifted",
    )
    ranking = ranking_polynomial(nest)
    unranking = build_unranking(ranking)
    assert unranking.validate({"N": n})


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=3, max_value=20))
def test_property_every_pc_maps_into_domain(n):
    nest = LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")], parameters=["N"], name="corr"
    )
    ranking = ranking_polynomial(nest)
    unranking = build_unranking(ranking)
    domain = nest.domain()
    total = ranking.total_iterations({"N": n})
    for pc in range(1, total + 1):
        indices = unranking.recover(pc, {"N": n})
        assert domain.contains(indices, {"N": n})
