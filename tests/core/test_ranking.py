"""Tests for ranking Ehrhart polynomials (Section III)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ranking_polynomial
from repro.ir import Loop, LoopNest, enumerate_iterations
from repro.symbolic import Polynomial


def P(name):
    return Polynomial.variable(name)


class TestPaperFormulas:
    def test_correlation_ranking_matches_section_iii(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        expected = (2 * P("i") * P("N") + 2 * P("j") - P("i") ** 2 - 3 * P("i")) / 2
        assert ranking.polynomial == expected

    def test_correlation_named_values_from_the_paper(self, correlation_nest):
        """r(0,1)=1, r(0,2)=2, r(0,3)=3, r(0,N-1)=N-1, r(1,2)=N, r(N-2,N-1)=N(N-1)/2."""
        ranking = ranking_polynomial(correlation_nest)
        n = 20
        assert ranking.rank((0, 1), {"N": n}) == 1
        assert ranking.rank((0, 2), {"N": n}) == 2
        assert ranking.rank((0, 3), {"N": n}) == 3
        assert ranking.rank((0, n - 1), {"N": n}) == n - 1
        assert ranking.rank((1, 2), {"N": n}) == n
        assert ranking.rank((n - 2, n - 1), {"N": n}) == n * (n - 1) // 2

    def test_correlation_total(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        assert ranking.total == (P("N") * (P("N") - 1)) / 2

    def test_figure6_ranking_matches_section_ivc(self, figure6_nest):
        ranking = ranking_polynomial(figure6_nest)
        i, j, k = P("i"), P("j"), P("k")
        expected = (6 * k - 3 * j ** 2 + 6 * i * j + 3 * j + i ** 3 + 3 * i ** 2 + 2 * i + 6) / 6
        assert ranking.polynomial == expected

    def test_figure6_total_is_tetrahedral(self, figure6_nest):
        ranking = ranking_polynomial(figure6_nest)
        assert ranking.total == (P("N") ** 3 - P("N")) / 6

    def test_rectangular_ranking_is_row_major_order(self, rectangular_nest):
        ranking = ranking_polynomial(rectangular_nest)
        assert ranking.polynomial == P("M") * P("i") + P("j") + 1


class TestBijectionProperty:
    @pytest.mark.parametrize(
        "fixture_name,sizes",
        [
            ("correlation_nest", [{"N": 3}, {"N": 7}, {"N": 12}]),
            ("figure6_nest", [{"N": 4}, {"N": 8}]),
            ("simplex4_nest", [{"N": 5}, {"N": 7}]),
            ("rectangular_nest", [{"N": 4, "M": 6}]),
            ("trapezoidal_nest", [{"N": 5, "M": 3}]),
            ("rhomboidal_nest", [{"N": 6}]),
        ],
    )
    def test_validate_for_all_paper_shapes(self, fixture_name, sizes, request):
        nest = request.getfixturevalue(fixture_name)
        ranking = ranking_polynomial(nest)
        for parameter_values in sizes:
            assert ranking.validate(parameter_values), (fixture_name, parameter_values)

    def test_rank_is_dense_and_monotone(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        values = {"N": 9}
        ranks = [ranking.rank(it, values) for it in enumerate_iterations(correlation_nest, values)]
        assert ranks == list(range(1, len(ranks) + 1))

    def test_partial_depth_ranking(self, figure6_nest):
        """Collapsing only the two outer loops ranks (i, j) pairs."""
        ranking = ranking_polynomial(figure6_nest, depth=2)
        values = {"N": 8}
        assert ranking.validate(values)
        assert ranking.total_iterations(values) == sum(1 for _ in enumerate_iterations(figure6_nest, values, 2))

    def test_depth_one_ranking_is_offset_index(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest, depth=1)
        assert ranking.rank((4,), {"N": 10}) == 5


class TestErrorsAndEdgeCases:
    def test_bad_depth_rejected(self, correlation_nest):
        with pytest.raises(ValueError):
            ranking_polynomial(correlation_nest, depth=0)
        with pytest.raises(ValueError):
            ranking_polynomial(correlation_nest, depth=3)

    def test_rank_arity_check(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        with pytest.raises(ValueError):
            ranking.rank((1,), {"N": 5})

    def test_rank_requires_parameter_values(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        with pytest.raises(KeyError):
            ranking.rank((0, 1), {})

    def test_ranks_outside_the_domain_are_not_bijective(self, figure6_nest):
        """Outside the iteration domain the polynomial may collide with valid
        ranks — callers must not feed out-of-domain points (validate() covers
        the in-domain bijection)."""
        ranking = ranking_polynomial(figure6_nest)
        values = {"N": 5}
        out_of_domain = ranking.rank((0, 1, 0), values)   # violates k >= j
        in_domain = ranking.rank((0, 0, 0), values)
        assert out_of_domain == in_domain

    def test_total_negative_for_degenerate_parameters(self, correlation_nest):
        # with N = 0 the outer loop alone would have to run "N - 1 = -1" times
        ranking = ranking_polynomial(correlation_nest, depth=1)
        with pytest.raises(ValueError):
            ranking.total_iterations({"N": 0})

    def test_total_zero_for_empty_domain(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        assert ranking.total_iterations({"N": 1}) == 0

    def test_str_mentions_iterators(self, correlation_nest):
        assert "r(i, j)" in str(ranking_polynomial(correlation_nest))

    def test_partial_rank_polynomial_levels(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest)
        # level 1: j replaced by its parametric minimum i+1
        level1 = ranking.partial_rank_polynomial(1)
        assert level1.evaluate({"i": 0, "N": 10}) == 1
        assert level1.evaluate({"i": 1, "N": 10}) == 10
        with pytest.raises(ValueError):
            ranking.partial_rank_polynomial(0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), skew=st.integers(min_value=0, max_value=2))
def test_property_ranking_is_bijective_on_random_skewed_nests(n, skew):
    nest = LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", f"{skew}*i", f"N + {skew}*i")],
        parameters=["N"],
        name="skewed",
    )
    ranking = ranking_polynomial(nest)
    assert ranking.validate({"N": n})


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=8))
def test_property_rank_of_successor_increments_by_one(n):
    nest = LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")], parameters=["N"], name="corr"
    )
    ranking = ranking_polynomial(nest)
    values = {"N": n}
    iterations = list(enumerate_iterations(nest, values))
    for first, second in zip(iterations, iterations[1:]):
        assert ranking.rank(second, values) == ranking.rank(first, values) + 1


class TestTripCountMemo:
    """``total_iterations`` evaluates the ``Fraction`` total once per size."""

    def test_every_parameter_is_part_of_the_key(self, trapezoidal_nest):
        ranking = ranking_polynomial(trapezoidal_nest)
        for values in ({"N": 8, "M": 4}, {"N": 8, "M": 5}, {"N": 9, "M": 5}, {"N": 8, "M": 4}):
            expected = sum(1 for _ in enumerate_iterations(trapezoidal_nest, values))
            assert ranking.total_iterations(values) == expected, values

    def test_a_repeated_size_skips_the_evaluation(self, monkeypatch, trapezoidal_nest):
        ranking = ranking_polynomial(trapezoidal_nest)
        calls = []
        original = Polynomial.evaluate

        def counting(self, assignment):
            calls.append(dict(assignment))
            return original(self, assignment)

        monkeypatch.setattr(Polynomial, "evaluate", counting)
        first = ranking.total_iterations({"N": 30, "M": 7})
        assert [ranking.total_iterations({"M": 7, "N": 30}) for _ in range(5)] == [first] * 5
        assert len(calls) == 1

    def test_the_memo_is_bounded(self, correlation_nest):
        from repro.core.ranking import _TOTALS_LIMIT

        ranking = ranking_polynomial(correlation_nest)
        for n in range(2, 2 + 3 * _TOTALS_LIMIT):
            assert ranking.total_iterations({"N": n}) == n * (n - 1) // 2
        assert len(ranking._totals) == _TOTALS_LIMIT
        assert ranking.total_iterations({"N": 2}) == 1  # evicted, recomputed exactly

    def test_errors_are_not_memoised(self, correlation_nest):
        ranking = ranking_polynomial(correlation_nest, depth=1)
        for _ in range(2):
            with pytest.raises(ValueError, match="negative"):
                ranking.total_iterations({"N": 0})
            with pytest.raises(KeyError):
                ranking.total_iterations({})
        assert ranking._totals == {}

    def test_memo_stays_out_of_equality_hashing_and_repr(self, correlation_nest):
        warm = ranking_polynomial(correlation_nest)
        cold = ranking_polynomial(correlation_nest)
        warm.total_iterations({"N": 12})
        assert warm._totals and not cold._totals
        assert warm == cold and hash(warm) == hash(cold)
        assert "_totals" not in repr(warm)
