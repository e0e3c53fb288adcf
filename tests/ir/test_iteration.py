"""Tests for iteration enumeration and the odometer incrementation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import Loop, LoopNest, Odometer, enumerate_iterations, iteration_count


def correlation_nest():
    return LoopNest([Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")], parameters=["N"])


def figure6_nest():
    return LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", 0, "i + 1"), Loop.make("k", "j", "i + 1")],
        parameters=["N"],
    )


def brute_force_correlation(n):
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n)]


def brute_force_figure6(n):
    return [(i, j, k) for i in range(n - 1) for j in range(i + 1) for k in range(j, i + 1)]


class TestEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_correlation_order_matches_brute_force(self, n):
        assert list(enumerate_iterations(correlation_nest(), {"N": n})) == brute_force_correlation(n)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_figure6_order_matches_brute_force(self, n):
        assert list(enumerate_iterations(figure6_nest(), {"N": n})) == brute_force_figure6(n)

    def test_partial_depth_enumeration(self):
        outer_only = list(enumerate_iterations(correlation_nest(), {"N": 5}, depth=1))
        assert outer_only == [(0,), (1,), (2,), (3,)]

    def test_empty_domain(self):
        assert list(enumerate_iterations(correlation_nest(), {"N": 1})) == []

    def test_iteration_count(self):
        assert iteration_count(correlation_nest(), {"N": 10}) == 45
        assert iteration_count(figure6_nest(), {"N": 7}) == (7 ** 3 - 7) // 6

    def test_nest_with_empty_middle_rows(self):
        """Rows whose inner loop is empty are skipped without being yielded."""
        nest = LoopNest(
            [Loop.make("i", 0, 6), Loop.make("j", "2*i", 7)],
            parameters=[],
        )
        expected = [(i, j) for i in range(6) for j in range(2 * i, 7)]
        assert list(enumerate_iterations(nest, {})) == expected


class TestOdometer:
    def test_first_iteration(self):
        odometer = Odometer(correlation_nest(), {"N": 6})
        assert odometer.first() == (0, 1)

    def test_first_of_empty_domain_is_none(self):
        odometer = Odometer(correlation_nest(), {"N": 1})
        assert odometer.first() is None

    def test_increment_within_row(self):
        odometer = Odometer(correlation_nest(), {"N": 6})
        assert odometer.increment((0, 1)) == (0, 2)

    def test_increment_carries_to_next_row(self):
        odometer = Odometer(correlation_nest(), {"N": 6})
        assert odometer.increment((0, 5)) == (1, 2)

    def test_increment_at_last_iteration_returns_none(self):
        odometer = Odometer(correlation_nest(), {"N": 6})
        assert odometer.increment((4, 5)) is None

    def test_increment_matches_figure4_code(self):
        """The odometer reproduces `j++; if (j>=N) { i++; j=i+1; }` exactly."""
        n = 8
        odometer = Odometer(correlation_nest(), {"N": n})
        i, j = 0, 1
        current = (0, 1)
        while True:
            j += 1
            if j >= n:
                i += 1
                j = i + 1
            expected = (i, j) if i < n - 1 else None
            current = odometer.increment(current)
            assert current == expected
            if current is None:
                break

    def test_depth_restricted_odometer(self):
        odometer = Odometer(figure6_nest(), {"N": 6}, depth=2)
        assert odometer.first() == (0, 0)
        assert odometer.increment((0, 0)) == (1, 0)
        assert odometer.increment((1, 1)) == (2, 0)

    def test_advance_steps(self):
        odometer = Odometer(correlation_nest(), {"N": 6})
        walked = odometer.first()
        for _ in range(4):
            walked = odometer.increment(walked)
        assert odometer.advance((0, 1), 4) == walked

    def test_advance_past_end_returns_none(self):
        odometer = Odometer(correlation_nest(), {"N": 3})
        assert odometer.advance((0, 1), 10) is None

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            Odometer(correlation_nest(), {"N": 5}, depth=3)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError):
            Odometer(correlation_nest(), {})

    def test_wrong_arity_increment_rejected(self):
        odometer = Odometer(correlation_nest(), {"N": 5})
        with pytest.raises(ValueError):
            odometer.increment((1, 2, 3))

    def test_bounds_helpers(self):
        odometer = Odometer(correlation_nest(), {"N": 6})
        assert odometer.lower_bound(1, (2,)) == 3
        assert odometer.upper_bound(1, (2,)) == 6


class TestOdometerAgainstEnumeration:
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_walking_the_odometer_visits_every_iteration_in_order(self, n):
        nest = figure6_nest()
        odometer = Odometer(nest, {"N": n})
        walked = []
        current = odometer.first()
        while current is not None:
            walked.append(current)
            current = odometer.increment(current)
        assert walked == brute_force_figure6(n)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    skew=st.integers(min_value=0, max_value=2),
)
def test_property_odometer_walk_equals_nested_loops(n, skew):
    """For skewed trapezoidal nests the odometer walk equals the Python loops."""
    nest = LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", f"{skew}*i", f"N + {skew}*i")],
        parameters=["N"],
    )
    expected = [(i, j) for i in range(n) for j in range(skew * i, n + skew * i)]
    assert list(enumerate_iterations(nest, {"N": n})) == expected


# ---------------------------------------------------------------------- #
# rational bounds: integer ceil-by-floor-division against Fraction ceil
# ---------------------------------------------------------------------- #
def _fraction_enumeration(nest, values):
    """Every index tuple, each bound evaluated as a ``Fraction`` and ceiled."""
    import math

    def walk(level, environment, prefix):
        if level == nest.depth:
            yield tuple(prefix)
            return
        loop = nest.loops[level]
        low = math.ceil(loop.lower.evaluate(environment))
        high = math.ceil(loop.upper.evaluate(environment))
        for value in range(low, high):
            environment[loop.iterator] = value
            yield from walk(level + 1, environment, prefix + [value])
        environment.pop(loop.iterator, None)

    return list(walk(0, dict(values), []))


def _odometer_walk(nest, values):
    odometer = Odometer(nest, values)
    walked = []
    current = odometer.first()
    while current is not None:
        walked.append(current)
        current = odometer.increment(current)
    return walked


RATIONAL_NESTS = {
    # j < (i + 1) / 2
    "half_upper": LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "1/2*i + 1/2")], parameters=["N"]
    ),
    # j >= (1 - i) / 3 with i < 0 too: negative numerators on both sides of zero
    "third_lower_negative": LoopNest(
        [Loop.make("i", "-N", "N"), Loop.make("j", "1/3 - 1/3*i", "N")], parameters=["N"]
    ),
    # rational bounds on every level, parameter coefficients included
    "three_levels": LoopNest(
        [
            Loop.make("i", "-1/2*N", "1/2*N + 1/3"),
            Loop.make("j", "-2/3*i - 1", "1/2*N - 1/4*i"),
            Loop.make("k", "1/2*j - 1/2*i", "3/4*N - 1/3*j + 1/2"),
        ],
        parameters=["N"],
    ),
}


class TestRationalBounds:
    @pytest.mark.parametrize("name", sorted(RATIONAL_NESTS))
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 11])
    def test_enumeration_matches_fraction_ceil(self, name, n):
        nest = RATIONAL_NESTS[name]
        expected = _fraction_enumeration(nest, {"N": n})
        assert list(enumerate_iterations(nest, {"N": n})) == expected
        assert _odometer_walk(nest, {"N": n}) == expected

    def test_negative_numerators_are_exercised(self):
        """The lower bound (1 - i)/3 is -2/3 at i = 3 and -1 at i = 4: the
        first j is 0 and -1, where a truncating division would give 1."""
        iterations = list(enumerate_iterations(RATIONAL_NESTS["third_lower_negative"], {"N": 5}))
        first_j = {i: j for i, j in reversed(iterations)}
        assert (first_j[3], first_j[4]) == (0, -1)


_FRACTION = st.builds(
    lambda numerator, denominator: f"{numerator}/{denominator}".replace("-", "- "),
    st.integers(-5, 5),
    st.integers(1, 4),
)


@settings(max_examples=60, deadline=None)
@given(
    lower=st.tuples(_FRACTION, _FRACTION, _FRACTION),
    upper=st.tuples(_FRACTION, _FRACTION, _FRACTION),
    n=st.integers(min_value=0, max_value=6),
)
def test_property_rational_bounds_match_fraction_ceil(lower, upper, n):
    """Random rational affine bounds ``a*i + b*N + c`` on the inner loop."""

    def bound(parts):
        a, b, c = parts
        return f"{a}*i + {b}*N + {c}".replace("+ -", "-")

    loops = [Loop.make("i", "-N", "N"), Loop.make("j", bound(lower), bound(upper))]
    nest = LoopNest(loops, parameters=["N"])
    expected = _fraction_enumeration(nest, {"N": n})
    assert list(enumerate_iterations(nest, {"N": n})) == expected
    assert _odometer_walk(nest, {"N": n}) == expected
