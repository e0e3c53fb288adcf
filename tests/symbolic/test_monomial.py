"""Unit tests for :mod:`repro.symbolic.monomial`."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.symbolic import Monomial


class TestConstruction:
    def test_from_mapping_drops_zero_exponents(self):
        m = Monomial.from_mapping({"i": 2, "j": 0})
        assert m.as_dict() == {"i": 2}

    def test_one_is_empty(self):
        assert Monomial.one().as_dict() == {}
        assert Monomial.one().is_constant()

    def test_variable_default_exponent(self):
        assert Monomial.variable("i").as_dict() == {"i": 1}

    def test_variable_with_exponent(self):
        assert Monomial.variable("i", 3).as_dict() == {"i": 3}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial.from_mapping({"i": -1})

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            Monomial.from_mapping({"i": 1.5})

    def test_direct_construction_validates_order(self):
        with pytest.raises(ValueError):
            Monomial((("j", 1), ("i", 1)))

    def test_direct_construction_rejects_zero_power(self):
        with pytest.raises(ValueError):
            Monomial((("i", 0),))


class TestQueries:
    def test_total_degree(self):
        assert Monomial.from_mapping({"i": 2, "j": 3}).total_degree == 5

    def test_degree_in_present_and_absent(self):
        m = Monomial.from_mapping({"i": 2})
        assert m.degree_in("i") == 2
        assert m.degree_in("j") == 0

    def test_variables(self):
        assert Monomial.from_mapping({"i": 1, "j": 4}).variables() == {"i", "j"}

    def test_is_constant_false_for_nonempty(self):
        assert not Monomial.variable("i").is_constant()


class TestAlgebra:
    def test_multiplication_merges_exponents(self):
        a = Monomial.from_mapping({"i": 1, "j": 2})
        b = Monomial.from_mapping({"j": 1, "k": 1})
        assert (a * b).as_dict() == {"i": 1, "j": 3, "k": 1}

    def test_multiplication_with_one_is_identity(self):
        a = Monomial.from_mapping({"i": 2})
        assert a * Monomial.one() == a

    def test_power(self):
        assert (Monomial.from_mapping({"i": 2, "j": 1}) ** 3).as_dict() == {"i": 6, "j": 3}

    def test_power_zero_gives_one(self):
        assert Monomial.variable("i") ** 0 == Monomial.one()

    def test_power_negative_rejected(self):
        with pytest.raises(ValueError):
            Monomial.variable("i") ** -1

    def test_divides(self):
        a = Monomial.from_mapping({"i": 1})
        b = Monomial.from_mapping({"i": 2, "j": 1})
        assert a.divides(b)
        assert not b.divides(a)

    def test_divide_by(self):
        a = Monomial.from_mapping({"i": 3, "j": 1})
        b = Monomial.from_mapping({"i": 1})
        assert a.divide_by(b).as_dict() == {"i": 2, "j": 1}

    def test_divide_by_non_divisor_raises(self):
        with pytest.raises(ValueError):
            Monomial.variable("i").divide_by(Monomial.variable("j"))

    def test_without_removes_variable(self):
        m = Monomial.from_mapping({"i": 2, "j": 1})
        assert m.without("i").as_dict() == {"j": 1}
        assert m.without("z") == m


class TestEvaluation:
    def test_evaluate_exact(self):
        m = Monomial.from_mapping({"i": 2, "j": 1})
        assert m.evaluate({"i": 3, "j": 5}) == 45

    def test_evaluate_fraction(self):
        m = Monomial.variable("i", 2)
        assert m.evaluate({"i": Fraction(1, 2)}) == Fraction(1, 4)

    def test_evaluate_missing_variable_raises(self):
        with pytest.raises(KeyError):
            Monomial.variable("i").evaluate({})

    def test_str_formats(self):
        assert str(Monomial.one()) == "1"
        assert str(Monomial.from_mapping({"i": 1, "j": 2})) == "i*j^2"


@given(
    exps_a=st.dictionaries(st.sampled_from("ijkNn"), st.integers(min_value=0, max_value=5), max_size=4),
    exps_b=st.dictionaries(st.sampled_from("ijkNn"), st.integers(min_value=0, max_value=5), max_size=4),
)
def test_property_multiplication_matches_evaluation(exps_a, exps_b):
    """(a*b)(x) == a(x) * b(x) on integer points."""
    a = Monomial.from_mapping(exps_a)
    b = Monomial.from_mapping(exps_b)
    point = {v: 3 for v in "ijkNn"}
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


@given(
    exps=st.dictionaries(st.sampled_from("ijk"), st.integers(min_value=0, max_value=4), max_size=3),
    power=st.integers(min_value=0, max_value=4),
)
def test_property_power_matches_repeated_multiplication(exps, power):
    m = Monomial.from_mapping(exps)
    expected = Monomial.one()
    for _ in range(power):
        expected = expected * m
    assert m ** power == expected


_EXPONENTS = st.dictionaries(
    st.sampled_from("ijkNn"), st.integers(min_value=0, max_value=5), max_size=5
)


@given(exps_a=_EXPONENTS, exps_b=_EXPONENTS)
def test_property_merge_product_matches_reference(exps_a, exps_b, symbolic_reference):
    """The sorted-merge product equals the dict-and-sort reference product,
    and its powers stay sorted by variable, unique and positive."""
    a = Monomial.from_mapping(exps_a)
    b = Monomial.from_mapping(exps_b)
    product = a * b
    assert product.powers == symbolic_reference.monomial_product(a.powers, b.powers)
    names = [var for var, _ in product.powers]
    assert names == sorted(set(names))
    assert all(exp > 0 for _, exp in product.powers)
    assert product == Monomial(product.powers)
    assert hash(product) == hash(Monomial.from_mapping(product.as_dict()))
