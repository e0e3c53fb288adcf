"""Golden dependence verdicts: the integer-row test against the Fraction reference.

The shipped dependence test eliminates denominator-cleared integer rows;
the reference in ``tests/conftest.py`` builds the same systems from renamed
``Constraint``s and eliminates them in ``Fraction`` arithmetic.  Every
verdict and every reason string must agree, on every registered kernel at
every depth, on every sweep nest with statements and on a few hand-made
nests with rational subscripts and bounds.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.sweep import default_scenarios
from repro.ir import ArrayAccess, Loop, LoopNest, Statement, dependence_report, write_write_report
from repro.kernels import all_kernels
from repro.polyhedra import AffineExpr, Constraint
from repro.polyhedra.fourier_motzkin import is_rationally_empty


def _handmade_nests():
    halves = LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", "1/2*i", "N + 1/3")],
        [
            Statement(
                "halves",
                (
                    ArrayAccess.write("a", "2*i - j"),
                    ArrayAccess.read("a", "i + 1/2*j"),
                    ArrayAccess.write("b", "i", "1/2*j + 1/2"),
                    ArrayAccess.read("b", "j", "i"),
                ),
            )
        ],
        ("N",),
    )
    shared_symbol = LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", "i", "M"), Loop.make("k", 0, "j + 1")],
        [
            Statement(
                "update",
                (
                    ArrayAccess.write("c", "i", "j"),
                    ArrayAccess.read("c", "i", "K"),
                    ArrayAccess.write("d", "k"),
                    ArrayAccess.read("d", "j - k + 1"),
                ),
            ),
            Statement(
                "copy", (ArrayAccess.write("e", "i + j"), ArrayAccess.read("e", "i + j - 1"))
            ),
        ],
        ("N", "M", "K"),
    )
    return [("halves", halves), ("shared_symbol", shared_symbol)]


def _cases():
    nests = [(kernel.name, kernel.nest) for kernel in all_kernels()]
    nests += [
        (scenario.name, scenario.nest)
        for scenario in default_scenarios(16)
        if not scenario.is_kernel and scenario.nest.statements
    ]
    nests += _handmade_nests()
    return [
        pytest.param(nest, depth, id=f"{name}-depth{depth}")
        for name, nest in nests
        for depth in range(1, nest.depth + 1)
    ]


def _rows(results):
    return [(r.source, r.sink, r.may_depend, r.reason) for r in results]


@pytest.mark.parametrize("nest, depth", _cases())
def test_reports_match_fraction_reference(nest, depth, reference_dependence_reports):
    dependence, write_write = reference_dependence_reports(nest, depth)
    assert _rows(dependence_report(nest, depth)) == dependence
    assert _rows(write_write_report(nest, depth)) == write_write


def test_golden_cases_cover_both_verdicts(reference_dependence_reports):
    """The golden nests exercise feasible and empty systems alike."""
    verdicts = set()
    for case in _cases():
        nest, depth = case.values
        for rows in reference_dependence_reports(nest, depth):
            verdicts.update((row[2], row[3].split(" at ")[0]) for row in rows)
    assert (True, "dependence system feasible") in verdicts
    assert (False, "dependence system empty") in verdicts


_NAMES = ("x0", "x1", "x2", "x3", "x4", "x5")


@st.composite
def _systems(draw):
    """2-6 variables and the parameter ``N``; integer coefficients in
    [-3, 3], about half of them zero, fractional constants, some
    equalities; at most eight inequalities once each equality is split."""
    variables = list(_NAMES[: draw(st.integers(2, 6))])
    coefficient = st.one_of(st.just(0), st.integers(-3, 3))
    constraints = []
    inequalities = draw(st.integers(1, 8))
    while inequalities > 0:
        coefficients = {name: draw(coefficient) for name in variables + ["N"]}
        constant = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        is_equality = inequalities >= 2 and draw(st.booleans())
        constraints.append(Constraint(AffineExpr.build(coefficients, constant), is_equality))
        inequalities -= 2 if is_equality else 1
    return constraints, variables


@settings(max_examples=200, deadline=None)
@given(system=_systems())
def test_property_emptiness_matches_fraction_reference(system, fraction_is_rationally_empty):
    constraints, variables = system
    expected = fraction_is_rationally_empty(constraints, variables, max_rows=5000)
    assume(expected is not None)
    assert is_rationally_empty(constraints, variables) == expected
