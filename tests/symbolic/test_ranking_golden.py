"""Golden ranking arithmetic: the integer-numerator Polynomial against the Fraction reference.

The symbolic layer stores each polynomial as integer numerators over one
denominator and sums every range with shared power differences; the
reference in ``tests/conftest.py`` is the term-by-term ``Fraction``
arithmetic it replaced.  On every registered kernel, both sweep nests at
three extents and the paper's cubic and quartic nests, the ranking
polynomial, the total, every level's partial rank and cleared bracket, the
cost model's ``work_below`` and every level's selected root must agree.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.sweep import transformed_scenarios
from repro.core import collapse
from repro.core.ranking import ranking_polynomial
from repro.core.unranking import _SampleDomains, _default_sample_parameters, build_unranking
from repro.ir import Loop, LoopNest, iteration_count
from repro.kernels import all_kernels
from repro.openmp.costmodel import CostModel
from repro.polyhedra.lexmin import parametric_lexmin
from repro.symbolic import Monomial, Polynomial, UnivariatePolynomial
from repro.symbolic.solve import SolveError, solve_univariate_symbolic
from repro.symbolic.summation import sum_over_range


def _cases():
    cases = [
        pytest.param(("kernel", kernel.name, kernel.collapse_depth), id=kernel.name)
        for kernel in all_kernels()
    ]
    for extent in (8, 16, 48):
        cases += [
            pytest.param(("sweep", extent, scenario.name), id=f"{scenario.name}-{extent}")
            for scenario in transformed_scenarios(extent)
        ]
    cases += [
        pytest.param(("fixture", name, None), id=name) for name in ("figure6_nest", "simplex4_nest")
    ]
    return cases


def _nest_and_depth(case, request):
    kind, key, depth = case
    if kind == "kernel":
        return next(k.nest for k in all_kernels() if k.name == key), depth
    if kind == "sweep":
        scenario = next(s for s in transformed_scenarios(key) if s.name == depth)
        return scenario.nest, 2
    nest = request.getfixturevalue(key)
    return nest, nest.depth


def _reference_partial_rank(ref, nest, depth, rank, level):
    minima = parametric_lexmin(nest.bounds()[:depth], from_level=level)
    return ref.substitute(rank, {name: ref.affine(expr) for name, expr in minima.items()})


@pytest.mark.parametrize("case", _cases())
def test_ranking_and_total_match_reference(case, request, symbolic_reference):
    ref = symbolic_reference
    nest, depth = _nest_and_depth(case, request)
    ranking = ranking_polynomial(nest, depth)
    rank, total = ref.ranking(nest.bounds()[:depth])
    assert ref.of(ranking.polynomial) == rank
    assert ref.of(ranking.total) == total


@pytest.mark.parametrize("case", _cases())
def test_partial_ranks_and_brackets_match_reference(case, request, symbolic_reference):
    ref = symbolic_reference
    nest, depth = _nest_and_depth(case, request)
    collapsed = collapse(nest, depth)
    rank, _ = ref.ranking(nest.bounds()[:depth])
    for recovery in collapsed.unranking.recoveries:
        level = recovery.level + 1
        expected = _reference_partial_rank(ref, nest, depth, rank, level)
        assert ref.of(collapsed.ranking.partial_rank_polynomial(level)) == expected
        assert ref.of(recovery.bracket) == expected
        numerator, denominator = ref.integer_form(expected)
        assert ref.of(recovery.bracket_numerator) == numerator
        assert recovery.bracket_denominator == denominator
        cleared, den = recovery.bracket.integer_form()
        assert (ref.of(cleared), den) == (numerator, denominator)


@pytest.mark.parametrize("case", _cases())
def test_work_below_matches_reference(case, request, symbolic_reference):
    ref = symbolic_reference
    nest, _ = _nest_and_depth(case, request)
    model = CostModel(nest)
    bounds = nest.bounds()
    for level in range(nest.depth + 1):
        assert ref.of(model.work_below(level)) == ref.nested_count(bounds[level:])


@pytest.mark.parametrize("case", _cases())
def test_selected_roots_match_reference_evaluation(case, request, symbolic_reference):
    """Each level keeps the root the per-visit ``Const`` conversion selects."""
    ref = symbolic_reference
    nest, depth = _nest_and_depth(case, request)
    collapsed = collapse(nest, depth)
    sample = _default_sample_parameters(_SampleDomains(collapsed.ranking))
    iterations = _SampleDomains(collapsed.ranking).tuples(sample)
    rank, _ = ref.ranking(nest.bounds()[:depth])
    pc_name = collapsed.pc_name
    for recovery in collapsed.unranking.recoveries:
        bracket = _reference_partial_rank(ref, nest, depth, rank, recovery.level + 1)
        equation = ref.sub(bracket, ref.variable(pc_name))
        shipped = Polynomial({Monomial(powers): c for powers, c in equation.items()})
        univariate = UnivariatePolynomial.from_polynomial(shipped, recovery.iterator)
        expected = None
        if 1 <= univariate.degree <= 4:
            try:
                roots = solve_univariate_symbolic(univariate)
            except SolveError:
                roots = []
            expected = ref.select_root(
                roots, recovery.level, sample, collapsed.iterators, iterations, pc_name
            )
        assert recovery.expression == expected
        assert (recovery.method == "bisection") == (expected is None)


def test_golden_cases_cover_every_solver_degree(request):
    """The pinned nests reach linear, quadratic, cubic and quartic levels."""
    degrees = set()
    for case in _cases():
        nest, depth = _nest_and_depth(case.values[0], request)
        degrees.update(r.degree for r in collapse(nest, depth).unranking.recoveries)
    assert {1, 2, 3, 4} <= degrees


# ---------------------------------------------------------------------- #
# random nests
# ---------------------------------------------------------------------- #
_ITERATORS = ("i", "j", "k", "l")


@st.composite
def _affine_nests(draw):
    """Depth 2-4 over ``N``: ``lower = c + sum a*outer`` with ``c, a`` in
    {0, 1}, ``upper = lower + w + sum b*outer + p*N`` with ``w`` in {1, 2}
    and ``b, p`` in {0, 1}.  Every index is non-negative, so every range is
    non-empty for ``N >= 0`` (the model's non-degeneracy condition)."""
    depth = draw(st.integers(2, 4))
    bit = st.integers(0, 1)
    loops = []
    for level in range(depth):
        outer = _ITERATORS[:level]
        lower = " + ".join([str(draw(bit))] + [f"{draw(bit)}*{v}" for v in outer])
        width = " + ".join(
            [str(draw(st.integers(1, 2)))]
            + [f"{draw(bit)}*{v}" for v in outer]
            + [f"{1 if level == 0 else draw(bit)}*N"]
        )
        loops.append(Loop.make(_ITERATORS[level], lower, f"{lower} + {width}"))
    return LoopNest(loops, parameters=["N"], name="random")


@settings(max_examples=40, deadline=None)
@given(nest=_affine_nests())
def test_property_random_nest_ranking_matches_reference(nest, symbolic_reference):
    assume(iteration_count(nest, {"N": 7}) <= 20_000)
    ranking = ranking_polynomial(nest)
    rank, total = symbolic_reference.ranking(nest.bounds())
    assert symbolic_reference.of(ranking.polynomial) == rank
    assert symbolic_reference.of(ranking.total) == total
    unranking = build_unranking(ranking, sample_parameters={"N": 2})
    for values in ({"N": 1}, {"N": 3}):
        assert ranking.validate(values)
        assert unranking.validate(values)


_VARIABLES = ("a", "b", "c")


@st.composite
def _reference_polynomials(draw, variables=_VARIABLES):
    """Up to four terms over ``variables``, exponents 0-2, coefficients
    ``p/q`` with ``|p| <= 3`` and ``q <= 3``, as a reference dict."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exponents = {v: draw(st.integers(0, 2)) for v in variables}
        powers = tuple(sorted((v, e) for v, e in exponents.items() if e))
        terms[powers] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return {powers: c for powers, c in terms.items() if c}


def _shipped(poly):
    return Polynomial({Monomial(powers): c for powers, c in poly.items()})


@settings(max_examples=150, deadline=None)
@given(
    p=_reference_polynomials(),
    q=_reference_polynomials(),
    a=_reference_polynomials(("b", "c")),
    c=_reference_polynomials(("a", "b")),
)
def test_property_arithmetic_matches_reference(p, q, a, c, symbolic_reference):
    """Sums, products, substitutions (simultaneous, with rational
    substitutes) and range sums on rational coefficients."""
    ref = symbolic_reference
    assert ref.of(_shipped(p) + _shipped(q)) == ref.add(p, q)
    assert ref.of(_shipped(p) - _shipped(q)) == ref.sub(p, q)
    assert ref.of(_shipped(p) * _shipped(q)) == ref.mul(p, q)
    substituted = _shipped(p).substitute({"a": _shipped(a), "c": _shipped(c)})
    assert ref.of(substituted) == ref.substitute(p, {"a": a, "c": c})
    upper = _shipped(a) + _shipped(c).substitute({"a": 0})
    summed = sum_over_range(_shipped(p), "a", _shipped(a), upper)
    expected = ref.sum_over_range(p, "a", a, ref.add(a, ref.substitute(c, {"a": {}})))
    assert ref.of(summed) == expected
