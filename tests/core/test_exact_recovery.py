"""The exact rank-recovery contract (ISSUE 5).

Index recovery is exact *integer* arithmetic end to end: every bracket
check runs on the denominator-cleared bracket polynomial (big ints in
Python, ``__int128`` in the generated C), so recovery is correct at any
magnitude — the historical ``2**45`` float-trust limit of the batch path is
gone.  These tests pin the symbolic foundations (``integer_form`` /
``evaluate_int`` / integer compile mode), the single-source floor epsilon,
the non-finite-seed routing, and the exactness of the Python paths on
domains far past the float64 mantissa; the compiled-backend halves of the
same contract live in ``tests/native/test_native_backend.py``.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import batch_recovery, clear_batch_cache, clear_collapse_cache, collapse
from repro.ir import Loop, LoopNest
from repro.symbolic import Polynomial
from repro.symbolic.compile import CompileError, compile_polynomial


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_collapse_cache()
    clear_batch_cache()
    yield
    clear_collapse_cache()
    clear_batch_cache()


@pytest.fixture
def simplex3_nest() -> LoopNest:
    """Depth-3 simplex: total = N(N+1)(N+2)/6 passes 2^50 before N = 185000."""
    return LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", 0, "j + 1")],
        parameters=["N"],
        name="simplex3",
    )


# the independent big-int reference unranker is shared across the exact-
# recovery pins (tests/core, tests/native, tests/integration) through the
# session fixture ``exact_reference_recover`` in tests/conftest.py


def probe_pcs(collapsed, parameter_values, straddle=(2**45, 2**50)):
    """Interesting ranks: ends, middles, level boundaries, and the straddle
    points just below/above the historical float-trust thresholds."""
    total = collapsed.total_iterations(parameter_values)
    n = parameter_values["N"]
    pcs = {1, 2, total // 2, total - 1, total}
    for i in (n - 1, n - 2, n // 2):  # first rank of an outer level ± 1
        rank = collapsed.rank_of((i, 0, 0), parameter_values)
        pcs.update({rank - 1, rank, rank + 1})
    for point in straddle:
        if 1 < point <= total:
            pcs.update({point - 1, point, point + 1})
    return sorted(pc for pc in pcs if 1 <= pc <= total)


# ---------------------------------------------------------------------- #
# symbolic foundations
# ---------------------------------------------------------------------- #
class TestIntegerForm:
    def test_clears_denominators_to_the_lcm(self):
        poly = (
            Polynomial.variable("i") ** 3 / 6
            + Polynomial.variable("i") ** 2 / 4
            + Polynomial.variable("i")
        )
        numerator, denominator = poly.integer_form()
        assert denominator == 12  # lcm(6, 4, 1)
        assert numerator.has_integer_coefficients()
        assert numerator / denominator == poly

    def test_integer_polynomial_is_its_own_numerator(self):
        poly = Polynomial.variable("i") * 3 - 7
        numerator, denominator = poly.integer_form()
        assert denominator == 1
        assert numerator == poly
        assert Polynomial.zero().integer_form() == (Polynomial.zero(), 1)

    def test_evaluate_int_is_exact_past_float64(self):
        poly = Polynomial.variable("n") ** 3 + Polynomial.variable("n") - 1
        n = 2**40  # n**3 = 2**120, hopeless for float64
        assert poly.evaluate_int({"n": n}) == n**3 + n - 1
        # NumPy integer scalars are coerced through int() and cannot overflow
        assert poly.evaluate_int({"n": np.int64(2**20)}) == 2**60 + 2**20 - 1

    def test_evaluate_int_rejects_fractional_coefficients(self):
        with pytest.raises(ValueError, match="integer coefficients"):
            (Polynomial.variable("i") / 2).evaluate_int({"i": 4})

    def test_bracket_numerator_matches_bracket_exactly(self, simplex3_nest):
        collapsed = collapse(simplex3_nest)
        for recovery in collapsed.unranking.recoveries:
            num, den = recovery.bracket_numerator, recovery.bracket_denominator
            assert num.has_integer_coefficients() and den >= 1
            point = {"N": 1000, "i": 700, "j": 300, "k": 100}
            assert Fraction(num.evaluate_int(point), den) == recovery.bracket.evaluate(point)


class TestIntegerCompileMode:
    def test_same_function_runs_ints_int64_and_object_arrays(self):
        poly, _ = (Polynomial.variable("i") ** 2 / 2 + Polynomial.variable("i") / 2).integer_form()
        compiled = compile_polynomial(poly, mode="integer")
        assert compiled(7) == 7**2 + 7
        small = np.arange(5, dtype=np.int64)
        np.testing.assert_array_equal(compiled(small), small**2 + small)
        huge = np.array([2**60, 2**61], dtype=object)
        assert list(compiled(huge)) == [2**120 + 2**60, 2**122 + 2**61]

    def test_fractional_coefficients_are_rejected(self):
        with pytest.raises(CompileError, match="integer coefficients"):
            compile_polynomial(Polynomial.variable("i") / 2, mode="integer")

    def test_expressions_reject_integer_mode(self):
        from repro.symbolic.compile import compile_expr
        from repro.symbolic.expression import Var

        with pytest.raises(CompileError, match="unknown compile mode"):
            compile_expr(Var("x"), mode="integer")


class TestExactBoundCeils:
    """Affine bound ceils are emitted as exact integer divisions, not float
    ``ceil`` — the last places a double could have re-entered the recovery."""

    def test_python_ceil_source_is_exact_at_any_magnitude(self):
        import math

        from repro.core.codegen_python import _ceil_source
        from repro.polyhedra import AffineExpr

        expr = AffineExpr.build({"i": Fraction(1, 2)}, Fraction(-1, 3))
        source = _ceil_source(expr)
        assert "math.ceil" not in source and "//" in source
        for i in (-7, -1, 0, 1, 5, 2**60 + 1):  # 2^60+1: float ceil would round
            value = eval(source, {"i": i})
            assert value == math.ceil(Fraction(1, 2) * i - Fraction(1, 3)), i
        # integer bounds stay plain integer arithmetic
        assert "//" not in _ceil_source(AffineExpr.build({"i": 2}, 3))

    def test_c_ceil_bound_uses_int128_division_not_double_ceil(self):
        import inspect

        from repro.core import codegen_c
        from repro.core.codegen_c import _c_ceil_bound
        from repro.polyhedra import AffineExpr

        source = _c_ceil_bound(AffineExpr.build({"i": Fraction(1, 2)}, Fraction(-1, 3)))
        assert "__int128" in source and "ceil(" not in source
        # and no emitter in the module falls back to a double ceil anywhere
        assert "ceil((double)" not in inspect.getsource(codegen_c)


# ---------------------------------------------------------------------- #
# one floor epsilon, one source of truth
# ---------------------------------------------------------------------- #
class TestFloorEpsilonSingleSource:
    def test_all_floor_sites_import_the_shared_constant(self):
        from repro.core import batch, codegen_c, codegen_python, unranking

        assert batch.FLOOR_EPSILON is unranking.FLOOR_EPSILON
        assert codegen_python.FLOOR_EPSILON is unranking.FLOOR_EPSILON
        assert codegen_c.FLOOR_EPSILON is unranking.FLOOR_EPSILON

    def test_duplicate_definitions_are_gone(self):
        from repro.core import batch, unranking

        assert not hasattr(batch, "_FLOOR_EPSILON")
        assert not hasattr(batch, "_TRUST_LIMIT")
        assert not hasattr(unranking, "_FLOOR_EPSILON")

    def test_generated_sources_interpolate_the_shared_value(self, simplex3_nest):
        from repro.core import generate_python_source, generate_translation_unit, unranking

        collapsed = collapse(simplex3_nest)
        spelled = repr(unranking.FLOOR_EPSILON)
        assert spelled in generate_python_source(collapsed)
        assert spelled in generate_translation_unit(collapsed)

    def test_no_hardcoded_epsilon_literal_in_the_generators(self):
        import inspect

        from repro.core import codegen_c, codegen_python

        for module in (codegen_c, codegen_python):
            assert "1e-9" not in inspect.getsource(module), module.__name__


# ---------------------------------------------------------------------- #
# exactness past every float-trust threshold (Python + engine substrate)
# ---------------------------------------------------------------------- #
class TestExactRecoveryHugeMagnitudes:
    N = 400000  # total = 10 666 746 666 800 000 ≈ 2^53.2 > 2^50

    def test_batch_and_scalar_match_an_independent_reference(
        self, simplex3_nest, exact_reference_recover
    ):
        collapsed = collapse(simplex3_nest)
        values = {"N": self.N}
        total = collapsed.total_iterations(values)
        assert total > 2**50
        pcs = probe_pcs(collapsed, values)
        batch = batch_recovery(collapsed).recover_pcs(np.array(pcs, dtype=np.int64), values)
        for pc, row in zip(pcs, batch.tolist()):
            expected = exact_reference_recover(collapsed, pc, values)
            assert tuple(row) == expected, pc
            assert collapsed.recover_indices(pc, values) == expected, pc

    def test_round_trip_rank_of_recover_at_huge_ranks(self, simplex3_nest):
        collapsed = collapse(simplex3_nest)
        values = {"N": self.N}
        for pc in probe_pcs(collapsed, values):
            assert collapsed.rank_of(collapsed.recover_indices(pc, values), values) == pc

    def test_generated_python_is_exact_at_huge_ranks(
        self, simplex3_nest, exact_reference_recover
    ):
        from repro.core import compile_collapsed_loop

        collapsed = collapse(simplex3_nest)
        values = {"N": self.N}
        run = compile_collapsed_loop(collapsed)
        total = collapsed.total_iterations(values)
        for first in (1, 2**45 - 2, 2**50 - 2, total - 3):
            visited = []
            run(lambda *idx: visited.append(idx), N=self.N, first_pc=first, last_pc=first + 3)
            assert visited == [
                exact_reference_recover(collapsed, pc, values) for pc in range(first, first + 4)
            ]

    def test_beyond_int64_bracket_bound_switches_to_big_ints(
        self, simplex3_nest, exact_reference_recover
    ):
        """A domain whose cleared brackets cannot fit int64 must still be
        exact: the bracket pass detects the a-priori bound and runs on
        big-int object arrays.  N = 3 000 000 keeps every pc inside int64
        but puts the cleared bracket terms (and pc * den) past 2**63."""
        from repro.core import BatchStats

        collapsed = collapse(simplex3_nest)
        values = {"N": 3_000_000}
        total = collapsed.total_iterations(values)
        assert total < 2**63 and total * 6 > 2**63
        pcs = [1, total // 3, total - 1, total]
        stats = BatchStats()
        recovered = batch_recovery(collapsed).recover_pcs(
            np.array(pcs, dtype=np.int64), values, stats
        )
        for pc, row in zip(pcs, recovered.tolist()):
            assert tuple(row) == exact_reference_recover(collapsed, pc, values), pc
        # seed certification must still work on the big-int carrier: an
        # object-dtype `ok` mask once made *every* element a suspect
        assert stats.exact_fixes < stats.iterations * collapsed.depth

    def test_trust_limit_and_scalar_fallback_are_gone(self):
        import inspect

        from repro.core import batch

        source = inspect.getsource(batch)
        assert "_TRUST_LIMIT" not in source
        assert "rint" not in source          # no float bracket comparisons left
        import re

        # no scalar re-recovery fallback (the old `self._exact` unranker)
        assert re.search(r"self\._exact\b(?!_bisect)", source) is None
        assert not hasattr(batch.BatchRecovery, "_vector_bisect")


class TestNonFiniteSeedsRouteToExactPath:
    def test_inf_and_nan_roots_recover_exactly(self, correlation_nest, exact_reference_recover):
        """A non-finite closed-form seed (degenerate branch / overflow) must
        route straight to the exact search — the historical code floored
        ``where(finite, raw, 0.0)``, which maps inf/nan to bracket 0 and
        could pass the lower-bound check."""
        import dataclasses

        from repro.core.batch import BatchRecovery, BatchStats

        collapsed = collapse(correlation_nest)
        values = {"N": 30}
        total = collapsed.total_iterations(values)
        recoverer = BatchRecovery(collapsed)

        class _BrokenRoot:
            def __init__(self, inner):
                self.inner = inner

            def evaluate(self, assignment):
                raw = np.asarray(self.inner.evaluate(assignment))
                broken = raw.astype(complex).copy()
                broken[0::3] = complex(np.inf)
                broken[1::3] = complex(np.nan)
                return broken

        recoverer._plans[0] = dataclasses.replace(
            recoverer._plans[0], root=_BrokenRoot(recoverer._plans[0].root)
        )
        stats = BatchStats()
        recovered = recoverer.recover_pcs(np.arange(1, total + 1), values, stats)
        expected = np.array(
            [exact_reference_recover(collapsed, pc, values) for pc in range(1, total + 1)]
        )
        np.testing.assert_array_equal(recovered, expected)
        # every poisoned element was corrected through the exact path
        assert stats.exact_fixes >= (total + 1) // 3


# ---------------------------------------------------------------------- #
# the four-backend contract is reachable through verify_kernel
# ---------------------------------------------------------------------- #
class TestVerifyKernelBackends:
    def test_engine_backend_is_accepted(self):
        from repro.kernels import get_kernel, verify_kernel

        assert verify_kernel(get_kernel("utma"), {"N": 16}, backend="engine")

    def test_unknown_backend_error_names_all_four(self):
        from repro.kernels import get_kernel, verify_kernel

        with pytest.raises(ValueError, match="python.*engine.*native.*hybrid"):
            verify_kernel(get_kernel("utma"), {"N": 8}, backend="fortran")
