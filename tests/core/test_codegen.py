"""Tests for the C/OpenMP code generator."""

import pytest

from repro.core import (
    collapse,
    generate_openmp_chunked,
    generate_openmp_collapsed,
)
from repro.core.codegen_c import CodegenError
from repro.ir import Loop, LoopNest


@pytest.fixture
def collapsed_correlation(correlation_nest):
    return collapse(correlation_nest)


@pytest.fixture
def collapsed_figure6(figure6_nest):
    return collapse(figure6_nest)


class TestCCodegen:
    def test_collapsed_c_has_pragma_and_recovery(self, collapsed_correlation):
        source = generate_openmp_collapsed(collapsed_correlation)
        assert "#pragma omp parallel for" in source
        assert "schedule(static)" in source
        assert "csqrt" in source
        assert "creal" in source
        # 64-bit on every ABI: a depth-3 nest at N=2048 overflows a 32-bit pc
        assert "for (long long pc = 1; pc <=" in source
        assert "S(i, j);" in source

    def test_recovery_emits_the_guarded_floor(self, collapsed_correlation):
        """The C recovery mirrors unranking.py: epsilon-padded floor seed,
        clamp, and the exact __int128 bracket correction — not the bare
        floor(creal(...)) that mis-recovers when a root lands just below an
        integer, and not the historical double/rint bracket that was only
        exact up to ~2^45."""
        source = generate_openmp_collapsed(collapsed_correlation)
        assert "+ 1e-09" in source                      # shared FLOOR_EPSILON
        # clamp happens in double: casting an Inf/NaN or out-of-range root
        # to long long would be undefined behaviour
        assert "if (isfinite(repro_root))" in source
        assert "if (repro_root < (double)repro_lo) i = repro_lo;" in source
        # the exact rank and the seed check on the cleared bracket numerator
        assert "const __int128 repro_rank = (__int128)pc *" in source
        assert "<= repro_rank" in source
        # a missed (or non-finite) seed bisects the remaining exact window
        assert "exact __int128 bisection" in source
        assert "while (repro_lo < repro_hi)" in source
        # the float-era bracket comparison is gone entirely
        assert "rint(" not in source
        # the historical buggy form is gone
        assert "= floor(creal(csqrt" not in source

    def test_chunked_recovery_is_guarded_too(self, collapsed_correlation):
        source = generate_openmp_chunked(collapsed_correlation, chunk=64)
        assert "+ 1e-09" in source
        assert "const __int128 repro_rank = (__int128)pc *" in source
        assert "while (repro_lo < repro_hi)" in source

    def test_collapsed_c_mentions_complex_header(self, collapsed_figure6):
        source = generate_openmp_collapsed(collapsed_figure6)
        assert "#include <complex.h>" in source
        # the cubic recovery of Fig. 7 uses cpow for the cube root
        assert "cpow" in source

    def test_chunked_c_uses_firstprivate_flag(self, collapsed_correlation):
        source = generate_openmp_chunked(collapsed_correlation)
        assert "firstprivate(first_iteration)" in source
        assert "if (first_iteration)" in source
        assert "first_iteration = 0;" in source
        # incrementation in the style of Fig. 4
        assert "j++;" in source
        assert "i++;" in source

    def test_chunked_c_with_chunk_size(self, collapsed_correlation):
        source = generate_openmp_chunked(collapsed_correlation, chunk=128)
        assert "#define CHUNK 128" in source
        assert "schedule(static, CHUNK)" in source
        assert "(pc - 1) % CHUNK == 0" in source

    def test_dynamic_schedule_can_be_requested(self, collapsed_correlation):
        source = generate_openmp_collapsed(collapsed_correlation, schedule="dynamic")
        assert "schedule(dynamic)" in source

    def test_ranking_polynomial_documented_in_header(self, collapsed_correlation):
        source = generate_openmp_collapsed(collapsed_correlation)
        assert "r(i, j)" in source

    def test_three_level_incrementation_nests_carries(self, collapsed_figure6):
        source = generate_openmp_chunked(collapsed_figure6)
        assert "k++;" in source
        assert "j++;" in source
        assert "i++;" in source


class TestTranslationUnit:
    """Text-level checks of the complete-TU generator (compile-and-run
    coverage lives in tests/native/)."""

    def test_exports_and_headers(self, collapsed_correlation):
        from repro.core import NATIVE_SYMBOLS, generate_translation_unit

        source = generate_translation_unit(
            collapsed_correlation, body="visits(i, j) += 1.0;", arrays=("visits",)
        )
        for symbol in NATIVE_SYMBOLS:
            assert symbol in source
        assert "#include <complex.h>" in source
        assert "#ifdef _OPENMP" in source
        assert "#define visits(repro_r, repro_c)" in source
        # all index arithmetic is 64-bit
        assert "long" in source and " int pc" not in source

    def test_schedule_picks_recovery_scheme(self, collapsed_correlation):
        from repro.core import generate_translation_unit

        static = generate_translation_unit(collapsed_correlation, schedule="static")
        assert "repro_fresh" in static                  # Fig. 4 once-per-thread
        chunked = generate_translation_unit(collapsed_correlation, schedule="dynamic,64")
        assert "% 64LL == 0" in chunked                 # Section V once-per-chunk
        guided = generate_translation_unit(collapsed_correlation, schedule="guided")
        assert "repro_fresh" not in guided              # Fig. 3 per-iteration

    def test_adaptive_schedule_is_rejected(self, collapsed_correlation):
        from repro.core import generate_translation_unit

        with pytest.raises(CodegenError):
            generate_translation_unit(collapsed_correlation, schedule="adaptive")

    def test_array_name_clashes_are_rejected(self, collapsed_correlation):
        from repro.core import generate_translation_unit

        with pytest.raises(CodegenError):
            generate_translation_unit(collapsed_correlation, arrays=("i",))
        with pytest.raises(CodegenError):
            generate_translation_unit(collapsed_correlation, arrays=("repro_out",))

    def test_c_identifier_shadowing_is_rejected(self, collapsed_correlation):
        """An array macro named after a libm call we emit (or a C keyword)
        would corrupt the generated recovery — refuse it up front instead of
        surfacing a misleading compiler failure."""
        from repro.core import generate_translation_unit

        for name in ("floor", "creal", "isfinite", "double", "I"):
            with pytest.raises(CodegenError, match="shadows"):
                generate_translation_unit(collapsed_correlation, arrays=(name,))

    def test_run_range_is_serial_and_recovers_once(self, collapsed_correlation):
        """The hybrid backend's sub-range entry point: no OpenMP pragma of
        its own, one recovery at first_pc, Fig. 4 incrementation."""
        from repro.core import generate_translation_unit

        source = generate_translation_unit(collapsed_correlation, schedule="guided")
        _, _, run_range = source.partition("long long repro_run_range")
        assert run_range, "repro_run_range missing from the translation unit"
        assert "#pragma omp" not in run_range
        assert "const long long pc = first_pc;" in run_range
        assert "indices incrementation" in run_range
        assert "return last_pc - first_pc + 1;" in run_range

    def test_one_dimensional_array_macro_has_no_stride(self, collapsed_correlation):
        from repro.core import generate_translation_unit

        source = generate_translation_unit(
            collapsed_correlation,
            body="hist(i) += 1.0;",
            arrays=("hist",),
            array_ndims={"hist": 1},
        )
        assert "#define hist(repro_i0) (hist_p[(long long)(repro_i0)])" in source
        assert "hist_st" not in source

    def test_three_dimensional_macro_and_flat_strides_layout(self, collapsed_correlation):
        """A 3-D array consumes two strides slots; a following 2-D array's
        single stride comes after them in the flat table."""
        from repro.core import generate_translation_unit

        source = generate_translation_unit(
            collapsed_correlation,
            body="cube(i, j, 0) += flat(i, j);",
            arrays=("cube", "flat"),
            array_ndims={"cube": 3},
        )
        assert (
            "#define cube(repro_i0, repro_i1, repro_i2) "
            "(cube_p[(long long)(repro_i0) * cube_st0 + "
            "(long long)(repro_i1) * cube_st1 + (long long)(repro_i2)])"
        ) in source
        assert "const long long cube_st0 = repro_strides[0];" in source
        assert "const long long cube_st1 = repro_strides[1];" in source
        assert "const long long flat_st = repro_strides[2];" in source

    def test_two_dimensional_macro_spelling_is_unchanged(self, collapsed_correlation):
        """Back-compat: all-2-D units keep the historical macro and the
        one-stride-per-array ABI (kernel c_bodies rely on it)."""
        from repro.core import generate_translation_unit

        source = generate_translation_unit(
            collapsed_correlation, body="v(i, j) += 1.0;", arrays=("v",)
        )
        assert (
            "#define v(repro_r, repro_c) "
            "(v_p[(long long)(repro_r) * v_st + (long long)(repro_c)])"
        ) in source
        assert "const long long v_st = repro_strides[0];" in source

    def test_bad_array_ndims_are_rejected(self, collapsed_correlation):
        from repro.core import generate_translation_unit

        with pytest.raises(CodegenError, match="at least 1 dimension"):
            generate_translation_unit(
                collapsed_correlation, arrays=("v",), array_ndims={"v": 0}
            )
        with pytest.raises(CodegenError, match="not in the arrays list"):
            generate_translation_unit(
                collapsed_correlation, arrays=("v",), array_ndims={"w": 2}
            )

    def test_array_name_colliding_with_stride_identifiers_is_rejected(
        self, collapsed_correlation
    ):
        from repro.core import generate_translation_unit

        for clash in ("v_st", "v_p", "v_st0"):
            with pytest.raises(CodegenError, match="pointer/stride"):
                generate_translation_unit(collapsed_correlation, arrays=("v", clash))
        # merely *extending* a generated identifier is not a collision
        source = generate_translation_unit(
            collapsed_correlation,
            body="v(i, j) += v_step(i, j);",
            arrays=("v", "v_step"),
        )
        assert "#define v_step(repro_r, repro_c)" in source

    def test_bisection_levels_are_emitted_not_rejected(self):
        """Unlike the paper-figure printers, the TU generator covers levels
        outside the degree-4 closed forms with an emitted exact search."""
        from repro.core import collapse, generate_translation_unit

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
        source = generate_translation_unit(collapse(nest))
        assert "repro_lo < repro_hi" in source
        assert "i_mid" in source
