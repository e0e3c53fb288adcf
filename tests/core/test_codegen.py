"""Tests for the C/OpenMP code generator."""

import re

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

    def test_figure_generators_reject_adaptive(self, collapsed_correlation):
        """The Fig. 3/4 reproductions bake the clause into the pragma, and
        the engine-only ``adaptive`` has no OpenMP spelling."""
        with pytest.raises(CodegenError, match="no OpenMP spelling"):
            generate_openmp_collapsed(collapsed_correlation, schedule="adaptive")
        with pytest.raises(CodegenError, match="no OpenMP spelling"):
            generate_openmp_chunked(collapsed_correlation, schedule="adaptive", chunk=8)

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
        assert NATIVE_SYMBOLS == ("repro_total", "repro_recover_range", "repro_run_chunks")
        for symbol in NATIVE_SYMBOLS:
            assert symbol in source
        # one compiled run: no whole-range or serial-range entry beside it
        assert "int repro_run(" not in source and "repro_run_range" not in source
        assert "#include <complex.h>" in source
        assert "#ifdef _OPENMP" in source
        assert "#define visits(repro_r, repro_c)" in source
        # all index arithmetic is 64-bit
        assert "long" in source and " int pc" not in source

    def test_one_unit_takes_the_schedule_at_run_time(self, collapsed_correlation):
        """No schedule is baked in: a schedule reaches the unit only as the
        chunk list it cut, so the one work-sharing loop claims chunks one
        at a time and nothing reads or sets the OpenMP run-sched-var."""
        import inspect

        from repro.core import generate_translation_unit

        assert "schedule" not in inspect.signature(generate_translation_unit).parameters
        source = generate_translation_unit(collapsed_correlation)
        assert re.findall(r"#pragma omp for[^\n]*", source) == [
            "#pragma omp for schedule(dynamic, 1)"
        ]
        for absent in ("schedule(runtime)", "omp_set_schedule", "omp_get_schedule"):
            assert absent not in source, absent

    def test_one_recovery_rule_in_every_loop(self, collapsed_correlation):
        """Every run is a chunk, so the one walk recovers before its loop, at
        the chunk's first pc, unless the thread's previous chunk ended right
        before it (Fig. 4): no per-pc recovery test, flag or modulo is left
        inside the walk."""
        from repro.core import generate_translation_unit

        source = generate_translation_unit(
            collapsed_correlation, body="visits(i, j) += 1.0;", arrays=("visits",)
        )
        assert source.count("repro_recover(repro_params, first_pc, repro_at);") == 1
        head, _, walk = source.partition("for (long long pc = first_pc; pc <= last_pc; pc++) {")
        assert "if (first_pc != repro_next) {" in head
        walk, _, tail = walk.partition("repro_seconds[repro_k]")
        assert "visits(i, j) += 1.0;" in walk and "repro_recover" not in walk
        assert walk.count("repro_next") == 1 and "repro_next = last_pc + 1;" in walk
        assert walk.index("visits(i, j) += 1.0;") < walk.index("repro_next = last_pc + 1;")
        for absent in ("(pc != repro_next", "__builtin_expect", "repro_fresh", "LL == 0"):
            assert absent not in source, absent

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

    def test_run_chunks_claims_chunks_and_recovers_once_per_chunk(
        self, collapsed_correlation
    ):
        """The unit's one run entry: one OpenMP region whose
        work-shared loop hands out the chunk list one chunk per claim; each
        chunk recovers at its first pc and increments (Fig. 4) and records
        its seconds and thread; its count is its size, which the caller
        holds, so no count slot is written."""
        from repro.core import generate_translation_unit

        source = generate_translation_unit(collapsed_correlation)
        _, _, run_chunks = source.partition("int repro_run_chunks(")
        assert run_chunks, "repro_run_chunks missing from the translation unit"
        assert run_chunks.count("#pragma omp parallel num_threads(repro_max_threads)") == 1
        pragma = run_chunks.index("#pragma omp for schedule(dynamic, 1)")
        loop = run_chunks.index("for (long long repro_k = 0; repro_k < repro_n; repro_k++) {")
        assert pragma < loop
        body = run_chunks[loop:]
        assert "const long long first_pc = repro_bounds[2 * repro_k];" in body
        assert "const long long last_pc = repro_bounds[2 * repro_k + 1];" in body
        recover = body.index("repro_recover(repro_params, first_pc, repro_at);")
        assert recover < body.index("for (long long pc = first_pc; pc <= last_pc; pc++) {")
        assert "indices incrementation" in body
        for slot in ("repro_seconds", "repro_threads"):
            assert f"{slot}[repro_k] = " in body, slot
        assert "repro_counts" not in source

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
