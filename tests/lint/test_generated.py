"""The generated-C linter: privatisation proof and write-write race rejection."""

import re

import pytest

from repro.core import collapse
from repro.core.codegen_c import generate_translation_unit
from repro.ir import Loop, LoopNest
from repro.lint import lint_c_source, lint_generated_c


@pytest.fixture
def triangle_collapsed():
    nest = LoopNest(
        [Loop.make("i", 0, "N - 1"), Loop.make("j", "i + 1", "N")],
        parameters=["N"],
        name="triangle",
    )
    return collapse(nest)


# ---------------------------------------------------------------------- #
# the textual privatisation proof
# ---------------------------------------------------------------------- #
def test_region_local_declarations_are_proven_private():
    source = (
        "void f(void) {\n"
        "  #pragma omp parallel\n"
        "  {\n"
        "    long long mine = 0;\n"
        "    mine += 1;\n"
        "  }\n"
        "}\n"
    )
    report = lint_c_source(source)
    assert report.ok
    assert any(f.rule == "generated/private-proof" for f in report.findings)


def test_undeclared_scalar_write_in_region_is_an_error():
    source = (
        "void f(void) {\n"
        "  long long shared = 0;\n"
        "  #pragma omp parallel\n"
        "  {\n"
        "    shared += 1;\n"
        "  }\n"
        "}\n"
    )
    report = lint_c_source(source)
    assert [f.rule for f in report.errors] == ["generated/unproven-scalar-write"]
    assert "'shared'" in report.errors[0].message


def test_private_clause_proves_the_write():
    source = (
        "void f(void) {\n"
        "  long long shared = 0;\n"
        "  #pragma omp parallel private(shared)\n"
        "  {\n"
        "    shared += 1;\n"
        "  }\n"
        "}\n"
    )
    assert lint_c_source(source).ok


def test_omp_single_exempts_the_write():
    source = (
        "void f(void) {\n"
        "  int used = 1;\n"
        "  #pragma omp parallel\n"
        "  {\n"
        "    #pragma omp single\n"
        "    used = 2;\n"
        "  }\n"
        "}\n"
    )
    assert lint_c_source(source).ok


def test_omp_for_induction_slots_are_disjoint():
    """One thread runs each iteration of a work-shared loop, so a slot
    subscripted by exactly its induction variable is private to it; any
    other subscript stays unproven, the thread id included (no generated
    unit indexes a slot by it, so it earns no exemption)."""
    def region(subscript):
        return (
            "void f(double *out, long long n) {\n"
            "  #pragma omp parallel\n"
            "  {\n"
            "    #pragma omp for schedule(dynamic, 1)\n"
            "    for (long long k = 0; k < n; k++) {\n"
            f"      out[{subscript}] = 1.0;\n"
            "    }\n"
            "  }\n"
            "}\n"
        )

    clean = lint_c_source(region("k"))
    assert clean.ok and not clean.warnings
    for subscript in ("k + 1", "repro_tid"):
        unproven = lint_c_source(region(subscript))
        assert [f.rule for f in unproven.warnings] == [
            "generated/unchecked-subscripted-write"
        ], subscript


def test_writes_outside_any_region_are_unconstrained():
    source = "void f(void) { long long x; x = 1; x += 2; }\n"
    assert lint_c_source(source).ok


# ---------------------------------------------------------------------- #
# real translation units, clean and doctored
# ---------------------------------------------------------------------- #
def test_generated_units_pass_the_privatisation_proof(triangle_collapsed):
    """One unit runs every schedule, so one proof covers them all."""
    report = lint_generated_c(
        triangle_collapsed,
        body="c(i, j) = a(i, j) + 1.0;",
        arrays=("c", "a"),
    )
    assert report.ok, str(report)
    assert any(f.rule == "generated/private-proof" for f in report.findings)
    assert any(f.rule == "generated/write-write-clean" for f in report.findings)


def test_doctored_unit_with_omitted_declaration_is_rejected(triangle_collapsed):
    """Strip a region-local declaration down to a bare assignment: the write
    survives, the privatisation proof of that name is gone, and the linter
    must fail the unit — the seeded private-omission regression."""
    source = generate_translation_unit(
        triangle_collapsed, body="c(i, j) = 1.0;", arrays=("c",)
    )
    assert lint_c_source(source).ok
    # doctor only inside the parallel region: declarations before the pragma
    # are not the region's concern
    head, pragma, tail = source.partition("#pragma omp parallel")
    doctored_tail, count = re.subn(
        r"^(\s*)(?:const )?long long (repro_\w+ = )",
        r"\1\2",
        tail,
        count=1,
        flags=re.MULTILINE,
    )
    assert count == 1, "no region-local declaration found to doctor"
    report = lint_c_source(head + pragma + doctored_tail)
    assert any(f.rule == "generated/unproven-scalar-write" for f in report.errors)


def test_run_chunks_region_is_proven_private(triangle_collapsed):
    """The unit's one region: chunk bounds and iterators are declared per
    chunk, the team size is written under ``omp single`` and the per-chunk
    result slots are indexed by the work-shared chunk index — no error and
    no unchecked write."""
    source = generate_translation_unit(
        triangle_collapsed, body="c(i, j) = 1.0;", arrays=("c",)
    )
    report = lint_c_source(source)
    assert report.ok and not report.warnings, str(report)
    proof = [f for f in report.findings if f.rule == "generated/private-proof"]
    assert "1 parallel region(s)" in proof[0].message
    _, _, chunks_region = source.partition("int repro_run_chunks(")
    head = source[: len(source) - len(chunks_region)]
    undeclared = chunks_region.replace(
        "const long long first_pc = repro_bounds", "first_pc = repro_bounds", 1
    )
    assert undeclared != chunks_region
    errors = lint_c_source(head + undeclared).errors
    assert any("'first_pc'" in f.message for f in errors)
    shared_slot = chunks_region.replace("repro_threads[repro_k] =", "repro_threads[0] =", 1)
    assert shared_slot != chunks_region
    warnings = lint_c_source(head + shared_slot).warnings
    assert [f.rule for f in warnings] == ["generated/unchecked-subscripted-write"]


def test_racy_body_is_rejected_through_the_dependence_system(triangle_collapsed):
    """Every collapsed iteration writes c(0): the write/write self-pair the
    read/write dependence report never tests — the seeded racy-nest
    regression."""
    report = lint_generated_c(
        triangle_collapsed, body="c(0) += a(i, j);", arrays=("c", "a")
    )
    assert any(f.rule == "generated/write-write-conflict" for f in report.errors)


def test_unparseable_body_downgrades_to_a_warning(triangle_collapsed):
    report = lint_generated_c(
        triangle_collapsed,
        body="if (i > j) { c(i, j) = 1.0; }",
        arrays=("c",),
    )
    assert report.ok  # the scalar proof still passes ...
    assert any(  # ... but the footprint could not be audited
        f.rule == "generated/unauditable-body" for f in report.findings
    )
