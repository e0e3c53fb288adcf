"""Lint generated C/OpenMP translation units for privatisation and races.

``generate_translation_unit`` keeps every thread-local of the parallel
region block-scope-declared *inside* the region (the C way to make it
private) and funnels all shared-scalar writes through ``#pragma omp
single``.  That discipline is what makes the region race-free — and until
now it was enforced by nothing but convention.  This linter proves it for
every unit the backend is about to compile:

* **scalar writes**: every scalar assigned inside a ``#pragma omp
  parallel`` region must be block-scope-declared within the region, listed
  in a ``private``/``firstprivate``/``lastprivate``/``reduction`` clause,
  or sit under ``#pragma omp single``/``critical``/``atomic``/``master``.
  Per-iteration slots of a ``#pragma omp for`` loop (subscripted by
  exactly its induction variable, which one thread owns per iteration) are
  recognised as disjoint by construction; any other subscripted write is a
  warning finding, and anything else an error finding.
* **array writes**: no two distinct collapsed iterations may statically
  write the same array cell.  The kernel-body macro writes are checked
  through the dependence system (:func:`repro.ir.dependences
  .write_write_report` on the emitted footprint, write/write self-pairs
  included).

The scalar proof is purely textual over the unit the compiler will see, so
it also rejects hand-doctored sources (the regression fixtures strip a
declaration out of the region and must fail).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set

from ..ir import write_write_report
from ..ir.loopnest import Loop, LoopNest
from ..ir.parser import ParseError
from .c_body import _strip_comments, parse_c_body
from .findings import LintReport

_PARALLEL_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\s+parallel\b")
_EXEMPT_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\s+(?:single|critical|atomic|master)\b")
_FOR_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\s+for\b")
_FOR_INDUCTION_RE = re.compile(r"for\s*\(\s*(?:[A-Za-z_][\w\s]*\s)?([A-Za-z_]\w*)\s*=")
_CLAUSE_RE = re.compile(
    r"(?:first|last)?private\s*\(([^)]*)\)|reduction\s*\(\s*[^:]+:\s*([^)]*)\)"
)
_TYPE_RE = re.compile(
    r"(?:const\s+)?(?:unsigned\s+)?"
    r"(?:double|float|clock_t|size_t|__int128|long\s+long|long|int)\s+"
    r"(?=[A-Za-z_])"
)
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_SCALAR_WRITE_RE = re.compile(r"(?<![\w\])])\b([A-Za-z_]\w*)\s*[-+*/%&|^]?=(?!=)")
_SUBSCRIPT_WRITE_RE = re.compile(r"([A-Za-z_]\w*)\s*\[([^\]]*)\]\s*[-+*/%&|^]?=(?!=)")
_DEREF_WRITE_RE = re.compile(r"\*\s*([A-Za-z_]\w*)\s*[-+*/%&|^]?=(?!=)")
_INCDEC_WRITE_RE = re.compile(
    r"(?:\+\+|--)\s*([A-Za-z_]\w*)|([A-Za-z_]\w*)\s*(?:\+\+|--)"
)


def _clause_private_names(pragma_line: str) -> Set[str]:
    names: Set[str] = set()
    for match in _CLAUSE_RE.finditer(pragma_line):
        listed = match.group(1) or match.group(2) or ""
        names.update(part.strip() for part in listed.split(",") if part.strip())
    return names


def _declared_names(line: str) -> Set[str]:
    """Every scalar a line declares (handles comma-separated declarators)."""
    names: Set[str] = set()
    for match in _TYPE_RE.finditer(line):
        tail = line[match.end():]
        terminator = tail.find(";")
        if terminator >= 0:
            tail = tail[:terminator]
        for declarator in tail.split(","):
            identifier = _IDENT_RE.match(declarator.strip())
            if identifier:
                names.add(identifier.group(0))
    return names


def _scalar_writes(line: str) -> List[str]:
    writes: List[str] = []
    for match in _SCALAR_WRITE_RE.finditer(line):
        writes.append(match.group(1))
    for match in _INCDEC_WRITE_RE.finditer(line):
        writes.append(match.group(1) or match.group(2))
    return writes


def lint_c_source(source: str, subject: str = "translation_unit") -> LintReport:
    """Prove every scalar write inside ``#pragma omp parallel`` is private.

    Pure text analysis over the source the compiler will see.  Reports an
    ``error`` finding per unproven scalar write and one ``info`` roll-up
    per parallel region when everything is proven.
    """
    report = LintReport()
    lines = _strip_comments(source).splitlines()

    depth = 0
    in_region = False
    region_exit_depth = 0
    pending_region = False
    clause_private: Set[str] = set()
    declared: Set[str] = set()
    exempt_pending = False
    exempt_until_depth: Optional[int] = None
    worksharing_pending = False
    induction: Set[str] = set()  # omp-for loop variables of the current region
    proven_writes = 0
    regions = 0

    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        opens = line.count("{")
        closes = line.count("}")

        if stripped.startswith("#"):
            if _PARALLEL_PRAGMA_RE.search(stripped):
                pending_region = True
                clause_private = _clause_private_names(stripped)
            elif in_region and _EXEMPT_PRAGMA_RE.search(stripped):
                exempt_pending = True
            elif in_region and _FOR_PRAGMA_RE.search(stripped):
                worksharing_pending = True
            depth += opens - closes
            continue

        if pending_region and stripped:
            if opens:
                in_region = True
                regions += 1
                region_exit_depth = depth
                declared = set()
                pending_region = False
            else:
                # a combined `parallel for` / braceless region: treat this
                # single statement as the region
                in_region = True
                regions += 1
                region_exit_depth = depth
                declared = set()
                pending_region = False

        if in_region and stripped:
            if worksharing_pending:
                worksharing_pending = False
                loop = _FOR_INDUCTION_RE.match(stripped)
                if loop:
                    induction.add(loop.group(1))
            exempt_here = exempt_until_depth is not None
            if exempt_pending:
                exempt_here = True
                exempt_pending = False
                if opens > closes:
                    exempt_until_depth = depth
            declared |= _declared_names(line)
            if exempt_here:
                proven_writes += len(_scalar_writes(line))
            else:
                for name in _subscripted_unproven(line, induction):
                    report.add(
                        "generated/unchecked-subscripted-write",
                        "warning",
                        subject,
                        f"line {number}: subscripted write to {name!r} is not "
                        "provably per-thread (subscript is not an omp-for "
                        "induction variable)",
                        stripped,
                    )
                for match in _DEREF_WRITE_RE.finditer(line):
                    report.add(
                        "generated/unproven-scalar-write",
                        "error",
                        subject,
                        f"line {number}: write through pointer "
                        f"*{match.group(1)} inside the parallel region is "
                        "not provably private",
                        stripped,
                    )
                for name in _scalar_writes(line):
                    if name in declared or name in clause_private:
                        proven_writes += 1
                        continue
                    report.add(
                        "generated/unproven-scalar-write",
                        "error",
                        subject,
                        f"line {number}: scalar {name!r} is written inside the "
                        "parallel region but is neither declared in the region "
                        "nor in a private-family clause nor under omp "
                        "single/critical/atomic",
                        stripped,
                    )

        depth += opens - closes

        if in_region and depth <= region_exit_depth:
            in_region = False
            clause_private = set()
            induction = set()
            exempt_until_depth = None
        if exempt_until_depth is not None and depth <= exempt_until_depth:
            exempt_until_depth = None

    if report.ok:
        report.add(
            "generated/private-proof",
            "info",
            subject,
            f"every scalar write inside {regions} parallel region(s) is "
            "provably private",
            f"{proven_writes} writes proven",
        )
    return report


def _subscripted_unproven(line: str, induction: Set[str]) -> List[str]:
    names: List[str] = []
    for match in _SUBSCRIPT_WRITE_RE.finditer(line):
        if match.group(2).strip() not in induction:
            names.append(match.group(1))
    return names


def lint_generated_c(
    collapsed,
    *,
    body: Optional[str] = None,
    arrays: Sequence[str] = (),
    array_ndims: Optional[Dict[str, int]] = None,
    source: Optional[str] = None,
    footprint: Optional[LoopNest] = None,
    subject: str = "generated",
) -> LintReport:
    """Lint the exact translation unit the native backend would compile.

    Generates the unit (unless a doctored ``source`` is supplied), runs the
    textual privatisation proof, and — when the kernel body is available —
    checks through the dependence system that no two distinct collapsed
    iterations statically write the same array cell.
    """
    from ..core.codegen_c import generate_translation_unit

    if source is None:
        source = generate_translation_unit(
            collapsed,
            body=body,
            arrays=arrays,
            array_ndims=array_ndims,
        )
    report = lint_c_source(source, subject=subject)

    depth = len(collapsed.iterators)
    if footprint is None and body is not None:
        try:
            inner_loops, statements, _, _ = parse_c_body(body, subject)
            footprint = LoopNest(
                tuple(collapsed.nest.loops[:depth]) + inner_loops,
                statements,
                collapsed.nest.parameters,
                name=f"{subject}_footprint",
            )
        except (ParseError, ValueError) as error:
            report.add(
                "generated/unauditable-body",
                "warning",
                subject,
                "cannot derive the emitted write footprint from the body",
                str(error),
            )
    if footprint is not None:
        conflicts = [
            result
            for result in write_write_report(footprint, depth)
            if result.may_depend
        ]
        seen: Set[str] = set()
        for result in conflicts:
            key = str(result)
            if key in seen:
                continue
            seen.add(key)
            report.add(
                "generated/write-write-conflict",
                "error",
                subject,
                "two distinct collapsed iterations may write the same array "
                "cell",
                key,
            )
        if not conflicts:
            report.add(
                "generated/write-write-clean",
                "info",
                subject,
                "no two distinct collapsed iterations statically write the "
                "same array cell",
            )
    return report
