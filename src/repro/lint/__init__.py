"""Static safety verification for nests, plans, and generated C.

The collapse is only legal when the collapsed loops carry no dependence
(Section IV of the paper), and the polyhedral test in
:mod:`repro.ir.dependences` enforces that — but historically only on the
Python IR: every native kernel executes a hand-written ``c_body`` string
that bypassed the dependence gate, the generated OpenMP translation units
were never checked for private-clause or race errors, and the
``long long``/``__int128`` width choices of the exact-recovery work were
trusted rather than proven.  This subpackage closes those holes statically,
*before* anything runs:

* :mod:`repro.lint.c_body` — parses a kernel's hand-written ``c_body`` into
  :class:`~repro.ir.loopnest.ArrayAccess`\\ es (reusing the
  :mod:`repro.ir.parser` machinery), cross-checks them against the kernel's
  IR statements, and runs the ZIV/GCD/Fourier–Motzkin dependence test on
  the *emitted* footprint;
* :mod:`repro.lint.generated` — lints ``generate_translation_unit`` output:
  proves every scalar written inside the ``#pragma omp parallel`` region is
  private (block-scope declared, listed in a ``private``-family clause, or
  under ``omp single``/``critical``/``atomic``), and that no two distinct
  collapsed iterations statically write the same array cell;
* :mod:`repro.lint.overflow` — bounds trip counts and bracket intermediates
  from the Ehrhart polynomial at the requested sizes and reports an error
  when an emitted ``long long``/``__int128`` width could wrap;
* :mod:`repro.lint.registry` — per-kernel orchestration behind the
  overflow audit of every compiled plan
  (:attr:`repro.runtime.ExecutionPlan.native_module`), the
  ``static_check=`` parameter of :func:`repro.kernels.verify_kernel` and
  the ``python -m repro.lint`` CLI.

Everything returns machine-checkable :class:`~repro.lint.findings.Finding`
records collected in a :class:`~repro.lint.findings.LintReport`; the CLI
writes them as sorted-key ``REPORT_lint.json`` plus a markdown table.
"""

from .findings import Finding, LintReport, SEVERITIES
from .c_body import CBodyAudit, audit_c_body, parse_c_body
from .generated import lint_c_source, lint_generated_c
from .overflow import INT64_MAX, INT128_MAX, audit_overflow
from .registry import lint_all_kernels, lint_kernel

__all__ = [
    "Finding",
    "LintReport",
    "SEVERITIES",
    "CBodyAudit",
    "audit_c_body",
    "parse_c_body",
    "lint_c_source",
    "lint_generated_c",
    "INT64_MAX",
    "INT128_MAX",
    "audit_overflow",
    "lint_all_kernels",
    "lint_kernel",
]
