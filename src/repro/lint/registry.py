"""Per-kernel and per-plan lint orchestration.

:func:`lint_kernel` runs every applicable audit over one registered kernel:
the dependence-gate registration check (kernels registered with
``check_dependences=False`` must justify it), an independent IR-level
dependence verdict, the C-body footprint audit, the static overflow audit
at the kernel's default sizes, and the generated-C lint of the kernel's one
translation unit.  :func:`lint_all_kernels` maps it over the registry — the engine
behind ``python -m repro.lint``.

:func:`static_check_plan` is the same machinery scoped to one plan — its
overflow audit is what a plan runs before its compiled unit
(:attr:`~repro.runtime.plan.ExecutionPlan.native_module`) is built, and
``full=True`` is the whole audit, one call away for any plan.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from ..ir import dependence_report
from ..ir.loopnest import LoopNest, Statement
from .c_body import audit_c_body
from .findings import LintReport
from .generated import lint_generated_c
from .overflow import audit_overflow

def _ir_dependence_findings(
    report: LintReport, nest: LoopNest, depth: int, subject: str, gate_on: bool
) -> None:
    """Re-derive the IR-level dependence verdict independently of collapse."""
    if not any(statement.accesses for statement in nest.statements):
        return
    conflicts = [r for r in dependence_report(nest, depth) if r.may_depend]
    for result in conflicts:
        report.add(
            "registry/ir-dependence",
            "error" if gate_on else "warning",
            subject,
            "the IR statements may carry a dependence on a collapsed loop",
            str(result),
        )
    if not conflicts:
        report.add(
            "registry/ir-independent",
            "info",
            subject,
            f"the IR statements carry no dependence on the {depth} collapsed loops",
        )


def lint_kernel(
    kernel,
    parameter_values: Optional[Mapping[str, int]] = None,
) -> LintReport:
    """Every static audit that applies to one registered kernel."""
    report = LintReport()
    subject = kernel.name
    depth = kernel.collapse_depth

    # --- dependence-gate registration audit ------------------------------ #
    if not kernel.check_dependences:
        if kernel.is_executable:
            report.add(
                "registry/dependence-gate-off",
                "error",
                subject,
                "an executable kernel is registered with check_dependences="
                "False — nothing proves its collapse is legal",
                "re-enable the gate or split the kernel into a simulation-only "
                "registration",
            )
        else:
            report.add(
                "registry/dependence-gate-off",
                "warning",
                subject,
                "registered with check_dependences=False (simulation-only "
                "kernel; see the justification at its registration site)",
                "its statements declare no accesses, so the IR gate would "
                "prove nothing anyway",
            )
    _ir_dependence_findings(
        report, kernel.nest, depth, subject, gate_on=kernel.check_dependences
    )

    # --- C-body footprint audit ------------------------------------------ #
    footprint = None
    if kernel.c_body is not None:
        audit = audit_c_body(
            kernel.c_body,
            kernel.nest.loops[:depth],
            kernel.nest.parameters,
            depth,
            subject=subject,
            ir_statements=kernel.nest.statements,
            declared_arrays=kernel.c_arrays,
        )
        report.merge(audit.report)
        footprint = audit.footprint

    # --- static overflow audit at concrete sizes ------------------------- #
    values = dict(parameter_values or kernel.default_parameters)
    collapsed = kernel.collapsed(check_dependences=False)
    report.merge(audit_overflow(collapsed, values, subject=subject))

    # --- generated-C lint of the kernel's one unit ------------------------ #
    if kernel.c_body is not None:
        report.merge(
            lint_generated_c(
                collapsed,
                body=kernel.c_body,
                arrays=kernel.c_arrays,
                footprint=footprint,
                subject=subject,
            )
        )
    return report


def lint_all_kernels(
    kernels: Optional[Iterable] = None,
    parameter_values: Optional[Mapping[str, int]] = None,
) -> Dict[str, LintReport]:
    """Map :func:`lint_kernel` over the registry (or an explicit kernel list)."""
    from ..kernels import all_kernels  # deferred: kernels import runtime helpers

    reports: Dict[str, LintReport] = {}
    for kernel in kernels if kernels is not None else all_kernels():
        reports[kernel.name] = lint_kernel(kernel, parameter_values=parameter_values)
    return reports


def static_check_plan(
    collapsed,
    parameter_values: Mapping[str, int],
    *,
    c_body: Optional[str] = None,
    c_arrays: Sequence[str] = (),
    subject: str = "plan",
    full: bool = False,
    ir_statements: Sequence[Statement] = (),
) -> LintReport:
    """The static audits of one plan, run before anything compiles.

    The overflow audit always runs (it is a handful of exact polynomial
    bounds; a plan runs it before compiling its unit).  ``full=True`` adds
    the C-body footprint audit and the generated-C lint when a body exists.
    """
    report = LintReport()
    report.merge(audit_overflow(collapsed, parameter_values, subject=subject))
    if full and c_body is not None:
        depth = len(collapsed.iterators)
        audit = audit_c_body(
            c_body,
            collapsed.nest.loops[:depth],
            collapsed.nest.parameters,
            depth,
            subject=subject,
            ir_statements=ir_statements,
            declared_arrays=c_arrays,
        )
        report.merge(audit.report)
        report.merge(
            lint_generated_c(
                collapsed,
                body=c_body,
                arrays=c_arrays,
                footprint=audit.footprint,
                subject=subject,
            )
        )
    return report
