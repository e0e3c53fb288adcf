"""The static overflow audit and its build_plan/verify_kernel wiring."""

import pytest

from repro.core import collapse
from repro.ir import Loop, LoopNest
from repro.kernels import get_kernel
from repro.lint import INT64_MAX, audit_overflow


@pytest.fixture
def simplex3_collapsed():
    nest = LoopNest(
        [Loop.make("i", 0, "N"), Loop.make("j", 0, "i + 1"), Loop.make("k", 0, "j + 1")],
        parameters=["N"],
        name="simplex3",
    )
    return collapse(nest)


def test_widths_proven_at_sane_sizes(simplex3_collapsed):
    report = audit_overflow(simplex3_collapsed, {"N": 1000})
    assert report.ok
    proofs = [f for f in report.findings if f.rule == "overflow/widths-proven"]
    assert len(proofs) == 1
    assert "2^127" in proofs[0].detail


def test_total_beyond_int64_is_an_error(simplex3_collapsed):
    # a cubic simplex: N = 2^22 puts the trip count near 2^63 / 6 * 8 > 2^63
    report = audit_overflow(simplex3_collapsed, {"N": 2**22})
    assert simplex3_collapsed.total_iterations({"N": 2**22}) > INT64_MAX
    assert any(f.rule == "overflow/total-exceeds-int64" for f in report.errors)


def test_missing_parameters_are_an_error(simplex3_collapsed):
    report = audit_overflow(simplex3_collapsed, {})
    assert [f.rule for f in report.errors] == ["overflow/missing-parameters"]


def test_bound_grows_monotonically_with_sizes(simplex3_collapsed):
    def worst_bits(n):
        report = audit_overflow(simplex3_collapsed, {"N": n})
        (proof,) = [f for f in report.findings if f.rule == "overflow/widths-proven"]
        return proof.detail

    assert worst_bits(10) != worst_bits(10_000)


# ---------------------------------------------------------------------- #
# plan/verify wiring
# ---------------------------------------------------------------------- #
def test_native_module_audits_overflow_before_compiling(monkeypatch):
    """A plan's compiled unit is attached only after the overflow audit
    passes: a failing audit raises and attaches nothing, every time."""
    import repro.native
    from repro.runtime.plan import PlanError, build_plan

    def no_compile(*args, **kwargs):
        raise AssertionError("compiled before the overflow audit")

    monkeypatch.setattr(repro.native, "compile_collapsed", no_compile)
    kernel = get_kernel("utma")
    huge = {name: 10**10 for name in kernel.default_parameters}
    plan = build_plan(kernel, huge)
    for _attempt in range(2):
        with pytest.raises(PlanError, match="overflow/total-exceeds-int64"):
            plan.native_module
    assert "native_module" not in vars(plan)


def test_both_compiled_backends_audit_overflow_before_compiling():
    """``session.run`` builds one native plan for native and hybrid, so both
    raise the same overflow finding for a trip count past int64 — before
    anything compiles.  The calls run in a child process: a backend that
    skipped the audit would drive the C loop over N=8 arrays with a wrapped
    trip count and crash, which must fail this test, not kill the suite."""
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    import repro

    script = textwrap.dedent(
        """
        from repro.kernels import get_kernel
        from repro.native import module
        from repro.runtime import RuntimeSession
        from repro.runtime.plan import PlanError

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before the overflow audit")

        module.compile_shared_library = no_compile
        data = get_kernel("utma").make_data({"N": 8})
        with RuntimeSession(workers=1) as session:
            for backend in ("hybrid", "native"):
                try:
                    session.run("utma", {"N": 2**33}, data=data, backend=backend)
                except PlanError as error:
                    print(backend, "overflow/total-exceeds-int64" in str(error))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["hybrid", "True", "native", "True"]


def test_python_plans_skip_the_audit_by_default():
    # big-int Python paths cannot wrap: a 10^19-sized plan must still build
    from repro.runtime.plan import build_plan

    kernel = get_kernel("utma")
    huge = {name: 10**19 for name in kernel.default_parameters}
    plan = build_plan(kernel, huge)
    assert plan.total_iterations > INT64_MAX


def test_full_static_check_of_a_plan_is_one_call_away():
    """The full audit of any plan (overflow, C-body footprint, generated-C
    lint) is ``static_check_plan(full=True)`` over the plan's parts."""
    from repro.lint.registry import static_check_plan
    from repro.runtime.plan import PlanError, build_plan

    def full_audit(plan):
        source = plan.source
        return static_check_plan(
            plan.collapsed,
            plan.parameter_values,
            c_body=source.c_body,
            c_arrays=source.c_arrays,
            subject=source.name,
            full=True,
            ir_statements=plan.collapsed.nest.statements,
        )

    kernel = get_kernel("utma")
    values = dict(kernel.default_parameters)
    report = full_audit(build_plan(kernel, values))
    assert not report.errors
    assert {f.rule.split("/")[0] for f in report.findings} == {"overflow", "c-body", "generated"}
    huge = {name: 10**10 for name in values}
    with pytest.raises(PlanError, match="static check failed"):
        full_audit(build_plan(kernel, huge)).raise_on_errors(PlanError)


def test_verify_kernel_accepts_static_check():
    from repro.kernels.execution import verify_kernel

    kernel = get_kernel("utma")
    assert verify_kernel(kernel, kernel.default_parameters, static_check=True)
