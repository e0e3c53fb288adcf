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
def test_native_build_plan_audits_overflow_by_default():
    from repro.native import native_available
    from repro.runtime.plan import PlanError, build_plan

    if not native_available():
        pytest.skip("no C compiler on this machine")
    kernel = get_kernel("utma")
    huge = {name: 10**10 for name in kernel.default_parameters}
    with pytest.raises(PlanError, match="overflow/total-exceeds-int64"):
        build_plan(kernel, huge, native=True)


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


def test_static_check_true_runs_the_full_audit():
    from repro.runtime.plan import PlanError, build_plan

    kernel = get_kernel("utma")
    values = dict(kernel.default_parameters)
    plan = build_plan(kernel, values, static_check=True)
    assert plan.plan_id
    huge = {name: 10**10 for name in values}
    with pytest.raises(PlanError, match="static check failed"):
        build_plan(kernel, huge, static_check=True)


def test_static_check_false_skips_everything():
    from repro.runtime.plan import build_plan

    kernel = get_kernel("utma")
    huge = {name: 10**19 for name in kernel.default_parameters}
    assert build_plan(kernel, huge, static_check=False).plan_id


def test_verify_kernel_accepts_static_check():
    from repro.kernels.execution import verify_kernel

    kernel = get_kernel("utma")
    assert verify_kernel(kernel, kernel.default_parameters, static_check=True)
