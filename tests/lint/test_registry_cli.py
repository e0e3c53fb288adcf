"""The registry-wide audit and the ``python -m repro.lint`` CLI."""

import json

import pytest

from repro.kernels import all_kernels, get_kernel
from repro.lint import lint_all_kernels, lint_kernel


def test_every_registered_kernel_is_error_free():
    """The repository's own registry must pass its own static verifier —
    the acceptance bar the lint CLI enforces in CI."""
    reports = lint_all_kernels()
    assert set(reports) == {k.name for k in all_kernels()}
    failures = {
        name: [str(f) for f in report.errors]
        for name, report in reports.items()
        if not report.ok
    }
    assert not failures, failures


def test_simulation_only_gate_off_is_a_warning_not_an_error():
    report = lint_kernel(get_kernel("jacobi1d_skewed"))
    gate = [f for f in report.findings if f.rule == "registry/dependence-gate-off"]
    assert len(gate) == 1 and gate[0].severity == "warning"


def test_native_kernels_get_one_generated_unit_audit():
    """A kernel compiles to one unit whatever the schedule, so the
    generated-C lint audits that one unit, under the kernel's own name."""
    report = lint_kernel(get_kernel("utma"))
    subjects = {f.subject for f in report.select("generated/")}
    assert subjects == {"utma"}
    assert len(report.select("generated/private-proof")) == 1


def test_overflow_audit_runs_at_explicit_sizes():
    report = lint_kernel(get_kernel("utma"), parameter_values={"N": 10**10})
    assert any(f.rule == "overflow/total-exceeds-int64" for f in report.errors)


def test_cli_writes_reports_and_exits_zero(tmp_path):
    from repro.lint.__main__ import main

    json_path = tmp_path / "lint.json"
    md_path = tmp_path / "lint.md"
    status = main(
        ["--kernel", "utma", "--json", str(json_path), "--markdown", str(md_path)]
    )
    assert status == 0
    payload = json.loads(json_path.read_text())
    assert payload["ok"] is True
    assert "schedules" not in payload
    assert payload["kernels"]["utma"]["counts"]["error"] == 0
    assert "| severity |" in md_path.read_text()
    # stable artifact: serialising the same audit twice is byte-identical
    first = json_path.read_text()
    assert main(["--kernel", "utma", "--json", str(json_path), "--markdown", "-"]) == 0
    assert json_path.read_text() == first


def test_cli_dash_skips_writing(tmp_path, monkeypatch):
    from repro.lint.__main__ import main

    monkeypatch.chdir(tmp_path)
    assert main(["--kernel", "utma", "--json", "-", "--markdown", "-"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_ruff_config_is_committed():
    """CI runs ``ruff check src/`` against the committed configuration; keep
    the config present (and run the check here too when ruff is installed)."""
    import shutil
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    config = (root / "pyproject.toml").read_text()
    assert "[tool.ruff" in config
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed locally; CI runs it")
    result = subprocess.run(
        [ruff, "check", "src"], cwd=root, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
