"""``python -m repro.lint``: audit every registered kernel statically.

Runs the dependence-gate, C-body footprint, overflow, and generated-C
audits over the kernel registry, prints a summary table, and writes

* ``REPORT_lint.json`` — sorted-key machine-checkable findings, and
* ``REPORT_lint.md`` — the same findings as a markdown table

(paths configurable).  Exit status is non-zero iff any error-severity
finding was recorded, so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from ..analysis.reporting import format_table
from .findings import SEVERITIES, LintReport
from .registry import lint_all_kernels


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="static safety audit of every registered kernel",
    )
    parser.add_argument(
        "--kernel",
        action="append",
        default=None,
        help="audit only this kernel (repeatable; default: all registered)",
    )
    parser.add_argument(
        "--json",
        default="REPORT_lint.json",
        help="findings JSON path (default: %(default)s; '-' to skip)",
    )
    parser.add_argument(
        "--markdown",
        default="REPORT_lint.md",
        help="findings markdown path (default: %(default)s; '-' to skip)",
    )
    parser.add_argument(
        "--show-info",
        action="store_true",
        help="also print info-severity findings (JSON always carries them)",
    )
    return parser.parse_args(argv)


def main(argv: List[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    from ..kernels import all_kernels, get_kernel

    if args.kernel:
        kernels = [get_kernel(name) for name in args.kernel]
    else:
        kernels = all_kernels()

    reports: Dict[str, LintReport] = lint_all_kernels(kernels)

    merged = LintReport()
    rows = []
    for name, report in reports.items():
        merged.merge(report)
        counts = report.counts()
        rows.append(
            (
                name,
                str(counts["error"]),
                str(counts["warning"]),
                str(counts["info"]),
                "FAIL" if counts["error"] else "ok",
            )
        )
    print(
        format_table(
            ("kernel", "errors", "warnings", "info", "verdict"),
            rows,
            title="repro.lint: static safety audit",
        )
    )
    print()
    shown = [
        finding
        for finding in merged.findings
        if finding.severity != "info" or args.show_info
    ]
    for severity in SEVERITIES:
        for finding in shown:
            if finding.severity == severity:
                print(finding)
    counts = merged.counts()
    print(
        f"\n{len(reports)} kernel(s) audited: "
        + ", ".join(f"{counts[s]} {s}(s)" for s in SEVERITIES)
    )

    if args.json != "-":
        payload = {
            "kernels": {name: report.to_dict() for name, report in reports.items()},
            "totals": counts,
            "ok": merged.ok,
        }
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    if args.markdown != "-":
        Path(args.markdown).write_text(
            merged.to_markdown(title="repro.lint findings") + "\n"
        )
        print(f"wrote {args.markdown}")
    return 0 if merged.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
