"""Machine-checkable lint findings and the report that collects them."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.reporting import format_markdown_table

#: severity ladder, most severe first.  ``error`` findings reject a plan
#: (a compiled plan's audit raises, ``verify_kernel`` returns
#: ``False``, the CLI exits non-zero); ``warning`` findings flag something a
#: human must have justified (e.g. a ``check_dependences=False``
#: registration); ``info`` findings record what was proven.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One statically-derived fact about a kernel, nest, plan, or C source.

    ``rule`` is a stable ``area/check`` identifier (e.g.
    ``"c-body/footprint-dependence"``) so CI and tests can match findings
    without parsing prose; ``subject`` names the kernel/nest/function the
    finding is about; ``detail`` carries the evidence (the failing access
    pair, the unproven scalar, the computed bound...).
    """

    rule: str
    severity: str
    subject: str
    message: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; expected one of {SEVERITIES}"
            )

    def to_dict(self) -> Dict[str, str]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        text = f"[{self.severity}] {self.subject}: {self.rule}: {self.message}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class LintReport:
    """An ordered collection of findings with severity roll-ups."""

    findings: List[Finding] = field(default_factory=list)

    def add(
        self,
        rule: str,
        severity: str,
        subject: str,
        message: str,
        detail: str = "",
    ) -> Finding:
        finding = Finding(rule, severity, subject, message, detail)
        self.findings.append(finding)
        return finding

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def by_severity(self, severity: str) -> List[Finding]:
        return [finding for finding in self.findings if finding.severity == severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity("error")

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity("warning")

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    def counts(self) -> Dict[str, int]:
        return {severity: len(self.by_severity(severity)) for severity in SEVERITIES}

    def select(self, rule_prefix: str) -> List[Finding]:
        """Findings whose rule starts with ``rule_prefix`` (e.g. ``"c-body/"``)."""
        return [f for f in self.findings if f.rule.startswith(rule_prefix)]

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
            "ok": self.ok,
        }

    def to_json(self, extra: Optional[Dict[str, object]] = None) -> str:
        """Sorted-key JSON, stable across runs for diffable CI artifacts."""
        payload = dict(self.to_dict())
        if extra:
            payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_markdown(self, title: str = "Static lint findings") -> str:
        """The findings as a GitHub-flavoured markdown table."""
        headers: Sequence[str] = ("severity", "subject", "rule", "message", "detail")
        ordered = sorted(
            self.findings,
            key=lambda f: (SEVERITIES.index(f.severity), f.subject, f.rule),
        )
        rows = [
            (f.severity, f.subject, f.rule, f.message, f.detail or "-")
            for f in ordered
        ]
        if not rows:
            rows = [("info", "-", "-", "no findings", "-")]
        return format_markdown_table(headers, rows, title=title)

    def raise_on_errors(self, exception_type: type = ValueError) -> None:
        """Raise ``exception_type`` summarising every error-severity finding."""
        if self.ok:
            return
        lines = [str(finding) for finding in self.errors]
        raise exception_type(
            "static check failed with "
            f"{len(lines)} error finding(s):\n" + "\n".join(lines)
        )

    def __str__(self) -> str:
        return "\n".join(str(finding) for finding in self.findings) or "(no findings)"
