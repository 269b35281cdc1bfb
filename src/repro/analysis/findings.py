"""Diagnostic model of the static analyzer and race detector.

A :class:`Finding` is one diagnostic: which checker fired, where (the
instruction address when the defect is tied to one), and a human-readable
message.  :class:`LintReport` collects the findings of one program run
through :func:`~repro.analysis.checkers.lint_program` and renders them for
the CLI (text or JSON, matching the ``repro report`` conventions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Finding severities, most severe first.
SEVERITIES = ("error", "warning")

#: Version of the JSON layout emitted by ``repro lint --json``.  Bump on
#: any backwards-incompatible change to Finding/LintReport ``to_dict``.
LINT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a checker."""

    checker: str
    message: str
    addr: Optional[int] = None
    mnemonic: Optional[str] = None
    severity: str = "error"
    region: Optional[str] = None   # enclosing ``.region`` marker, if any

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "checker": self.checker,
            "severity": self.severity,
            "addr": self.addr,
            "region": self.region,
            "mnemonic": self.mnemonic,
            "message": self.message,
        }

    def __str__(self) -> str:
        where = f"{self.addr:#010x}: " if self.addr is not None else ""
        inside = f" (.{self.region})" if self.region else ""
        what = f" [{self.mnemonic}]" if self.mnemonic else ""
        return (f"{where}{self.severity}: {self.checker}{what}{inside}: "
                f"{self.message}")


@dataclass
class LintReport:
    """All findings of one linted program."""

    name: str
    findings: List[Finding] = field(default_factory=list)
    checks: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "name": self.name,
            "ok": self.ok,
            "checks": list(self.checks),
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = []
        warnings = len(self.findings) - len(self.errors)
        if not self.findings:
            verdict = "clean"
        elif warnings:
            verdict = f"{len(self.errors)} error(s), {warnings} warning(s)"
        else:
            verdict = f"{len(self.errors)} finding(s)"
        lines.append(f"{self.name}: {verdict} "
                     f"({len(self.checks)} checkers)")
        for finding in self.findings:
            lines.append(f"  {finding}")
        return "\n".join(lines)
