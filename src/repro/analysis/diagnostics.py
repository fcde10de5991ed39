"""Diagnostics shared by the static-analysis passes.

Every pass reports its findings as :class:`Diagnostic` records collected in
a :class:`Report`.  A diagnostic pinpoints the *program* (fragment, prep,
combine, ...), the instruction index inside it, and an actionable message;
severity separates hard contract violations (``error``) from hygiene
findings like dead slots (``warning``).  A short ``code`` (e.g.
``unbounded-landmark``, ``capacity-starved``) groups findings of one kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

SEV_ERROR = "error"
SEV_WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass."""

    severity: str  # SEV_ERROR | SEV_WARNING
    where: str  # program name ("fragment", "combine", ...) or "plan"
    message: str
    instr: Optional[int] = None  # instruction index inside the program
    #: Stable finding-kind slug (``unbounded-landmark``, ``join-fanout``, ...).
    code: Optional[str] = None

    def render(self) -> str:
        location = self.where if self.instr is None else f"{self.where}[{self.instr}]"
        tag = f" [{self.code}]" if self.code else ""
        return f"{self.severity}: {location}: {self.message}{tag}"

    def to_json(self) -> dict[str, Any]:
        return {
            "severity": self.severity,
            "where": self.where,
            "message": self.message,
            "instr": self.instr,
            "code": self.code,
        }


@dataclass
class Report:
    """Accumulated findings of one or more passes over one plan/program."""

    subject: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def error(
        self,
        where: str,
        message: str,
        instr: Optional[int] = None,
        code: Optional[str] = None,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(SEV_ERROR, where, message, instr, code)
        )

    def warning(
        self,
        where: str,
        message: str,
        instr: Optional[int] = None,
        code: Optional[str] = None,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(SEV_WARNING, where, message, instr, code)
        )

    def extend(self, other: "Report") -> None:
        self.diagnostics.extend(other.diagnostics)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEV_ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == SEV_WARNING]

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (warnings are allowed)."""
        return not self.errors()

    def render(self, include_warnings: bool = True) -> str:
        shown: Iterable[Diagnostic] = (
            self.diagnostics if include_warnings else self.errors()
        )
        lines = [d.render() for d in shown]
        if self.subject:
            lines = [f"-- {self.subject}"] + [f"  {line}" for line in lines]
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }
