"""Diagnostic records and the published rule catalog.

Codes are grouped by prefix:
  P0xx  lexical / syntax errors
  R0xx  name resolution and model building errors
  V0xx  profile well-formedness rules
  M0xx  measurement arithmetic errors
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .source import Span


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


#: code -> (default severity, short description)
RULE_CATALOG: dict[str, tuple[Severity, str]] = {
    "P001": (Severity.ERROR, "unsupported construct"),
    "P002": (Severity.ERROR, "unexpected token"),
    "P003": (Severity.ERROR, "unterminated string"),
    "P004": (Severity.ERROR, "unterminated comment"),
    "P005": (Severity.ERROR, "unterminated annotation"),
    "P006": (Severity.ERROR, "unterminated quoted name"),
    "P007": (Severity.ERROR, "unterminated bracket"),
    "P008": (Severity.ERROR, "stray character"),
    "R001": (Severity.ERROR, "unresolved name"),
    "R002": (Severity.ERROR, "duplicate sibling or root-package name"),
    "R003": (Severity.ERROR, "specialization cycle"),
    "V001": (Severity.ERROR, "stereotype not applicable to element kind"),
    "V002": (Severity.ERROR, "unknown stereotype name"),
    "V003": (Severity.ERROR, "unknown argument code"),
    "V004": (Severity.ERROR, "argument code in wrong vocabulary position"),
    "V005": (Severity.ERROR, "indeterminacy specification outside a source"),
    "V006": (Severity.ERROR, "specification ref target is not a specification constraint"),
    "V007": (Severity.ERROR, "effect ref target is not an uncertain element"),
    "V008": (Severity.ERROR, "topic member is not an uncertain element"),
    "V009": (Severity.ERROR, "measurement block on a non-measurable element"),
    "V010": (Severity.WARNING, "reducibility stated for aleatory uncertainty"),
    "V011": (Severity.WARNING, "pattern stated for a non-occurrence uncertainty"),
    "V012": (Severity.ERROR, "risk impact is not a level literal"),
    "V013": (Severity.WARNING, "risk target is not an uncertain element"),
    "V014": (Severity.WARNING, "duplicate stereotype application"),
    "V015": (Severity.WARNING, "belief duration on a non-belief element"),
    "V016": (Severity.WARNING, "effect element never referenced as an effect"),
    "M001": (Severity.ERROR, "unit mismatch between nominal value and error"),
}


class Diagnostic(NamedTuple):
    """One finding: rule code, severity, primary location, message, notes."""

    code: str
    severity: Severity
    span: Span
    message: str
    related: tuple[tuple[Span, str], ...] = ()

    def sort_key(self) -> tuple[str, int, str]:
        return (self.span.file.path, self.span.start, self.code)

    def render_text(self) -> str:
        head = f"{self.span.location()}: {self.severity.value}[{self.code}]: {self.message}"
        notes = [f"  note: {span.location()}: {note}" for span, note in self.related]
        return "\n".join([head] + notes)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "file": self.span.file.path,
            "line": self.span.line,
            "column": self.span.column,
            "message": self.message,
        }


def make(code: str, span: Span, message: str,
         related: tuple[tuple[Span, str], ...] = ()) -> Diagnostic:
    severity, _ = RULE_CATALOG[code]
    return Diagnostic(code=code, severity=severity, span=span,
                      message=message, related=tuple(related))


def ordered(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic (file, span start, code) ordering."""
    return sorted(diags, key=Diagnostic.sort_key)
