"""Finding and severity types shared by every lint rule.

A :class:`Finding` is one diagnostic: a rule code anchored to a
``path:line:col`` with a human message. Findings are value objects —
the CLI sorts, filters (``--select``/``--ignore``), suppresses
(``# repro: noqa[REPxxx]``) and renders them, but never mutates them
after creation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break the determinism contract outright (wallclock
    in simulation code, unseeded RNG). ``WARNING`` findings are hazards
    that need a structural argument to be safe (set iteration, float
    equality). Both fail the CI gate; severity only orders the report.
    """

    ERROR = "error"
    WARNING = "warning"

    def __lt__(self, other: "Severity") -> bool:
        order = {"error": 0, "warning": 1}
        return order[self.value] < order[other.value]


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by one rule at one source location."""

    code: str  #: rule code, e.g. ``"REP001"``
    message: str  #: one-line human explanation
    path: str  #: file the finding is in (as given to the linter)
    line: int  #: 1-based source line
    col: int  #: 0-based column, matching ``ast`` node offsets
    severity: Severity = Severity.ERROR
    #: the stripped source line, carried into the JSON report
    source_line: str = field(default="", compare=False)
    #: interprocedural propagation chain (whole-program REP1xx rules):
    #: ``(path, line, text)`` steps from this site down to the
    #: nondeterminism source; empty for per-file findings
    chain: tuple = field(default=(), compare=False)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        """The canonical ``path:line:col: CODE message`` text form.

        Chain steps follow on indented continuation lines so the full
        propagation path reads top-down to the source.
        """
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        for path, line, step in self.chain:
            text += f"\n    {path}:{line}: {step}"
        return text

    def as_dict(self) -> dict:
        """JSON-ready form (schema documented in docs/LINT.md)."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "source_line": self.source_line,
            "chain": [
                {"path": path, "line": line, "text": text}
                for path, line, text in self.chain
            ],
        }
