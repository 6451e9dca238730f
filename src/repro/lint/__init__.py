"""repro.lint — determinism & simulation-safety static analysis.

A single-pass AST linter enforcing the project's determinism contract
as machine-checked rules (REP001-REP008): no wallclock or OS entropy in
simulation code, no order-unstable iteration, no float equality
branching, fidelity gates with twins, engine/event-queue
discipline, accounted exception handling, no mutable defaults.

Library entry points::

    from repro.lint import lint_source, lint_paths
    findings = lint_source("import time\\ntime.time()\\n")

CLI (wired into ``python -m repro``)::

    python -m repro lint [paths...] [--format text|json]
                         [--select/--ignore REPxxx,...]
                         [--baseline FILE] [--write-baseline]

See docs/LINT.md for the rule catalog and the suppression/baseline
workflow.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import iter_python_files, lint_paths, lint_source
from repro.lint.findings import Finding, Severity
from repro.lint.rules import ALL_RULES, CODES, make_rules
from repro.lint.visitor import Rule

__all__ = [
    "ALL_RULES",
    "Baseline",
    "CODES",
    "Finding",
    "Rule",
    "Severity",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "make_rules",
]
