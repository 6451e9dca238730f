"""repro.lint — determinism & simulation-safety static analysis.

A whole-program AST linter enforcing the project's determinism
contract as machine-checked rules: per-file REP001-REP008 (no wallclock
or OS entropy in simulation code, no order-unstable iteration, no float
equality branching, fidelity gates with twins, engine/event-queue
discipline, accounted exception handling, no mutable defaults) and
call-graph REP101-REP113 (transitive nondeterminism, shared state).

Library entry points::

    from repro.lint import lint_source, lint_paths
    findings = lint_source("import time\\ntime.time()\\n")

CLI (wired into ``python -m repro``)::

    python -m repro lint [paths...] [--format text|json]
                         [--select/--ignore REPxxx,...]
                         [--output FILE] [--list-rules]

See docs/LINT.md for the rule catalog and the suppression workflow.
"""

from repro.lint.engine import iter_python_files, lint_paths, lint_source
from repro.lint.findings import Finding, Severity
from repro.lint.rules import ALL_RULES, CODES, make_rules
from repro.lint.visitor import Rule

__all__ = [
    "ALL_RULES",
    "CODES",
    "Finding",
    "Rule",
    "Severity",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "make_rules",
]
