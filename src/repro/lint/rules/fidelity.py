"""REP005 — fidelity gate hygiene.

``repro.sim.fidelity``'s mode selects between semantics-preserving
twins: the fast side (columnar store, walk cache, IPI bursts, batched
faults) and the detailed reference side. docs/COSTMODEL.md requires
each gated branch to have a twin producing identical virtual end times,
counters, and traces, and the differential tests flip the mode to
compare them. Two structural properties make that auditable:

* a gated ``if`` must have an ``else`` (the twin), or its body must
  leave the function (``return``/``raise``/``continue``/``break``)
  so the fall-through code *is* the twin;
* gates must not nest: a gate inside another gate has no single
  fast/detailed pair the differential tests can compare.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.visitor import Rule

#: The switchboard object a gate may read: the construction-time
#: FIDELITY mode.
GATE_QUALNAMES = ("repro.sim.fidelity.FIDELITY",)

_TERMINAL = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def mentions_gate(node: ast.AST, ctx) -> bool:
    """True when ``node``'s subtree reads the FIDELITY mode."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            resolved = ctx.resolve(sub)
            if resolved is not None and resolved.startswith(GATE_QUALNAMES):
                return True
    return False


class FidelityGateRule(Rule):
    """FIDELITY-gated if without a twin, or nested under a gate."""

    code = "REP005"
    name = "fidelity-gate"
    severity = Severity.ERROR

    def visit_If(self, node: ast.If, ctx) -> None:
        if not mentions_gate(node.test, ctx):
            return
        for ancestor in ctx.ancestors:
            if isinstance(ancestor, ast.If) \
                    and mentions_gate(ancestor.test, ctx):
                ctx.report(
                    self, node,
                    "fidelity gate nested under another fidelity gate — "
                    "the fast/detailed differential tests cannot isolate it",
                )
                return
        if node.orelse:
            return
        if isinstance(node.body[-1], _TERMINAL):
            return  # fall-through code is the twin
        ctx.report(
            self, node,
            "fidelity gate has no twin — add an else branch, or end "
            "the gated body with return/raise so the fall-through is the "
            "other mode's path",
        )
