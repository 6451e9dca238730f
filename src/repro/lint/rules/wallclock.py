"""REP001 — wallclock reads anywhere in the package.

The simulator's whole determinism contract rests on the virtual clock
(``Engine.now``): identical runs produce byte-identical traces, figures,
and fault schedules. Any host-time read that can reach simulation state
breaks that silently. No module is allowlisted: host time is measured
outside the package, by ``benchmarks/e2e``, and a display-only read
needs a reasoned ``# repro: noqa[REP001]``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Severity
from repro.lint.sources import WALLCLOCK_CALLS
from repro.lint.visitor import Rule

# The source table lives in :mod:`repro.lint.sources`, shared with the
# whole-program taint pass (REP101) so the two layers cannot drift.


class WallclockRule(Rule):
    """Host-time call in simulation code."""

    code = "REP001"
    name = "wallclock"
    severity = Severity.ERROR

    def visit_Call(self, node: ast.Call, ctx) -> None:
        target = ctx.resolved_call(node)
        if target in WALLCLOCK_CALLS:
            ctx.report(
                self, node,
                f"wallclock read {target}() — simulation code must use the "
                "virtual clock (Engine.now); host time is measured outside "
                "the package, by benchmarks/e2e",
            )
