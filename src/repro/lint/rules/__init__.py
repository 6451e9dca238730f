"""The rule battery: one class per REPxxx code.

Two tiers share one namespace. **Per-file rules** (REP0xx,
:class:`~repro.lint.visitor.Rule`) run in a single AST walk per file.
**Project rules** (REP1xx, :class:`~repro.lint.visitor.ProjectRule`)
run once over the merged call-graph index after every file is parsed.

Adding a rule = write the class, import it here, append it to
:data:`ALL_RULES` or :data:`PROJECT_RULES`, document it in
docs/LINT.md, and add a fixture pair to tests/lint/test_rules.py (or
test_project.py). The meta-rule REP000 (malformed/stale suppressions)
lives in :mod:`repro.lint.noqa` and is always on.
"""

from __future__ import annotations

from repro.lint.rules.defaults import MutableDefaultRule
from repro.lint.rules.engine import EngineDisciplineRule
from repro.lint.rules.fidelity import FidelityGateRule
from repro.lint.rules.floateq import FloatEqualityRule
from repro.lint.rules.handlers import HandlerHygieneRule
from repro.lint.rules.iteration import IterationOrderRule
from repro.lint.rules.randomness import RandomnessRule
from repro.lint.rules.sharedstate import (
    ClassAttrRule,
    LoopCaptureRule,
    ModuleStateRule,
    SingletonRule,
)
from repro.lint.rules.taint import (
    AddressDependenceRule,
    EntropyTaintRule,
    EnvReadRule,
    WallclockTaintRule,
)
from repro.lint.rules.wallclock import WallclockRule

#: Every per-file rule class, in code order.
ALL_RULES = (
    WallclockRule,       # REP001
    RandomnessRule,      # REP002
    IterationOrderRule,  # REP003
    FloatEqualityRule,   # REP004
    FidelityGateRule,    # REP005
    EngineDisciplineRule,  # REP006
    HandlerHygieneRule,  # REP007
    MutableDefaultRule,  # REP008
)

#: Every whole-program rule class, in code order.
PROJECT_RULES = (
    WallclockTaintRule,      # REP101
    EntropyTaintRule,        # REP102
    EnvReadRule,             # REP103
    AddressDependenceRule,   # REP104
    ModuleStateRule,         # REP110
    ClassAttrRule,           # REP111
    SingletonRule,           # REP112
    LoopCaptureRule,         # REP113
)

FILE_CODES = tuple(r.code for r in ALL_RULES)
PROJECT_CODES = tuple(r.code for r in PROJECT_RULES)
CODES = FILE_CODES + PROJECT_CODES


def _chosen(select, ignore) -> set:
    """Validate ``select``/``ignore`` against the full battery.

    Unknown codes raise ValueError so a typo'd ``--select`` cannot
    silently lint nothing.
    """
    known = set(CODES)
    for name, codes in (("select", select), ("ignore", ignore)):
        bad = sorted(set(codes or ()) - known)
        if bad:
            raise ValueError(f"unknown {name} codes: {', '.join(bad)}")
    chosen = set(select) if select else known
    chosen -= set(ignore or ())
    return chosen


def make_rules(select=None, ignore=None) -> list:
    """Instantiate the per-file battery, filtered by code."""
    chosen = _chosen(select, ignore)
    return [cls() for cls in ALL_RULES if cls.code in chosen]


def make_project_rules(select=None, ignore=None) -> list:
    """Instantiate the whole-program battery, filtered by code."""
    chosen = _chosen(select, ignore)
    return [cls() for cls in PROJECT_RULES if cls.code in chosen]
