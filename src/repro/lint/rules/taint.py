"""REP101-REP104: interprocedural nondeterminism taint.

The per-file rules (REP001/REP002) catch a direct ``time.time()`` or
unseeded RNG at its call site; these whole-program rules catch the
helper *one call away* — any function that transitively reaches a
source without a sanctioned boundary is flagged at the offending call
edge, with the full propagation chain attached to the finding.

Sanctions are structural, not cosmetic: a module listed as the
category's boundary (:mod:`repro.lint.sources`) absorbs the taint, and
a reasoned same-line noqa for the category (or its per-file twin)
declares that the nondeterminism does not leak — the taint pass treats
it as a cut, so one sanctioned site does not force suppressions up the
whole call chain.
"""

from __future__ import annotations

from repro.lint.findings import Severity
from repro.lint.sources import TAINT_CATEGORIES
from repro.lint.visitor import ProjectRule


class _TaintRule(ProjectRule):
    """Shared machinery: direct-source findings + tainted call edges."""

    #: human name of the nondeterminism category for messages
    noun: str = ""
    #: whether this rule also reports the direct source sites (the
    #: categories without a per-file twin rule: env reads, id/hash)
    direct = False

    def check(self, project, reporter) -> None:
        code = self.code
        boundaries = TAINT_CATEGORIES[code][1]
        tainted = project.taint(code)
        for qual in sorted(project.functions):
            fn = project.functions[qual]
            if project.in_boundary(fn.path, boundaries):
                continue
            if self.direct:
                for line, col, label in sorted(fn.taints.get(code, ())):
                    reporter.report(
                        self, fn.path, line, col,
                        f"{label}: direct {self.noun} in {qual} — "
                        f"{self.remedy}",
                    )
            for site in fn.calls:
                callee = project.resolve_callee(site.callee)
                if callee is None or callee not in tainted:
                    continue
                chain = ((fn.path, site.line, f"{qual} calls {site.display}"),
                         ) + project.chain(callee, code)
                source = chain[-1][2].rpartition("source ")[2]
                reporter.report(
                    self, fn.path, site.line, site.col,
                    f"call to {site.display} transitively reaches "
                    f"{self.noun} ({source}, {len(chain) - 1} call"
                    f"{'s' if len(chain) - 1 != 1 else ''} away)",
                    chain=chain,
                )


class WallclockTaintRule(_TaintRule):
    """Call path reaches a host-wallclock read."""

    code = "REP101"
    name = "wallclock-taint"
    severity = Severity.ERROR
    noun = "a host-wallclock read"
    remedy = "use the engine's virtual clock"


class EntropyTaintRule(_TaintRule):
    """Call path reaches unseeded randomness or OS entropy."""

    code = "REP102"
    name = "entropy-taint"
    severity = Severity.ERROR
    noun = "unseeded randomness"
    remedy = "draw from a seeded per-engine stream"


class EnvReadRule(_TaintRule):
    """Environment read outside the fidelity switchboard."""

    code = "REP103"
    name = "env-read"
    severity = Severity.ERROR
    direct = True
    noun = "an environment read"
    remedy = ("behaviour must come from explicit arguments so runs "
              "replay from their config; env switches belong in "
              "repro.sim.fidelity")


class AddressDependenceRule(_TaintRule):
    """id()/hash() dependence: values differ across host processes."""

    code = "REP104"
    name = "address-dependence"
    severity = Severity.WARNING
    direct = True
    noun = "an id()/hash() value"
    remedy = ("id() is a memory address and str hash() is salted per "
              "process — key by a stable name instead (sharded node "
              "engines cannot share either)")
