"""Shared nondeterminism-source tables and sanctioned boundaries.

One place declares what "nondeterministic" means, consumed from both
directions: the per-file rules (REP001/REP002) flag a *direct* read at
its call site, and the whole-program taint pass (REP101-REP104) flags
every function that *transitively* reaches one through the call graph.
Keeping the tables here means the two layers can never disagree about
what counts as a source.

Each taint category also names its **sanctioned boundaries** — modules
whose job is to absorb the nondeterminism (the opt-in wallclock
profiler, the env-reading switchboards). Functions in a sanctioned
module neither seed nor propagate that category's taint.
"""

from __future__ import annotations

import ast

# ---------------------------------------------------------------------------
# Wallclock (REP001 direct / REP101 transitive)
# ---------------------------------------------------------------------------

#: Host-time entry points. Resolution is import-aware, so
#: ``from time import perf_counter as pc; pc()`` is still caught.
WALLCLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Modules allowed to read host time: the opt-in wallclock profiler,
#: whose output never enters traces or metrics.
WALLCLOCK_BOUNDARY = ("repro/obs/engine_hooks.py",)

# ---------------------------------------------------------------------------
# Randomness / OS entropy (REP002 direct / REP102 transitive)
# ---------------------------------------------------------------------------

#: The global-RNG module functions (shared hidden state).
GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: Constructors that must receive an explicit seed.
SEEDED_CTORS = frozenset({
    "random.Random",
    "random.SystemRandom",  # never seedable — flagged outright
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
})

#: OS-entropy sources: nondeterministic regardless of seeding.
ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})

#: No module is sanctioned to draw unseeded randomness.
ENTROPY_BOUNDARY = ()


def has_seed(node: ast.Call) -> bool:
    """True when a seeded-constructor call passes a seed-like argument."""
    if node.args and not any(
        isinstance(a, ast.Constant) and a.value is None for a in node.args[:1]
    ):
        return True
    return any(kw.arg in ("seed", "x") for kw in node.keywords)


def entropy_source_name(node: ast.Call, resolved: str) -> str:
    """The source label when ``node`` is an entropy/randomness source,
    else ``""``.

    Mirrors the REP002 classification exactly: OS entropy, the
    process-global ``random`` module functions, and unseeded seeded-
    constructor calls count; an explicitly seeded constructor does not.
    """
    if resolved in ENTROPY_CALLS or resolved.startswith("secrets."):
        return resolved
    mod, _, fn = resolved.rpartition(".")
    if mod == "random" and fn in GLOBAL_RANDOM_FNS:
        return resolved
    if resolved in SEEDED_CTORS:
        if resolved == "random.SystemRandom" or not has_seed(node):
            return resolved
    return ""

# ---------------------------------------------------------------------------
# Environment reads (REP103, direct + transitive)
# ---------------------------------------------------------------------------

#: Direct env-value reads. ``dict(os.environ)`` — passing the whole
#: environment to a subprocess — is deliberately *not* a source; the
#: hazard is branching simulation behaviour on a specific variable.
ENV_READ_CALLS = frozenset({"os.getenv"})
ENV_MAPPING = frozenset({"os.environ", "os.environb"})
ENV_MAPPING_READERS = frozenset({"get", "items", "keys", "values", "copy"})

#: The construction-time switchboard is the sanctioned place for env
#: configuration (docs/COSTMODEL.md); everything else derives behaviour
#: from explicit arguments so runs are replayable from their config.
ENV_BOUNDARY = ("repro/sim/fidelity.py",)

# ---------------------------------------------------------------------------
# Address/hash-seed dependence (REP104, direct + transitive)
# ---------------------------------------------------------------------------

#: Builtins whose value depends on the process memory map (``id``) or
#: on ``PYTHONHASHSEED`` (``hash`` of str/bytes/composites). Values are
#: meaningless across host processes — exactly what sharded node
#: engines with a deterministic merge cannot tolerate.
ADDRESS_CALLS = frozenset({"id", "hash"})

ADDRESS_BOUNDARY = ()

# ---------------------------------------------------------------------------
# Shared-state audit (REP110-REP113)
# ---------------------------------------------------------------------------

#: Modules allowed to own and mutate process-wide state: the
#: construction-time fidelity switchboard. Everything else must key state
#: per-``Engine`` so node engines can run in parallel host processes
#: (ROADMAP item 1) without cross-engine aliasing.
STATE_BOUNDARY = ("repro/sim/fidelity.py",)

# ---------------------------------------------------------------------------
# Category registry for the taint pass
# ---------------------------------------------------------------------------

#: code -> (per-file twin code or None, boundary path suffixes).
#: A line carrying a reasoned suppression of the twin code (REP001 /
#: REP002) is a declared boundary, so the whole-program pass does not
#: re-taint through it.
TAINT_CATEGORIES = {
    "REP101": ("REP001", WALLCLOCK_BOUNDARY),
    "REP102": ("REP002", ENTROPY_BOUNDARY),
    "REP103": (None, ENV_BOUNDARY),
    "REP104": (None, ADDRESS_BOUNDARY),
}
