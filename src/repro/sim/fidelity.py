"""Fidelity switchboard: the simulator's one fast-vs-detailed switch.

Virtuoso-style simulators keep one *fast functional* model and one
*detailed* model and let a run pick between them; the detailed model is
a reference to validate against, not a second thing to tune. This
module is that switch for the repro core:

* ``fast`` (the default) — the columnar page-table store plus the fast
  paths that pay end to end: the generation-keyed PFN walk cache, the
  closed-form IPI burst for uncontended chunk rounds, and batched
  faulting of partially populated LAZY ranges.
* ``detailed`` — the hardware-shaped radix store (PML4 → PDPT → PD → PT
  dicts of 512-entry packed-PTE arrays, exactly the walk a real MMU
  performs) with every twin on its plain reference side: an uncached
  walk on every ``translate_range``, one IPI round per chunk, and one
  ``translate`` + ``handle_fault`` round trip per page.

The two modes are **semantics-preserving** twins (docs/COSTMODEL.md
§ Fidelity modes): identical virtual end times, identical counters
outside the ``fastpath.*`` namespace the fast side may add, and
byte-identical trace exports. ``tests/sim/test_fidelity_diff.py``
proves it differentially, and ``repro lint`` REP005 checks that every
``FIDELITY`` gate has a twin and none nests inside another.

One rule: the mode is read **once, when an object is built**. Flipping
``FIDELITY`` mid-process does not convert live objects, so scope a whole
scenario inside :func:`configured` / :func:`detailed` to compare modes.

``REPRO_FIDELITY=fast|detailed`` selects the starting mode (default
``fast``); anything else fails loudly at import.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Iterator

MODES = ("fast", "detailed")


@dataclass
class Fidelity:
    """The process-wide fidelity mode, read at object construction."""

    mode: str = "fast"

    @property
    def fast(self) -> bool:
        """True when constructors should bind the columnar store and the
        fast paths."""
        return self.mode == "fast"

    @property
    def detailed(self) -> bool:
        """True when constructors should bind the radix store and the
        plain reference paths."""
        return self.mode == "detailed"

    def set_mode(self, mode: str) -> None:
        """Switch modes; affects objects constructed from now on."""
        if mode not in MODES:
            raise ValueError(f"unknown fidelity mode {mode!r} (expected one of {MODES})")
        self.mode = mode


#: The process-wide switchboard. Constructors read it once, so a toggle
#: affects only objects built afterwards (see the module docstring).
FIDELITY = Fidelity()

FIDELITY.set_mode(os.environ.get("REPRO_FIDELITY", "fast").lower())


@contextlib.contextmanager
def configured(mode: str) -> Iterator[Fidelity]:
    """Scoped mode override: set ``mode``, restore on exit.

    >>> with configured("detailed"):
    ...     pass
    """
    saved = FIDELITY.mode
    FIDELITY.set_mode(mode)
    try:
        yield FIDELITY
    finally:
        FIDELITY.mode = saved


@contextlib.contextmanager
def detailed() -> Iterator[Fidelity]:
    """Scoped detailed mode (radix store, plain reference paths)."""
    with configured("detailed") as f:
        yield f


@contextlib.contextmanager
def fast() -> Iterator[Fidelity]:
    """Scoped fast mode (useful when the env var selected detailed)."""
    with configured("fast") as f:
        yield f
