"""Global fast-path switchboard for the simulation core.

Large-figure runs (Fig. 5/6, Table 2) simulate multi-GiB attaches; at
that scale the simulator's own overhead — one event chain per IPI chunk
round, per-leaf numpy loops over 512-entry page tables, per-page
demand-paging faults — dominates wall-clock time.
Each fast path below replaces one of those hot loops with a batched or
cached equivalent that is **semantics-preserving**: identical virtual
end times, identical observability counters (fast paths may only add
counters under the ``fastpath.*`` namespace), and byte-identical trace
exports versus the slow reference path. ``tests/sim/test_fastpath_diff.py``
enforces this differentially.

Flags (all default on; see docs/COSTMODEL.md for the invariants):

* ``ipi_batching`` — a burst of identical back-to-back IPI chunk rounds
  collapses into one closed-form core reservation when the target core
  is uncontended (:meth:`repro.hw.interrupts.InterruptController.send_ipi_burst`).
* ``walk_cache`` — ``PageTable.translate_range`` caches PFN walks,
  invalidated by a generation counter bumped on any PFN-changing
  mutation (flag-only changes such as pinning do not invalidate).
* ``range_vectorize`` — range operations on the page table precompute
  packed PTEs once and use whole-window numpy checks instead of
  per-leaf flag masking.
* ``fault_vectorize`` — ``LinuxKernel.touch_pages``/``pin_pages`` fault
  partially-populated ranges via a per-leaf present mask instead of one
  ``translate`` + ``handle_fault`` round trip per page.

Setting ``REPRO_FASTPATH=0`` in the environment starts with every flag
off (the slow reference paths).

These flags toggle *algorithmic* twins and are read at call time.
Storage-*layout* twins (the columnar vs radix page-table stores) are
selected by the separate, construction-time switchboard in
:mod:`repro.sim.fidelity`; both obey the same REP005 gate hygiene.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, fields
from typing import Iterator


@dataclass
class FastPath:
    """The set of independently toggleable fast-path flags."""

    ipi_batching: bool = True
    walk_cache: bool = True
    range_vectorize: bool = True
    fault_vectorize: bool = True

    def set_all(self, on: bool) -> None:
        """Switch every flag at once."""
        for f in fields(self):
            setattr(self, f.name, on)

    def as_dict(self) -> dict:
        """Current flag values, by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def any_enabled(self) -> bool:
        """True when at least one fast path is on."""
        return any(self.as_dict().values())


#: The process-wide switchboard. Hot paths read it at call time, so
#: toggling takes effect immediately (tests flip it mid-process).
FASTPATH = FastPath()

if os.environ.get("REPRO_FASTPATH", "1").lower() in ("0", "off", "false", "no"):
    FASTPATH.set_all(False)


def enable_all() -> None:
    """Turn every fast path on."""
    FASTPATH.set_all(True)


def disable_all() -> None:
    """Turn every fast path off (slow reference paths)."""
    FASTPATH.set_all(False)


@contextlib.contextmanager
def configured(**flags: bool) -> Iterator[FastPath]:
    """Scoped flag override: set the named flags, restore on exit.

    >>> with configured(walk_cache=False):
    ...     pass
    """
    valid = FASTPATH.as_dict()
    for name in flags:
        if name not in valid:
            raise ValueError(f"unknown fast-path flag {name!r}")
    saved = {name: valid[name] for name in flags}
    for name, value in flags.items():
        setattr(FASTPATH, name, bool(value))
    try:
        yield FASTPATH
    finally:
        for name, value in saved.items():
            setattr(FASTPATH, name, value)


@contextlib.contextmanager
def disabled() -> Iterator[FastPath]:
    """Scoped all-off: run the body on the slow reference paths."""
    with configured(**{f.name: False for f in fields(FastPath)}) as fp:
        yield fp


@contextlib.contextmanager
def enabled() -> Iterator[FastPath]:
    """Scoped all-on (useful when the env var turned fast paths off)."""
    with configured(**{f.name: True for f in fields(FastPath)}) as fp:
        yield fp
