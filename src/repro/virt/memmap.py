"""The Palacios guest memory map: GPA→HPA, with real work accounting.

One :class:`MapEntry` maps a physically contiguous guest region to a
physically contiguous host region (paper §4.4). VM RAM is a handful of
large entries; XEMEM guest attachments add one entry per contiguous *host*
run — and host frames pinned for XEMEM "are not guaranteed to be
contiguous", so a 1 GB attachment can add 262 144 entries. That growth is
the Table 2 overhead.

Correctness and cost are separated deliberately:

* The canonical store is three sorted int64 columns — entry starts, ends
  and host starts — kept in place with ``searchsorted`` and splicing,
  giving exact translations and fast vectorized :meth:`translate_array`.
  A :class:`MapEntry` is built only when one entry is asked for.
* Every mutation/lookup is *mirrored* into the configured backend — the
  real red–black tree or the real radix tree — and the nodes/levels the
  backend actually touches are converted to nanoseconds. No asymptotic
  hand-waving: rebalancing work is whatever the tree really did. A
  mapping's entries go to the backend together, in ascending GPA order,
  and are charged as one visit/level delta: the charge is linear in the
  count, so the sum is the same as entry by entry.

A last-entry cache (TLB-like) fronts :meth:`translate`; sequential
translations through a large VM-RAM entry hit it almost always, which is
why guest-*export* translation (Fig. 4(b)) is cheap while guest-*attach*
insertion (Fig. 4(a)) is not — inserts can't be cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hw.costs import CostModel
from repro.hw.memory import pfns_to_ranges
from repro.virt.radixmap import RadixMap
from repro.virt.rbtree import RedBlackTree


@dataclass(frozen=True)
class MapEntry:
    """A contiguous GPA run mapped to a contiguous HPA run."""

    gpa_start_pfn: int
    npages: int
    hpa_start_pfn: int

    @property
    def gpa_end_pfn(self) -> int:
        """One past the entry's last guest frame."""
        return self.gpa_start_pfn + self.npages

    def translate(self, gpa_pfn: int) -> int:
        """Host frame for ``gpa_pfn`` inside this entry."""
        if not self.gpa_start_pfn <= gpa_pfn < self.gpa_end_pfn:
            raise KeyError(f"gpa pfn {gpa_pfn} outside entry {self}")
        return self.hpa_start_pfn + (gpa_pfn - self.gpa_start_pfn)


class TranslationError(KeyError):
    """GPA not covered by any memory-map entry."""


class _RbBackend:
    """Cost mirror: one RB node per contiguous run."""

    name = "rbtree"

    def __init__(self, costs: CostModel):
        self.tree = RedBlackTree()
        self.costs = costs

    def _delta(self, before: int) -> int:
        return (self.tree.visits - before) * self.costs.rb_node_visit_ns

    def insert_runs(self, starts: np.ndarray, ends: np.ndarray,
                    hpas: np.ndarray) -> int:
        before = self.tree.visits
        insert = self.tree.insert
        for start, hpa in zip(starts.tolist(), hpas.tolist()):
            insert(start, hpa)
        return self._delta(before)

    def delete_runs(self, starts: np.ndarray, ends: np.ndarray) -> int:
        before = self.tree.visits
        delete = self.tree.delete
        for start in starts.tolist():
            delete(start)
        return self._delta(before)

    def lookup(self, gpa_pfn: int) -> int:
        before = self.tree.visits
        self.tree.floor(gpa_pfn)
        return self._delta(before)

    def __len__(self) -> int:
        return len(self.tree)


class _RadixBackend:
    """Cost mirror: one radix leaf per *page*, mimicking a page table."""

    name = "radix"

    def __init__(self, costs: CostModel):
        self.map = RadixMap()
        self.costs = costs

    def _delta(self, before: int) -> int:
        return (self.map.levels_touched - before) * self.costs.radix_level_ns

    def insert_runs(self, starts: np.ndarray, ends: np.ndarray,
                    hpas: np.ndarray) -> int:
        before = self.map.levels_touched
        insert = self.map.insert
        for start, end, hpa in zip(starts.tolist(), ends.tolist(), hpas.tolist()):
            for i in range(end - start):
                insert(start + i, hpa + i)
        return self._delta(before)

    def delete_runs(self, starts: np.ndarray, ends: np.ndarray) -> int:
        before = self.map.levels_touched
        delete = self.map.delete
        for start, end in zip(starts.tolist(), ends.tolist()):
            for gpa in range(start, end):
                delete(gpa)
        return self._delta(before)

    def lookup(self, gpa_pfn: int) -> int:
        before = self.map.levels_touched
        try:
            self.map.get(gpa_pfn)
        except KeyError:
            pass
        return self._delta(before)

    def __len__(self) -> int:
        return len(self.map)


class VmmMemoryMap:
    """GPA→HPA map with selectable cost backend ("rbtree" or "radix")."""

    def __init__(self, costs: CostModel, backend: str = "rbtree",
                 coalesce: bool = False):
        self.costs = costs
        if backend == "rbtree":
            self.backend = _RbBackend(costs)
        elif backend == "radix":
            self.backend = _RadixBackend(costs)
        else:
            raise ValueError(f"unknown memory-map backend {backend!r}")
        #: Palacios as shipped inserts one entry per delivered PFN — the
        #: paper's §5.4 measures per-page tree growth even for physically
        #: contiguous Kitten exports. ``coalesce=True`` is our ablation C:
        #: merge contiguous host runs into single entries before inserting.
        self.coalesce = coalesce
        #: Entry ``i`` maps guest frames ``[starts[i], ends[i])`` to host
        #: frames from ``hpas[i]``; sorted by start, never overlapping.
        self._starts = self._ends = self._hpas = np.empty(0, dtype=np.int64)
        self._cache: Optional[MapEntry] = None
        self.total_work_ns = 0
        self.last_op_work_ns = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def _charge(self, ns: int) -> None:
        self.total_work_ns += ns
        self.last_op_work_ns += ns

    # -- mutation -------------------------------------------------------------------

    def insert_mapping(self, gpa_start_pfn: int, hpa_pfns: np.ndarray,
                       coalesce: Optional[bool] = None) -> int:
        """Map ``len(hpa_pfns)`` guest pages at ``gpa_start_pfn``.

        One entry per delivered page by default (the shipped Palacios
        behaviour §5.4 measures); one entry per contiguous host run when
        coalescing. Returns the modeled work (ns) — the figure Table 2's
        "w/o rb-tree inserts" column subtracts.
        """
        coalesce = self.coalesce if coalesce is None else coalesce
        hpa_pfns = np.asarray(hpa_pfns, dtype=np.int64)
        npages = len(hpa_pfns)
        if npages == 0:
            raise ValueError("empty mapping")
        end = gpa_start_pfn + npages
        pos = int(np.searchsorted(self._starts, gpa_start_pfn))
        if (pos > 0 and self._ends[pos - 1] > gpa_start_pfn) or (
                pos < len(self._starts) and self._starts[pos] < end):
            raise ValueError(f"gpa range [{gpa_start_pfn}, {end}) overlaps")
        if coalesce:
            runs = pfns_to_ranges(hpa_pfns)
            hpas, lengths = runs.starts, runs.lengths
        else:
            hpas, lengths = hpa_pfns, np.ones(npages, dtype=np.int64)
        if hpas.min() < 0:  # a run's lowest frame is its start
            raise ValueError(f"negative host pfn {int(hpas.min())}")
        ends = gpa_start_pfn + np.cumsum(lengths)
        starts = ends - lengths
        self.last_op_work_ns = 0
        self._charge(self.backend.insert_runs(starts, ends, hpas))
        # concatenate, not np.insert: a tenth of the call overhead
        self._starts = np.concatenate((self._starts[:pos], starts, self._starts[pos:]))
        self._ends = np.concatenate((self._ends[:pos], ends, self._ends[pos:]))
        self._hpas = np.concatenate((self._hpas[:pos], hpas, self._hpas[pos:]))
        self._cache = None
        return self.last_op_work_ns

    def remove_mapping(self, gpa_start_pfn: int, npages: int) -> int:
        """Remove every entry fully inside the GPA range."""
        if npages <= 0:
            raise ValueError(f"bad removal size {npages}")
        self.last_op_work_ns = 0
        end = gpa_start_pfn + npages
        i = int(np.searchsorted(self._starts, gpa_start_pfn))
        j = int(np.searchsorted(self._ends, end, side="right"))
        if int((self._ends[i:j] - self._starts[i:j]).sum()) != npages:
            raise KeyError(
                f"gpa range [{gpa_start_pfn}, {end}) does not match whole entries"
            )
        self._charge(self.backend.delete_runs(self._starts[i:j], self._ends[i:j]))
        self._starts = np.concatenate((self._starts[:i], self._starts[j:]))
        self._ends = np.concatenate((self._ends[:i], self._ends[j:]))
        self._hpas = np.concatenate((self._hpas[:i], self._hpas[j:]))
        self._cache = None
        return self.last_op_work_ns

    # -- translation ------------------------------------------------------------------

    def _entry(self, i: int) -> MapEntry:
        start = int(self._starts[i])
        return MapEntry(start, int(self._ends[i]) - start, int(self._hpas[i]))

    def _entry_for(self, gpa_pfn: int) -> MapEntry:
        i = int(np.searchsorted(self._starts, gpa_pfn, side="right")) - 1
        if i < 0 or gpa_pfn >= self._ends[i]:
            raise TranslationError(f"gpa pfn {gpa_pfn} unmapped")
        return self._entry(i)

    def translate(self, gpa_pfn: int) -> int:
        """GPA→HPA for one page, through the last-entry cache."""
        cache = self._cache
        if cache is not None and cache.gpa_start_pfn <= gpa_pfn < cache.gpa_end_pfn:
            self.cache_hits += 1
            self._charge(self.costs.memmap_cache_hit_ns)
            return cache.translate(gpa_pfn)
        self.cache_misses += 1
        self._charge(self.backend.lookup(gpa_pfn))
        entry = self._entry_for(gpa_pfn)
        self._cache = entry
        return entry.translate(gpa_pfn)

    def translate_array(self, gpa_pfns: np.ndarray) -> np.ndarray:
        """Vectorized GPA→HPA for a PFN list (the Fig. 4(b) walk).

        Work accounting models the cache exactly: one real backend lookup
        per run transition in the access sequence, cache-hit cost for the
        rest.
        """
        gpa_pfns = np.asarray(gpa_pfns, dtype=np.int64)
        if len(gpa_pfns) == 0:
            raise ValueError("empty translation")
        self.last_op_work_ns = 0
        starts, ends, hpas = self._starts, self._ends, self._hpas
        if len(starts) == 0:
            raise TranslationError("memory map is empty")
        idx = np.searchsorted(starts, gpa_pfns, side="right") - 1
        if (idx < 0).any():
            bad = int(gpa_pfns[int(np.argmax(idx < 0))])
            raise TranslationError(f"gpa pfn {bad} unmapped")
        inside = gpa_pfns < ends[idx]
        if not inside.all():
            bad = int(gpa_pfns[int(np.argmax(~inside))])
            raise TranslationError(f"gpa pfn {bad} unmapped")
        # cache modeling: a backend lookup whenever the entry changes
        run_starts = np.flatnonzero(np.r_[True, np.diff(idx) != 0])
        first_cached = (
            self._cache is not None
            and self._cache.gpa_start_pfn <= gpa_pfns[0] < self._cache.gpa_end_pfn
        )
        if first_cached:
            run_starts = run_starts[1:]
        misses = len(run_starts)
        hits = len(gpa_pfns) - misses
        self.cache_hits += hits
        self.cache_misses += misses
        self._charge(hits * self.costs.memmap_cache_hit_ns)
        for i in run_starts:
            self._charge(self.backend.lookup(int(gpa_pfns[i])))
        self._cache = self._entry(idx[-1])
        return hpas[idx] + (gpa_pfns - starts[idx])

    def peek_translate_array(self, gpa_pfns: np.ndarray) -> np.ndarray:
        """GPA→HPA without cost accounting.

        Used for *data* access (the hardware MMU does these walks; their
        cost is part of ordinary memory-access time, not VMM work).
        """
        gpa_pfns = np.asarray(gpa_pfns, dtype=np.int64)
        starts, ends, hpas = self._starts, self._ends, self._hpas
        if len(starts) == 0:
            raise TranslationError("memory map is empty")
        idx = np.searchsorted(starts, gpa_pfns, side="right") - 1
        if (idx < 0).any() or not (gpa_pfns < ends[idx]).all():
            raise TranslationError("unmapped gpa pfn in range")
        return hpas[idx] + (gpa_pfns - starts[idx])

    # -- introspection ---------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Entries currently in the map."""
        return len(self._starts)

    @property
    def backend_size(self) -> int:
        """Node/leaf count in the cost-accounting backend."""
        return len(self.backend)

    def max_gpa_pfn(self) -> int:
        """One past the highest mapped guest PFN (for GPA allocation)."""
        return int(self._ends[-1]) if len(self._ends) else 0
