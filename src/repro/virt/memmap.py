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
  giving exact translations. A :class:`MapEntry` is built only when one
  entry is asked for.
* A PFN list (:meth:`translate_array`, :meth:`peek_translate_array`) is
  resolved by segment, not by page: its maximal runs of consecutive PFNs
  find their first and last entries with ``searchsorted`` on the run
  endpoints, a run crossing entries splits into one segment per entry,
  and each segment is ``gpa + delta``. Guest exports are a few long
  runs, so the cost is per run; maps of per-page entries stay vectorized
  with segments ≈ pages.
* Every mutation/lookup is *mirrored* into the configured backend — the
  real red–black tree or the real radix tree — and the nodes/levels the
  backend actually touches are converted to nanoseconds. No asymptotic
  hand-waving: rebalancing work is whatever the tree really did. A
  mapping's entries go to the backend together, in ascending GPA order,
  and are charged as one visit/level delta: the charge is linear in the
  count, so the sum is the same as entry by entry. The RB backend
  replays a recurring attach/detach cycle from the visits the tree
  itself charged for it, out of one table shared by every map in the
  host process, and builds the tree whenever a replay cannot stand in
  for it (see :class:`_RbBackend`).

A last-entry cache (TLB-like) fronts :meth:`translate`; sequential
translations through a large VM-RAM entry hit it almost always, which is
why guest-*export* translation (Fig. 4(b)) is cheap while guest-*attach*
insertion (Fig. 4(a)) is not — inserts can't be cached. A list walk is
charged per segment — one backend lookup at each entry change, hits for
the rest — which is exactly what a page-by-page walk through the cache
would charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.hw.costs import CostModel
from repro.hw.memory import FrameRangeList, pfns_to_ranges
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


#: A cycle's key: the base tree's :meth:`RedBlackTree.shape` and the
#: batch size.
_CycleKey = Tuple[Tuple[int, ...], int]
#: A cycle's record: the insert visits, then the delete visits and the
#: base's shape after the delete (both None until a delete completes it).
_Cycle = Tuple[int, Optional[int], Optional[Tuple[int, ...]]]

#: Every RB backend's cycle records, shared by the whole host process: a
#: record is a pure function of its key, so a table warmed by any map,
#: engine or order holds the same values as a cold one.
_CYCLES: Dict[_CycleKey, _Cycle] = {}


def _remember(key: _CycleKey, cycle: _Cycle) -> None:
    _CYCLES[key] = cycle  # repro: noqa[REP110] reason=values are a pure function of the key (base shape and colours, batch size), so sharing the table across maps and engines cannot move a simulated value


class _RbBackend:
    """Cost mirror: one RB node per contiguous run, charged as the real
    tree's visit delta.

    A guest attach inserts a batch of keys that ascend from above the
    tree's maximum (the VMM hands out guest-physical space from a
    monotone cursor), and its detach deletes exactly that batch again,
    so in steady state every attach finds the same few base trees. Such
    a cycle's visits, and the base's shape after the delete, depend only
    on the base's shape and colours and on the batch size, and the
    backend replays them from the process-wide table :data:`_CYCLES`
    instead of rebuilding the same nodes:

    * **Record.** A real ascending, above-max insert of ``n`` keys on a
      base of shape ``S`` with at most ``n`` nodes stores ``(S, n) ->
      (insert visits, None, None)`` as soon as it is built; a real
      delete of exactly that batch, as the very next op, completes it
      to ``(insert visits, delete visits, shape after the delete)``.
    * **Hit.** A later such insert whose ``(S, n)`` is stored charges
      the stored insert visits (adding them to ``tree.visits`` too) and
      holds the batch *pending*, unbuilt. A delete of exactly the
      pending batch charges the stored delete visits, drops the batch
      and, where the stored shape is not ``S``, relinks the base's own
      nodes into it (:meth:`RedBlackTree.reshape`), as the real delete
      would have left them. A record still waiting for its delete half
      builds the batch and deletes it for real, which completes it.
    * **Miss.** Any other op while a batch is pending — a lookup, an
      insert, a delete of anything else — first builds the batch into
      the tree and raises if that took other visits than were charged.

    The fingerprint (:meth:`RedBlackTree.shape`), the reshape, the
    max-key and the order checks count no visits, and a batch smaller
    than the tree is never fingerprinted, so checking never costs more
    than the batch.
    """

    name = "rbtree"

    def __init__(self, costs: CostModel):
        self.tree = RedBlackTree()
        self.costs = costs
        #: The replayed, unbuilt batch: (its key, starts, hpas, its record).
        self._pending: Optional[
            Tuple[_CycleKey, np.ndarray, np.ndarray, _Cycle]] = None
        #: The last op's built batch, while its delete may complete its
        #: record: (key, starts, insert visits).
        self._recording: Optional[Tuple[_CycleKey, np.ndarray, int]] = None

    def _ns(self, visits: int) -> int:
        return visits * self.costs.rb_node_visit_ns

    def _appends(self, starts: np.ndarray) -> bool:
        """Whether ``starts`` ascend strictly from above the tree's max."""
        top = self.tree.peek_max_key()
        return ((top is None or int(starts[0]) > top)
                and bool((starts[1:] > starts[:-1]).all()))

    def _build(self, starts: np.ndarray, hpas: np.ndarray) -> int:
        """Insert a batch into the tree; returns the visits it took."""
        tree = self.tree
        before = tree.visits
        insert = tree.insert
        for start, hpa in zip(starts.tolist(), hpas.tolist()):
            insert(start, hpa)
        return tree.visits - before

    def _materialize(self) -> None:
        """Build the pending batch into the tree; its visits were charged.
        The built batch may complete its record, as a real insert's."""
        pending, self._pending = self._pending, None
        if pending is None:
            return
        key, starts, hpas, (charged, _deleted, _after) = pending
        built = self._build(starts, hpas)
        self.tree.visits -= built
        if built != charged:
            raise AssertionError(
                f"replayed batch of {len(starts)} keys was charged {charged} "
                f"visits but building it took {built}")
        self._recording = (key, starts, charged)

    def insert_runs(self, starts: np.ndarray, ends: np.ndarray,
                    hpas: np.ndarray) -> int:
        self._materialize()
        self._recording = None
        tree = self.tree
        n = len(starts)
        if not (n and n >= tree.size and self._appends(starts)):
            return self._ns(self._build(starts, hpas))
        key = (tree.shape(), n)
        hit = _CYCLES.get(key)
        if hit is not None:
            tree.visits += hit[0]
            self._pending = (key, starts.copy(), hpas.copy(), hit)
            return self._ns(hit[0])
        visits = self._build(starts, hpas)
        _remember(key, (visits, None, None))
        self._recording = (key, starts.copy(), visits)
        return self._ns(visits)

    def delete_runs(self, starts: np.ndarray, ends: np.ndarray) -> int:
        tree = self.tree
        pending = self._pending
        if pending is not None and np.array_equal(starts, pending[1]):
            key, _starts, _hpas, (_inserted, deleted, after) = pending
            if deleted is not None:
                self._pending = None
                tree.visits += deleted
                if after != key[0]:
                    tree.reshape(after)
                return self._ns(deleted)
        self._materialize()
        recording, self._recording = self._recording, None
        before = tree.visits
        delete = tree.delete
        for start in starts.tolist():
            delete(start)
        visits = tree.visits - before
        if recording is not None:
            key, batch, inserted = recording
            if np.array_equal(starts, batch):
                _remember(key, (inserted, visits, tree.shape()))
        return self._ns(visits)

    def lookup(self, gpa_pfn: int) -> int:
        self._materialize()
        self._recording = None
        before = self.tree.visits
        self.tree.floor(gpa_pfn)
        return self._ns(self.tree.visits - before)

    def __len__(self) -> int:
        pending = self._pending
        return len(self.tree) + (0 if pending is None else len(pending[1]))


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

    def insert_mapping(self, gpa_start_pfn: int,
                       hpa_pfns: Union[np.ndarray, FrameRangeList],
                       coalesce: Optional[bool] = None) -> int:
        """Map host frames to guest pages from ``gpa_start_pfn``.

        ``hpa_pfns`` is a host PFN array or, so that a contiguous
        allocation is never flattened, its runs. One entry per delivered
        page by default (the shipped Palacios behaviour §5.4 measures);
        one entry per maximal contiguous host run when coalescing.
        Returns the modeled work (ns) — the figure Table 2's "w/o rb-tree
        inserts" column subtracts.
        """
        coalesce = self.coalesce if coalesce is None else coalesce
        if coalesce:
            runs = (hpa_pfns.coalesced() if isinstance(hpa_pfns, FrameRangeList)
                    else pfns_to_ranges(np.asarray(hpa_pfns, dtype=np.int64)))
            hpas, lengths = runs.starts, runs.lengths
        else:
            hpas = (hpa_pfns.pfns() if isinstance(hpa_pfns, FrameRangeList)
                    else np.asarray(hpa_pfns, dtype=np.int64))
            lengths = np.ones(len(hpas), dtype=np.int64)
        if len(hpas) == 0:
            raise ValueError("empty mapping")
        end = gpa_start_pfn + int(lengths.sum())
        pos = int(np.searchsorted(self._starts, gpa_start_pfn))
        if (pos > 0 and self._ends[pos - 1] > gpa_start_pfn) or (
                pos < len(self._starts) and self._starts[pos] < end):
            raise ValueError(f"gpa range [{gpa_start_pfn}, {end}) overlaps")
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
        self.last_op_work_ns = 0
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

    def _resolve(self, gpa_pfns: np.ndarray, unmapped: str = "gpa pfn {} unmapped"
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Translate a non-empty PFN list by (run × entry) segment.

        A run is a maximal stretch of consecutive PFNs; a run that crosses
        entries is split at each entry boundary, so every segment is
        ``gpa + delta`` for one entry's delta. Returns the segments' entry
        indices and first guest PFNs, in element order, and the host
        frames in a fresh array. Raises :class:`TranslationError` with
        ``unmapped`` formatted with the first PFN below the first entry,
        if any, else with the first PFN (in input order) no entry covers.
        """
        starts, ends = self._starts, self._ends
        if len(starts) == 0:
            raise TranslationError("memory map is empty")
        breaks = np.flatnonzero(gpa_pfns[1:] - gpa_pfns[:-1] != 1)
        first = gpa_pfns[np.concatenate(([0], breaks + 1))]
        last = gpa_pfns[np.append(breaks, len(gpa_pfns) - 1)]
        lo = starts.searchsorted(first, "right") - 1
        hi = starts.searchsorted(last, "right") - 1
        base = int(lo.min())
        if base < 0:
            raise TranslationError(unmapped.format(int(first[int(np.argmax(lo < 0))])))
        # gaps[k - base]: how many neighbour pairs among entries base..k
        # leave a hole, so a run over entries lo..hi is hole-free iff
        # gaps[hi - base] == gaps[lo - base]
        top = int(hi.max())
        gaps = np.concatenate(([0], (ends[base:top] < starts[base + 1:top + 1]).cumsum()))
        covered = ((first < ends[lo]) & (last < ends[hi])
                   & (gaps[hi - base] == gaps[lo - base]))
        if not covered.all():
            r = int(np.argmax(~covered))
            ks = np.arange(lo[r], hi[r] + 1)
            hole = np.append(ends[ks[:-1]] < starts[ks[1:]], True)
            bad = max(int(first[r]), int(ends[ks[int(np.argmax(hole))]]))
            raise TranslationError(unmapped.format(bad))
        count = hi - lo + 1
        run_end = count.cumsum()
        run_head = run_end - count
        entry = np.arange(int(run_end[-1])) + (lo - run_head).repeat(count)
        seg_first = starts[entry]
        seg_first[run_head] = first
        seg_end = ends[entry]
        seg_end[run_end - 1] = last + 1
        hpa = (self._hpas[entry] - starts[entry]).repeat(seg_end - seg_first)
        hpa += gpa_pfns
        return entry, seg_first, hpa

    def translate_array(self, gpa_pfns: np.ndarray) -> np.ndarray:
        """Vectorized GPA→HPA for a PFN list (the Fig. 4(b) walk).

        Work accounting models the cache exactly, per segment: one real
        backend lookup, at the segment's first page, wherever the entry
        changes in the access sequence (the first one skipped when the
        cache already holds the first page's entry), cache-hit cost for
        every other page.
        """
        gpa_pfns = np.asarray(gpa_pfns, dtype=np.int64)
        if len(gpa_pfns) == 0:
            raise ValueError("empty translation")
        self.last_op_work_ns = 0
        entry, seg_first, hpa = self._resolve(gpa_pfns)
        change = np.flatnonzero(np.concatenate(([True], entry[1:] != entry[:-1])))
        cache = self._cache
        if cache is not None and cache.gpa_start_pfn <= gpa_pfns[0] < cache.gpa_end_pfn:
            change = change[1:]
        misses = len(change)
        hits = len(gpa_pfns) - misses
        self.cache_hits += hits
        self.cache_misses += misses
        lookup = self.backend.lookup
        self._charge(hits * self.costs.memmap_cache_hit_ns
                     + sum(lookup(gpa) for gpa in seg_first[change].tolist()))
        self._cache = self._entry(int(entry[-1]))
        return hpa

    def peek_translate_array(self, gpa_pfns: np.ndarray) -> np.ndarray:
        """GPA→HPA without cost accounting.

        Used for *data* access (the hardware MMU does these walks; their
        cost is part of ordinary memory-access time, not VMM work).
        """
        gpa_pfns = np.asarray(gpa_pfns, dtype=np.int64)
        if len(gpa_pfns) == 0 and len(self._starts):
            return np.empty(0, dtype=np.int64)
        return self._resolve(gpa_pfns, "unmapped gpa pfn in range")[2]

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
