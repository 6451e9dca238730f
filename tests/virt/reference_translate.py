# Frozen copy of the original per-page VmmMemoryMap translations, kept as a
# test oracle: the map under test must return the same frames, charge the
# same ns, count the same cache hits and misses, leave the same cached
# entry, touch the same backend nodes and raise the same errors as these.
# Do not edit them along with repro.virt.memmap.
"""The memory map's list translations as first written: each page finds
its entry with its own ``searchsorted``, and the cache model charges a
backend lookup wherever the entry changes in the access sequence.

Both functions take the :class:`~repro.virt.memmap.VmmMemoryMap` as their
first argument and work on its columns, cache and counters directly.
"""

from __future__ import annotations

import numpy as np

from repro.virt.memmap import TranslationError


def translate_array(mm, gpa_pfns: np.ndarray) -> np.ndarray:
    """Vectorized GPA→HPA for a PFN list (the Fig. 4(b) walk).

    Work accounting models the cache exactly: one real backend lookup
    per run transition in the access sequence, cache-hit cost for the
    rest.
    """
    gpa_pfns = np.asarray(gpa_pfns, dtype=np.int64)
    if len(gpa_pfns) == 0:
        raise ValueError("empty translation")
    mm.last_op_work_ns = 0
    starts, ends, hpas = mm._starts, mm._ends, mm._hpas
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
        mm._cache is not None
        and mm._cache.gpa_start_pfn <= gpa_pfns[0] < mm._cache.gpa_end_pfn
    )
    if first_cached:
        run_starts = run_starts[1:]
    misses = len(run_starts)
    hits = len(gpa_pfns) - misses
    mm.cache_hits += hits
    mm.cache_misses += misses
    mm._charge(hits * mm.costs.memmap_cache_hit_ns)
    for i in run_starts:
        mm._charge(mm.backend.lookup(int(gpa_pfns[i])))
    mm._cache = mm._entry(idx[-1])
    return hpas[idx] + (gpa_pfns - starts[idx])


def peek_translate_array(mm, gpa_pfns: np.ndarray) -> np.ndarray:
    """GPA→HPA without cost accounting.

    Used for *data* access (the hardware MMU does these walks; their
    cost is part of ordinary memory-access time, not VMM work).
    """
    gpa_pfns = np.asarray(gpa_pfns, dtype=np.int64)
    starts, ends, hpas = mm._starts, mm._ends, mm._hpas
    if len(starts) == 0:
        raise TranslationError("memory map is empty")
    idx = np.searchsorted(starts, gpa_pfns, side="right") - 1
    if (idx < 0).any() or not (gpa_pfns < ends[idx]).all():
        raise TranslationError("unmapped gpa pfn in range")
    return hpas[idx] + (gpa_pfns - starts[idx])
