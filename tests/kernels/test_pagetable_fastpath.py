"""Edge cases for the page table's fast paths: zero-page range ops, the
generation-keyed walk cache (fast fidelity only), and the
sparse/vectorized helpers."""

import numpy as np
import pytest

from repro import obs
from repro.kernels.pagetable import (
    PAGE_SIZE,
    PML4_SLOT_SPAN,
    WALK_CACHE_SLOTS,
    PageFault,
    PageTable,
    PTE_PINNED,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
)
from repro.sim import fidelity

RW = PTE_PRESENT | PTE_WRITABLE | PTE_USER


def _mapped(npages=8, base=0x40_0000):
    pt = PageTable()
    pt.map_range(base, np.arange(100, 100 + npages, dtype=np.int64), RW)
    return pt, base


# -- zero-page ranges are well-defined no-ops -----------------------------------------


@pytest.mark.parametrize("fast", [True, False])
def test_zero_page_range_ops_are_noops(fast):
    ctx = fidelity.fast() if fast else fidelity.detailed()
    with ctx:
        pt, base = _mapped()
        gen = pt.generation
        pt.map_range(base + 0x100000, np.empty(0, dtype=np.int64), RW)
        out = pt.unmap_range(base, 0)
        assert out.shape == (0,)
        walked = pt.translate_range(base, 0)
        assert walked.shape == (0,)
        assert pt.range_flags_all(base, 0, PTE_WRITABLE)
        pt.set_flags_range(base, 0, set_mask=PTE_PINNED)
        # nothing changed: not the mapping count, not the generation
        assert pt.present_pages == 8
        assert pt.generation == gen
        # ...even on a completely unmapped address
        assert pt.translate_range(0x7000_0000, 0).shape == (0,)


@pytest.mark.parametrize("fast", [True, False])
def test_negative_page_count_rejected(fast):
    ctx = fidelity.fast() if fast else fidelity.detailed()
    with ctx:
        pt, base = _mapped()
        with pytest.raises(ValueError):
            pt.translate_range(base, -1)
        with pytest.raises(ValueError):
            pt.unmap_range(base, -3)


# -- walk cache -----------------------------------------------------------------------


def test_walk_cache_hits_on_repeat_walks():
    with fidelity.fast(), obs.observing(metrics=True) as ctx:
        pt, base = _mapped(16)
        first = pt.translate_range(base, 16)
        second = pt.translate_range(base, 16)
    np.testing.assert_array_equal(first, second)
    assert ctx.metrics.snapshot()["fastpath.walkcache.hits"] == 1


def test_walk_cache_invalidated_by_pfn_mutations():
    with fidelity.fast(), obs.observing(metrics=True) as ctx:
        pt, base = _mapped(16)
        pt.translate_range(base, 16)          # prime
        pt.map_page(base + 16 * PAGE_SIZE, 999, RW)
        after_map = pt.translate_range(base, 16)     # stale -> rewalk
        pt.translate_range(base, 16)                  # fresh -> hit
        pt.unmap_page(base + 16 * PAGE_SIZE)
        after_unmap = pt.translate_range(base, 16)   # stale again
    np.testing.assert_array_equal(after_map, after_unmap)
    assert ctx.metrics.snapshot()["fastpath.walkcache.hits"] == 1


def test_walk_cache_survives_flag_only_mutations():
    """Pinning (set_flags*) must not evict — the recurring-attach case."""
    with fidelity.fast(), obs.observing(metrics=True) as ctx:
        pt, base = _mapped(16)
        pt.translate_range(base, 16)
        pt.set_flags_range(base, 16, set_mask=PTE_PINNED)
        pt.set_flags(base, set_mask=0, clear_mask=PTE_PINNED)
        pt.translate_range(base, 16)
    assert ctx.metrics.snapshot()["fastpath.walkcache.hits"] == 1


def _assert_frozen(pfns):
    assert not pfns.flags.writeable
    with pytest.raises(ValueError):
        pfns[:] = -1


def test_translate_range_returns_read_only():
    """Every walk hands out one shared, read-only array: a stray write
    raises instead of corrupting the walk cache."""
    with fidelity.fast():
        pt, base = _mapped(4)
        first = pt.translate_range(base, 4)  # miss: stored and returned
        _assert_frozen(first)
        second = pt.translate_range(base, 4)  # hit: the cached array itself
        _assert_frozen(second)
        assert second is first
        np.testing.assert_array_equal(pt.translate_range(base, 4), np.arange(100, 104))
        _assert_frozen(pt.translate_range(base, 0))
    with fidelity.detailed():
        pt, base = _mapped(4)
        _assert_frozen(pt.translate_range(base, 4))
        np.testing.assert_array_equal(pt.translate_range(base, 4), np.arange(100, 104))
        _assert_frozen(pt.translate_range(base, 0))
    with fidelity.fast():
        donor, _ = _mapped(4)
        borrower = PageTable()
        borrower.share_pml4_slot(1, donor)
        crossing = borrower.translate_range(PML4_SLOT_SPAN + 0x40_0000, 4)
        _assert_frozen(crossing)
        np.testing.assert_array_equal(donor.translate_range(0x40_0000, 4), np.arange(100, 104))


def test_walk_cache_eviction_is_bounded():
    with fidelity.fast():
        pt = PageTable()
        n = WALK_CACHE_SLOTS + 4
        pt.map_range(0x40_0000, np.arange(1, 1 + n, dtype=np.int64), RW)
        for i in range(n):
            pt.translate_range(0x40_0000 + i * PAGE_SIZE, 1)
        assert len(pt._walk_cache) == WALK_CACHE_SLOTS


def test_walk_cache_bypasses_smartmap_slots():
    """Ranges through a borrowed PML4 slot can change under the donor's
    generation, so they must never be cached."""
    with fidelity.fast(), obs.observing(metrics=True) as ctx:
        donor = PageTable()
        donor.map_range(0x40_0000, np.arange(500, 508, dtype=np.int64), RW)
        borrower = PageTable()
        borrower.share_pml4_slot(1, donor)
        alias = PML4_SLOT_SPAN + 0x40_0000
        first = borrower.translate_range(alias, 8)
        borrower.translate_range(alias, 8)
        # donor-side remap must be visible immediately through the alias
        donor.unmap_page(0x40_0000)
        donor.map_page(0x40_0000, 7777, RW)
        assert borrower.translate_range(alias, 8)[0] == 7777
    assert first[0] == 500
    assert "fastpath.walkcache.hits" not in ctx.metrics.snapshot()


# -- presence / flag masks ------------------------------------------------------------


@pytest.mark.parametrize("fast", [True, False])
def test_present_mask_never_faults(fast):
    ctx = fidelity.fast() if fast else fidelity.detailed()
    with ctx:
        pt, base = _mapped(4)
        mask = pt.present_mask(base - 2 * PAGE_SIZE, 8)
        np.testing.assert_array_equal(
            mask, [False, False, True, True, True, True, False, False]
        )
        # a range entirely inside an absent leaf table
        assert not pt.present_mask(0x7000_0000, 3).any()
        assert pt.present_mask(base, 0).shape == (0,)


def test_flag_mask_requires_present_and_flags():
    pt = PageTable()
    pt.map_page(0x40_0000, 1, RW)
    pt.map_page(0x40_1000, 2, PTE_PRESENT | PTE_USER)  # read-only
    mask = pt.flag_mask(0x40_0000, 3, PTE_WRITABLE)
    np.testing.assert_array_equal(mask, [True, False, False])


# -- sparse mapping -------------------------------------------------------------------


def test_map_pages_sparse_across_leaves():
    pt = PageTable()
    # sorted-unique indices straddling a 512-entry leaf boundary
    idx = np.array([0, 3, 511, 513, 515], dtype=np.int64)
    pfns = np.array([9100, 9101, 9102, 9103, 9104], dtype=np.int64)
    pt.map_pages_sparse(0x40_0000, idx, pfns)
    assert pt.present_pages == 5
    for i, pfn in zip(idx, pfns):
        assert pt.translate(0x40_0000 + int(i) * PAGE_SIZE)[0] == pfn
    # the in-between holes are still holes
    with pytest.raises(PageFault):
        pt.translate(0x40_0000 + 2 * PAGE_SIZE)


def test_map_pages_sparse_collision_is_atomic():
    pt = PageTable()
    pt.map_page(0x40_0000 + 4 * PAGE_SIZE, 55, RW)
    gen = pt.generation
    with pytest.raises(ValueError, match="already mapped"):
        pt.map_pages_sparse(
            0x40_0000,
            np.array([1, 4, 7], dtype=np.int64),
            np.array([70, 71, 72], dtype=np.int64),
        )
    assert pt.present_pages == 1
    assert pt.generation == gen
    with pytest.raises(PageFault):
        pt.translate(0x40_0000 + PAGE_SIZE)  # index 1 was not installed


def test_map_pages_sparse_empty_is_noop():
    pt = PageTable()
    gen = pt.generation
    pt.map_pages_sparse(
        0x40_0000, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    )
    assert pt.present_pages == 0
    assert pt.generation == gen
