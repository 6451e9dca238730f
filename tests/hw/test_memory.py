"""Unit tests for physical memory, frame allocation, and mapped regions."""

import numpy as np
import pytest

from repro.hw import (
    FrameAllocator,
    FrameRange,
    OutOfMemoryError,
    PhysicalMemory,
)
from repro.hw.costs import MB, PAGE_4K
from repro.hw.memory import FrameRangeList, MappedRegion, pfns_to_ranges, ranges_to_pfns
from repro.xemem.shmem import AttachedRegion


# -- FrameRange ---------------------------------------------------------------


def test_frame_range_properties():
    r = FrameRange(10, 5)
    assert r.end_pfn == 15
    assert r.nbytes == 5 * PAGE_4K
    assert list(r.pfns()) == [10, 11, 12, 13, 14]


def test_frame_range_validation():
    with pytest.raises(ValueError):
        FrameRange(0, 0)
    with pytest.raises(ValueError):
        FrameRange(-1, 1)


def test_frame_range_overlap():
    assert FrameRange(0, 10).overlaps(FrameRange(9, 1))
    assert not FrameRange(0, 10).overlaps(FrameRange(10, 1))


def test_ranges_pfns_roundtrip():
    ranges = [FrameRange(0, 3), FrameRange(10, 2), FrameRange(12, 1)]
    pfns = ranges_to_pfns(ranges)
    assert list(pfns) == [0, 1, 2, 10, 11, 12]
    # 10,11,12 coalesce into one run on the way back
    back = pfns_to_ranges(pfns)
    assert back == [FrameRange(0, 3), FrameRange(10, 3)]


def test_empty_ranges_to_pfns():
    assert len(ranges_to_pfns([])) == 0
    assert pfns_to_ranges(np.empty(0, dtype=np.int64)) == []


def test_coalesced_merges_adjacent_runs_without_flattening():
    runs = FrameRangeList([0, 10, 12, 13, 20], [3, 2, 1, 4, 1])
    merged = runs.coalesced()
    assert merged == [FrameRange(0, 3), FrameRange(10, 7), FrameRange(20, 1)]
    assert merged == pfns_to_ranges(runs.pfns())
    assert merged.coalesced() is merged  # already maximal: no copy
    empty = FrameRangeList(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert empty.coalesced() is empty


# -- FrameAllocator -----------------------------------------------------------


def test_alloc_contiguous_first_fit():
    a = FrameAllocator(0, 100)
    r1 = a.alloc(10)
    r2 = a.alloc(20)
    assert (r1.start_pfn, r1.nframes) == (0, 10)
    assert (r2.start_pfn, r2.nframes) == (10, 20)
    assert a.free_frames == 70
    assert a.used_frames == 30


def test_alloc_exhaustion():
    a = FrameAllocator(0, 10)
    a.alloc(10)
    with pytest.raises(OutOfMemoryError):
        a.alloc(1)


def test_alloc_contiguous_fails_on_fragmentation():
    a = FrameAllocator(0, 30)
    r1 = a.alloc(10)
    r2 = a.alloc(10)
    r3 = a.alloc(10)
    a.free(r1)
    a.free(r3)
    # 20 frames free but max contiguous run is 10
    assert a.free_frames == 20
    with pytest.raises(OutOfMemoryError):
        a.alloc(15)
    del r2


def test_free_coalesces():
    a = FrameAllocator(0, 30)
    r1 = a.alloc(10)
    r2 = a.alloc(10)
    r3 = a.alloc(10)
    a.free(r1)
    a.free(r3)
    a.free(r2)  # bridges both neighbours
    assert a.free_frames == 30
    assert a.alloc(30).nframes == 30


def test_double_free_detected():
    a = FrameAllocator(0, 10)
    r = a.alloc(5)
    a.free(r)
    with pytest.raises(ValueError, match="double free"):
        a.free(r)


def test_free_outside_window_rejected():
    a = FrameAllocator(100, 10)
    with pytest.raises(ValueError, match="outside"):
        a.free(FrameRange(0, 5))


def test_alloc_pages_spans_fragments():
    a = FrameAllocator(0, 30)
    r1 = a.alloc(10)
    _r2 = a.alloc(10)
    r3 = a.alloc(10)
    a.free(r1)
    a.free(r3)
    got = a.alloc_pages(15)
    assert sum(r.nframes for r in got) == 15
    assert got[0] == FrameRange(0, 10)
    assert got[1] == FrameRange(20, 5)


def test_alloc_scattered_is_single_frames():
    a = FrameAllocator(0, 16)
    got = a.alloc_scattered(5)
    assert all(r.nframes == 1 for r in got)
    assert len(got) == 5


def test_alloc_pages_insufficient():
    a = FrameAllocator(0, 10)
    with pytest.raises(OutOfMemoryError):
        a.alloc_pages(11)


def test_allocator_reuse_cycle():
    a = FrameAllocator(0, 64)
    for _ in range(50):
        got = a.alloc_pages(64, max_run=7)
        a.free_all(got)
    assert a.free_frames == 64
    assert a.alloc(64).nframes == 64


# -- PhysicalMemory and NUMA ----------------------------------------------------


def test_numa_zone_layout():
    mem = PhysicalMemory([16 * MB, 16 * MB])
    assert mem.total_frames == 2 * 16 * MB // PAGE_4K
    z0, z1 = mem.zones
    assert z0.start_pfn == 0
    assert z1.start_pfn == z0.nframes
    assert mem.zone_of_pfn(0) is z0
    assert mem.zone_of_pfn(z1.start_pfn) is z1


def test_zone_of_bad_pfn():
    mem = PhysicalMemory([1 * MB])
    with pytest.raises(ValueError):
        mem.zone_of_pfn(10**9)


def test_bad_zone_sizes_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory([])
    with pytest.raises(ValueError):
        PhysicalMemory([PAGE_4K + 1])


def test_frame_view_is_writable_and_aliases():
    mem = PhysicalMemory([1 * MB])
    view = mem.frame_view(3)
    view[:] = 0xAB
    again = mem.frame_view(3)
    assert (again == 0xAB).all()
    assert (mem.frame_view(2) == 0).all()  # neighbour untouched, zero-filled


def test_backing_store_is_sparse():
    mem = PhysicalMemory([1024 * MB])
    assert mem.resident_frames == 0
    mem.frame_view(7)[:] = 1
    assert mem.resident_frames == 1


def test_frame_view_bounds():
    mem = PhysicalMemory([1 * MB])
    with pytest.raises(ValueError):
        mem.frame_view(-1)
    with pytest.raises(ValueError):
        mem.frame_view(mem.total_frames)


# -- MappedRegion ----------------------------------------------------------------


def make_region(nframes=4, scattered=True):
    mem = PhysicalMemory([4 * MB])
    alloc = mem.zones[0].allocator
    ranges = alloc.alloc_scattered(nframes) if scattered else [alloc.alloc(nframes)]
    return mem, mem.map_region(ranges_to_pfns(ranges))


def test_region_write_read_roundtrip():
    _mem, region = make_region()
    data = bytes(range(256)) * 32  # 8 KiB, crosses page boundary
    region.write(100, data)
    assert region.read(100, len(data)) == data


def test_region_write_spanning_pages():
    _mem, region = make_region(nframes=2)
    data = b"x" * PAGE_4K + b"y" * 10
    region.write(PAGE_4K - 5, data[: PAGE_4K + 5])
    assert region.read(PAGE_4K - 5, PAGE_4K + 5) == data[: PAGE_4K + 5]


def test_region_bounds_checked():
    _mem, region = make_region(nframes=1)
    with pytest.raises(ValueError):
        region.read(PAGE_4K, 1)
    with pytest.raises(ValueError):
        region.write(-1, b"a")
    with pytest.raises(ValueError):
        region.read(0, PAGE_4K + 1)
    for offset, length in ((-1, 1), (-8, 8), (PAGE_4K - 4, 8), (PAGE_4K + 1, 0)):
        with pytest.raises(ValueError):
            region.read(offset, length)


def test_two_mappings_alias_same_frames():
    """The zero-copy property: aliased mappings see each other's stores."""
    mem, region = make_region(nframes=3)
    alias = mem.map_region(region.pfns)
    region.write(5000, b"hello enclave")
    assert alias.read(5000, 13) == b"hello enclave"
    alias.write(0, b"reply")
    assert region.read(0, 5) == b"reply"


def test_mapping_with_permuted_pfns_differs():
    mem, region = make_region(nframes=2)
    swapped = mem.map_region(region.pfns[::-1])
    region.write(0, b"A")  # page 0 of region = page 1 of swapped
    assert swapped.read(PAGE_4K, 1) == b"A"


def test_region_fill_and_checksum():
    _mem, region = make_region(nframes=2)
    region.fill(0)
    c0 = region.checksum()
    region.write(123, b"\x01")
    assert region.checksum() != c0


def test_as_array_gathers_everything():
    _mem, region = make_region(nframes=2)
    region.write(0, b"\x11" * PAGE_4K)
    region.write(PAGE_4K, b"\x22" * PAGE_4K)
    arr = region.as_array()
    assert arr.shape == (2 * PAGE_4K,)
    assert (arr[:PAGE_4K] == 0x11).all()
    assert (arr[PAGE_4K:] == 0x22).all()


def test_empty_mapping_rejected():
    mem = PhysicalMemory([1 * MB])
    with pytest.raises(ValueError):
        mem.map_region(np.empty(0, dtype=np.int64))


def test_mapping_outside_memory_rejected():
    mem = PhysicalMemory([1 * MB])
    with pytest.raises(ValueError):
        mem.map_region(np.array([mem.total_frames], dtype=np.int64))


def _frozen(pfns):
    pfns = np.asarray(pfns, dtype=np.int64)
    pfns.setflags(write=False)
    return pfns


def test_mapping_adopts_read_only_int64_pfns():
    """A page-table walk's read-only PFN list is shared, not copied."""
    mem = PhysicalMemory([1 * MB])
    pfns = _frozen([3, 1, 2])
    region = mem.map_region(pfns)
    assert np.shares_memory(region.pfns, pfns)
    assert not region.pfns.flags.writeable


def test_mapping_copies_writable_pfns():
    mem = PhysicalMemory([1 * MB])
    pfns = np.array([3, 1, 2], dtype=np.int64)
    region = mem.map_region(pfns)
    assert not np.shares_memory(region.pfns, pfns)
    assert not region.pfns.flags.writeable
    pfns[0] = 7  # a later caller write must not reach the view
    np.testing.assert_array_equal(region.pfns, [3, 1, 2])


def test_mapping_converts_int32_pfns():
    mem = PhysicalMemory([1 * MB])
    pfns = np.array([3, 1, 2], dtype=np.int32)
    pfns.setflags(write=False)
    region = MappedRegion(mem, pfns)
    assert region.pfns.dtype == np.int64
    assert not region.pfns.flags.writeable
    np.testing.assert_array_equal(region.pfns, [3, 1, 2])


def test_mapping_bounds_checked_for_adopted_pfns():
    mem = PhysicalMemory([1 * MB])
    for pfn in (-1, mem.total_frames):
        with pytest.raises(ValueError):
            mem.map_region(_frozen([0, pfn]))
        with pytest.raises(ValueError):
            MappedRegion(mem, np.array([0, pfn], dtype=np.int64))


# -- MappedRegion.read -------------------------------------------------------------


def test_read_single_page_and_cross_page_equal_bytes_written():
    _mem, region = make_region(nframes=3)
    word = (0xC0FFEE01).to_bytes(8, "little")
    region.write(PAGE_4K + 16, word)
    assert region.read(PAGE_4K + 16, 8) == word  # single-page fast path
    span = bytes(range(256)) * 20  # 5 KiB from mid page 0 into page 2
    region.write(PAGE_4K - 100, span)
    assert region.read(PAGE_4K - 100, len(span)) == span
    assert region.read(PAGE_4K - 100, 100) == span[:100]  # ends on a boundary


def test_read_of_untouched_frames_is_zeros_and_materializes_nothing():
    mem, region = make_region(nframes=3)
    region.write(PAGE_4K, b"\x07")  # only the middle frame is resident
    before = mem.resident_frames
    assert region.read(10, 8) == bytes(8)
    assert region.read(0, 3 * PAGE_4K) == bytes(PAGE_4K) + b"\x07" + bytes(
        2 * PAGE_4K - 1
    )
    assert region.read(0, 0) == b""
    assert region.read(region.nbytes, 0) == b""
    assert mem.resident_frames == before == 1


def test_read_sees_later_write_through_another_region():
    mem, region = make_region(nframes=2)
    assert region.read(PAGE_4K - 4, 8) == bytes(8)  # nothing resident yet
    alias = mem.map_region(region.pfns[::-1])
    alias.write(0, b"\xAA" * PAGE_4K)  # frame behind region's page 1
    alias.write(2 * PAGE_4K - 2, b"\xBB\xBB")  # end of region's page 0
    assert region.read(PAGE_4K - 4, 8) == b"\x00\x00\xBB\xBB" + b"\xAA" * 4
    assert region.read(PAGE_4K + 5, 1) == b"\xAA"


def _gather_rig(npages=8):
    """A region over scattered frames in permuted order, some pages written
    whole, one in part, the rest never written; returns ``(mem, region,
    model)`` where ``model`` holds the bytes the region must read as."""
    mem = PhysicalMemory([4 * MB])
    pfns = ranges_to_pfns(mem.zones[0].allocator.alloc_scattered(npages))
    region = mem.map_region(pfns[np.random.default_rng(7).permutation(npages)])
    rng = np.random.default_rng(1)
    model = bytearray(npages * PAGE_4K)
    for page in (1, 2, 5, npages - 1):
        data = rng.integers(0, 256, PAGE_4K, dtype=np.uint8).tobytes()
        region.write(page * PAGE_4K, data)
        model[page * PAGE_4K : (page + 1) * PAGE_4K] = data
    region.write(3 * PAGE_4K + 100, b"\x5a" * 50)  # page 3 resident, mostly zeros
    model[3 * PAGE_4K + 100 : 3 * PAGE_4K + 150] = b"\x5a" * 50
    return mem, region, bytes(model)


@pytest.mark.parametrize("writable", [True, False])
@pytest.mark.parametrize("offset,length", [
    (0, 8 * PAGE_4K),                   # the whole region
    (0, 2 * PAGE_4K),                   # never written, then written
    (3 * PAGE_4K, 4 * PAGE_4K),         # partly written, never written, written
    (6 * PAGE_4K, 2 * PAGE_4K),         # ends on the region's last byte
    (PAGE_4K, 2 * PAGE_4K),             # written pages only
    (1, 2 * PAGE_4K),                   # unaligned offset
    (0, 2 * PAGE_4K + 1),               # unaligned length
    (PAGE_4K - 1, 3 * PAGE_4K + 2),     # both
    (0, 0), (PAGE_4K, 0), (5, 0), (8 * PAGE_4K, 0),  # empty reads
])
def test_multi_page_reads_equal_the_bytes_written(writable, offset, length):
    mem, region, model = _gather_rig()
    view = region if writable else mem.map_region(region.pfns, writable=False)
    before = mem.resident_frames
    got = view.read(offset, length)
    assert type(got) is bytes
    assert got == model[offset : offset + length]
    assert mem.resident_frames == before == 5


@pytest.mark.parametrize("writable", [True, False])
def test_as_array_and_checksum_materialize_nothing(writable):
    mem = PhysicalMemory([4 * MB])
    pfns = mem.zones[0].allocator.alloc(64).pfns()
    writer = mem.map_region(pfns)
    view = writer if writable else mem.map_region(pfns, writable=False)
    attached = AttachedRegion(apid=1, segid=1, proc=None, vaddr=0, npages=64,
                              kind="remote", view=view)
    for arr in (view.as_array(), attached.as_array()):
        assert arr.shape == (64 * PAGE_4K,) and not arr.any()
    assert view.checksum() == 0
    assert mem.resident_frames == 0
    writer.write(5 * PAGE_4K + 7, b"\x01\x02\x03")
    writer.write(40 * PAGE_4K, b"\xff" * PAGE_4K)
    model = np.zeros(64 * PAGE_4K, dtype=np.uint8)
    model[5 * PAGE_4K + 7 : 5 * PAGE_4K + 10] = (1, 2, 3)
    model[40 * PAGE_4K : 41 * PAGE_4K] = 0xFF
    arr = attached.as_array()
    assert (arr == model).all() and (view.as_array() == model).all()
    arr[:] = 9  # a writable copy: the region does not change
    assert view.read(0, 8) == bytes(8)
    pages = model.reshape(64, PAGE_4K).astype(np.uint64)
    weights = np.arange(1, PAGE_4K + 1, dtype=np.uint64)
    expected = 0
    for i, page in enumerate(pages):
        expected = (expected + int((page * (weights + np.uint64(i))).sum())) % (2**61 - 1)
    assert view.checksum() == expected != 0
    assert mem.resident_frames == 2


def test_locate_word_names_the_backing_frame_without_materializing_it():
    mem, region = make_region(nframes=2)
    lookup, pfn, in_page = region.locate_word(PAGE_4K + 16)
    assert (pfn, in_page) == (int(region.pfns[1]), 16)
    assert lookup(pfn) is None and mem.resident_frames == 0  # reads as zeros
    region.write(PAGE_4K + 16, (0xC0FFEE01).to_bytes(8, "little"))
    frame = lookup(pfn)
    assert frame is mem.frame_view(pfn)
    assert frame[in_page:in_page + 8].tobytes() == (0xC0FFEE01).to_bytes(8, "little")
    assert region.locate_word(PAGE_4K - 8) == (lookup, int(region.pfns[0]), PAGE_4K - 8)


def test_locate_word_straddling_a_page_or_out_of_bounds():
    _mem, region = make_region(nframes=2)
    assert region.locate_word(PAGE_4K - 4) is None
    assert region.locate_word(2 * PAGE_4K - 8)[1:] == (int(region.pfns[1]), PAGE_4K - 8)
    for offset in (-1, 2 * PAGE_4K - 4, 2 * PAGE_4K):
        with pytest.raises(ValueError):
            region.locate_word(offset)
