"""Physical memory: frames over a real numpy backing store.

A node's RAM is one ``numpy`` byte array. Page frame number (PFN) ``n``
names bytes ``[n*4096, (n+1)*4096)`` of that array. Every mapping anywhere
in the simulation — a Kitten process heap, a Linux VMA, a guest-physical
region inside a Palacios VM — ultimately resolves to PFNs here, so shared
memory is genuinely shared: stores through one mapping are loads through
another.

NUMA is modeled as disjoint PFN zones, each with its own first-fit
allocator, because the paper pins every enclave to a single NUMA socket
(§5.1) and Pisces partitions memory *blocks* between enclaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.hw.costs import PAGE_4K

#: What a never-written frame reads as (hardware zero-fill). Immutable, so
#: every gather shares the one copy.
_ZERO_PAGE = bytes(PAGE_4K)


class OutOfMemoryError(MemoryError):
    """Raised when a frame allocation cannot be satisfied."""


@dataclass(frozen=True)
class FrameRange:
    """A physically contiguous run of 4 KiB frames."""

    start_pfn: int
    nframes: int

    def __post_init__(self):
        if self.nframes <= 0:
            raise ValueError(f"empty frame range at pfn {self.start_pfn}")
        if self.start_pfn < 0:
            raise ValueError(f"negative pfn {self.start_pfn}")

    @property
    def end_pfn(self) -> int:
        """One past the last frame of the run."""
        return self.start_pfn + self.nframes

    @property
    def nbytes(self) -> int:
        return self.nframes * PAGE_4K

    def pfns(self) -> np.ndarray:
        """The run's frame numbers as an int64 array."""
        return np.arange(self.start_pfn, self.end_pfn, dtype=np.int64)

    def overlaps(self, other: "FrameRange") -> bool:
        """True when the two runs share any frame."""
        return self.start_pfn < other.end_pfn and other.start_pfn < self.end_pfn


class FrameRangeList:
    """Structure-of-arrays arena of contiguous frame runs.

    Run ``i`` covers frames ``[starts[i], starts[i] + lengths[i])``. The
    columns live in two flat ``int64`` arrays, so building, flattening,
    and freeing a million-frame scattered allocation is a handful of
    numpy operations instead of one :class:`FrameRange` object per run.
    Behaves like a read-only sequence of :class:`FrameRange` — indexing
    materializes a view object on demand — so existing per-range callers
    keep working unchanged.
    """

    __slots__ = ("starts", "lengths")

    def __init__(self, starts: np.ndarray, lengths: np.ndarray):
        self.starts = np.asarray(starts, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if len(self.starts) != len(self.lengths):
            raise ValueError("starts and lengths disagree on length")
        if len(self.lengths) and (self.lengths.min() <= 0 or self.starts.min() < 0):
            raise ValueError("frame runs must be non-empty with non-negative starts")

    @classmethod
    def from_pfns(cls, pfns: np.ndarray) -> "FrameRangeList":
        """Coalesce an ascending PFN array into maximal runs (vectorized)."""
        pfns = np.asarray(pfns, dtype=np.int64)
        if len(pfns) == 0:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        heads = np.concatenate(([0], np.flatnonzero(np.diff(pfns) != 1) + 1))
        lengths = np.diff(np.concatenate((heads, [len(pfns)])))
        return cls(pfns[heads], lengths)

    def coalesced(self) -> "FrameRangeList":
        """The same frames with physically adjacent runs merged: the
        maximal runs of :meth:`pfns`, without flattening."""
        starts, lengths = self.starts, self.lengths
        merge = starts[1:] == starts[:-1] + lengths[:-1]
        if not merge.any():
            return self
        heads = np.flatnonzero(np.concatenate(([True], ~merge)))
        return FrameRangeList(starts[heads], np.add.reduceat(lengths, heads))

    @property
    def nframes(self) -> int:
        """Total frames across all runs."""
        return int(self.lengths.sum())

    def pfns(self) -> np.ndarray:
        """Flatten into a PFN array, preserving run order (vectorized).

        Run-length decode: an array of ones with a corrective jump at
        each run head turns into the frame numbers under a cumulative sum.
        """
        total = self.nframes
        if total == 0:
            return np.empty(0, dtype=np.int64)
        out = np.ones(total, dtype=np.int64)
        out[0] = self.starts[0]
        if len(self.starts) > 1:
            heads = np.cumsum(self.lengths[:-1])
            out[heads] = self.starts[1:] - (self.starts[:-1] + self.lengths[:-1] - 1)
        return np.cumsum(out)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FrameRangeList(self.starts[i], self.lengths[i])
        return FrameRange(int(self.starts[i]), int(self.lengths[i]))

    def __iter__(self):
        for start, length in zip(self.starts.tolist(), self.lengths.tolist()):
            yield FrameRange(start, length)

    def __eq__(self, other) -> bool:
        if isinstance(other, FrameRangeList):
            return bool(
                len(self) == len(other)
                and (self.starts == other.starts).all()
                and (self.lengths == other.lengths).all()
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"FrameRangeList({len(self)} runs, {self.nframes} frames)"


def ranges_to_pfns(ranges: Sequence[FrameRange]) -> np.ndarray:
    """Flatten contiguous ranges into a PFN array, preserving order."""
    if isinstance(ranges, FrameRangeList):
        return ranges.pfns()
    if not len(ranges):
        return np.empty(0, dtype=np.int64)
    return np.concatenate([r.pfns() for r in ranges])


def pfns_to_ranges(pfns: np.ndarray) -> FrameRangeList:
    """Coalesce a PFN array back into maximal contiguous runs.

    Returns a :class:`FrameRangeList`; it compares equal to (and
    iterates as) the list of :class:`FrameRange` it used to return.
    """
    return FrameRangeList.from_pfns(pfns)


class FrameAllocator:
    """First-fit allocator over a contiguous PFN window.

    Keeps an ordered free list of ``[start, end)`` runs. ``alloc`` returns
    contiguous ranges when possible; ``alloc_scattered`` deliberately caps
    run length to produce the fragmented frame lists whose mapping cost the
    paper analyses in §5.4.
    """

    def __init__(self, start_pfn: int, nframes: int):
        if nframes <= 0:
            raise ValueError("allocator needs at least one frame")
        self.start_pfn = start_pfn
        self.nframes = nframes
        self._free: List[List[int]] = [[start_pfn, start_pfn + nframes]]

    @property
    def free_frames(self) -> int:
        """Frames currently free in this allocator."""
        return sum(end - start for start, end in self._free)

    @property
    def used_frames(self) -> int:
        """Frames currently allocated from this allocator."""
        return self.nframes - self.free_frames

    def alloc(self, nframes: int) -> FrameRange:
        """Allocate one physically contiguous run of ``nframes``."""
        if nframes <= 0:
            raise ValueError(f"bad allocation size {nframes}")
        for i, (start, end) in enumerate(self._free):
            if end - start >= nframes:
                self._free[i][0] = start + nframes
                if self._free[i][0] == self._free[i][1]:
                    del self._free[i]
                return FrameRange(start, nframes)
        raise OutOfMemoryError(
            f"no contiguous run of {nframes} frames "
            f"({self.free_frames} free, fragmented into {len(self._free)} runs)"
        )

    def alloc_pages(self, nframes: int, max_run: Optional[int] = None) -> FrameRangeList:
        """Allocate ``nframes`` as a run list, first-fit, possibly split.

        ``max_run`` caps each run's length (``alloc_scattered`` passes 1 to
        produce fully discontiguous lists). Returns a
        :class:`FrameRangeList`; splitting a fragmented multi-GiB grab by
        ``max_run`` is a vectorized chop per free-list run, not one
        Python object per resulting run.
        """
        if nframes <= 0:
            raise ValueError(f"bad allocation size {nframes}")
        if self.free_frames < nframes:
            raise OutOfMemoryError(
                f"need {nframes} frames, only {self.free_frames} free"
            )
        taken: List[List[int]] = []  # whole [start, take] grabs, pre-split
        remaining = nframes
        while remaining > 0:
            start, end = self._free[0]
            take = min(remaining, end - start)
            self._free[0][0] = start + take
            if self._free[0][0] == self._free[0][1]:
                del self._free[0]
            taken.append([start, take])
            remaining -= take
        if max_run is None:
            grabs = np.asarray(taken, dtype=np.int64)
            return FrameRangeList(grabs[:, 0], grabs[:, 1])
        parts = []
        for start, take in taken:
            heads = np.arange(0, take, max_run, dtype=np.int64)
            lengths = np.minimum(max_run, take - heads)
            parts.append((start + heads, lengths))
        return FrameRangeList(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
        )

    def alloc_scattered(self, nframes: int) -> FrameRangeList:
        """Allocate ``nframes`` pairwise *non-adjacent* frames.

        Models the paper's §4.4 observation that host frames pinned for
        XEMEM "are not guaranteed to be contiguous": a hole is left after
        every allocated frame (by allocating in pairs and returning the
        second frame of each), so downstream run-coalescing sees one run
        per page. Falls back to plain single-frame allocation when memory
        is too tight for holes.
        """
        if nframes <= 0:
            raise ValueError(f"bad allocation size {nframes}")
        if self.free_frames < 2 * nframes:
            return self.alloc_pages(nframes, max_run=1)
        pairs = self.alloc_pages(2 * nframes, max_run=2)
        ones = np.ones(nframes, dtype=np.int64)
        got = FrameRangeList(pairs.starts[:nframes], ones)
        wide = pairs.lengths[:nframes] == 2
        self.free_run_list(
            FrameRangeList(
                np.concatenate((pairs.starts[:nframes][wide] + 1, pairs.starts[nframes:])),
                np.concatenate((ones[: int(wide.sum())], pairs.lengths[nframes:])),
            )
        )
        return got

    def free(self, rng: FrameRange) -> None:
        """Return a range to the free list, coalescing neighbours."""
        if rng.start_pfn < self.start_pfn or rng.end_pfn > self.start_pfn + self.nframes:
            raise ValueError(f"range {rng} outside allocator window")
        new = [rng.start_pfn, rng.end_pfn]
        # insert sorted by start
        lo = 0
        for i, (start, _end) in enumerate(self._free):
            if start > new[0]:
                break
            lo = i + 1
        # overlap checks against neighbours
        if lo > 0 and self._free[lo - 1][1] > new[0]:
            raise ValueError(f"double free of frames near pfn {rng.start_pfn}")
        if lo < len(self._free) and self._free[lo][0] < new[1]:
            raise ValueError(f"double free of frames near pfn {rng.start_pfn}")
        self._free.insert(lo, new)
        self._coalesce(lo)

    def free_all(self, ranges: Iterable[FrameRange]) -> None:
        """Free every range in the iterable."""
        if isinstance(ranges, FrameRangeList):
            self.free_run_list(ranges)
            return
        for rng in ranges:
            self.free(rng)

    def free_run_list(self, runs: FrameRangeList) -> None:
        """Return a whole run list to the free list in one merge.

        Vectorized counterpart of per-range :meth:`free`: one sorted
        merge of the incoming runs with the existing free list, with the
        same window and double-free checks, then a single coalescing
        pass. All-or-nothing — a bad run leaves the free list untouched.
        """
        if len(runs) == 0:
            return
        order = np.argsort(runs.starts, kind="stable")
        new_starts = runs.starts[order]
        new_ends = new_starts + runs.lengths[order]
        if new_starts[0] < self.start_pfn or new_ends[-1] > self.start_pfn + self.nframes:
            bad = int(new_starts[0] if new_starts[0] < self.start_pfn else new_starts[-1])
            raise ValueError(f"range at pfn {bad} outside allocator window")
        if len(self._free):
            free_arr = np.asarray(self._free, dtype=np.int64)
            starts = np.concatenate((free_arr[:, 0], new_starts))
            ends = np.concatenate((free_arr[:, 1], new_ends))
        else:
            starts, ends = new_starts, new_ends
        order = np.argsort(starts, kind="stable")
        starts, ends = starts[order], ends[order]
        if len(starts) > 1 and (ends[:-1] > starts[1:]).any():
            where = int(np.flatnonzero(ends[:-1] > starts[1:])[0])
            raise ValueError(f"double free of frames near pfn {int(starts[where + 1])}")
        keep = np.concatenate(([True], starts[1:] != ends[:-1]))
        heads = np.flatnonzero(keep)
        merged_starts = starts[heads]
        merged_ends = ends[np.concatenate((heads[1:] - 1, [len(ends) - 1]))]
        self._free = [list(pair) for pair in zip(merged_starts.tolist(), merged_ends.tolist())]

    def _coalesce(self, i: int) -> None:
        # merge with next
        if i + 1 < len(self._free) and self._free[i][1] == self._free[i + 1][0]:
            self._free[i][1] = self._free[i + 1][1]
            del self._free[i + 1]
        # merge with previous
        if i > 0 and self._free[i - 1][1] == self._free[i][0]:
            self._free[i - 1][1] = self._free[i][1]
            del self._free[i]


class NumaZone:
    """A NUMA socket's memory: a PFN window plus its allocator."""

    def __init__(self, zone_id: int, start_pfn: int, nframes: int):
        self.zone_id = zone_id
        self.start_pfn = start_pfn
        self.nframes = nframes
        self.allocator = FrameAllocator(start_pfn, nframes)

    @property
    def nbytes(self) -> int:
        return self.nframes * PAGE_4K

    def contains_pfn(self, pfn: int) -> bool:
        """True when ``pfn`` belongs to this NUMA zone."""
        return self.start_pfn <= pfn < self.start_pfn + self.nframes

    def __repr__(self) -> str:
        return (
            f"NumaZone(id={self.zone_id}, pfns=[{self.start_pfn},"
            f"{self.start_pfn + self.nframes}), free={self.allocator.free_frames})"
        )


class PhysicalMemory:
    """All RAM of one node: the backing store plus NUMA zones.

    The backing store is *sparse*: a frame's 4 KiB array materializes on
    first touch (hardware zero-fills, so untouched frames read as zeros).
    This lets the simulator model 32 GB nodes without allocating 32 GB of
    host RAM, while preserving the aliasing property: every
    :meth:`frame_view` of the same PFN returns the same mutable array.
    """

    def __init__(self, zone_bytes: Sequence[int]):
        if not zone_bytes:
            raise ValueError("need at least one NUMA zone")
        for nb in zone_bytes:
            if nb <= 0 or nb % PAGE_4K != 0:
                raise ValueError(f"zone size must be a positive page multiple: {nb}")
        self.total_bytes = int(sum(zone_bytes))
        self._frames: dict = {}
        self.zones: List[NumaZone] = []
        pfn = 0
        for zid, nb in enumerate(zone_bytes):
            nframes = nb // PAGE_4K
            self.zones.append(NumaZone(zid, pfn, nframes))
            pfn += nframes
        self.total_frames = pfn

    @property
    def resident_frames(self) -> int:
        """Number of frames actually materialized in host memory."""
        return len(self._frames)

    def zone(self, zone_id: int) -> NumaZone:
        """The NUMA zone with the given id."""
        return self.zones[zone_id]

    def zone_of_pfn(self, pfn: int) -> NumaZone:
        """The NUMA zone containing ``pfn``."""
        for z in self.zones:
            if z.contains_pfn(pfn):
                return z
        raise ValueError(f"pfn {pfn} outside physical memory")

    def frame_view(self, pfn: int) -> np.ndarray:
        """The writable 4096-byte array backing one frame (lazily created).

        Asking for the view materializes the frame. Writers go through
        here; :meth:`MappedRegion.read`, ``as_array`` and ``checksum`` do
        not, and read a frame that was never materialized as zeros
        without creating it.
        """
        if not 0 <= pfn < self.total_frames:
            raise ValueError(f"pfn {pfn} outside physical memory")
        frame = self._frames.get(pfn)
        if frame is None:
            frame = self._frames[pfn] = np.zeros(PAGE_4K, dtype=np.uint8)
        return frame

    def map_region(self, pfns: np.ndarray, writable: bool = True) -> "MappedRegion":
        """A MappedRegion viewing the given ordered frame list."""
        return MappedRegion(self, np.asarray(pfns, dtype=np.int64), writable=writable)


class MappedRegion:
    """User-visible window onto an ordered list of frames.

    Byte ``i`` of the region lives in frame ``pfns[i // 4096]`` at offset
    ``i % 4096``. Reads and writes hit the node's single backing store, so
    two regions over the same frames alias — that *is* shared memory.

    A read-only mapping (``writable=False`` — e.g. an XEMEM attachment to
    a segment granted without write permission) refuses stores with
    :class:`PermissionError` and hands out non-writeable page views.

    :attr:`pfns` is a read-only int64 array. A read-only int64 input (a
    page-table walk's PFN list) is adopted as is, with no copy; any
    other input is copied first, so a later write by the caller cannot
    reach the view.
    """

    def __init__(self, mem: PhysicalMemory, pfns: np.ndarray, writable: bool = True):
        if len(pfns) == 0:
            raise ValueError("empty mapping")
        if pfns.min() < 0 or pfns.max() >= mem.total_frames:
            raise ValueError("mapping references frames outside physical memory")
        if pfns.dtype != np.int64 or pfns.flags.writeable:
            pfns = pfns.astype(np.int64, copy=True)
            pfns.setflags(write=False)
        self.mem = mem
        self.pfns = pfns
        self.nbytes = len(pfns) * PAGE_4K
        self.writable = writable

    @property
    def npages(self) -> int:
        """Pages in the mapping."""
        return len(self.pfns)

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise ValueError(
                f"access [{offset}, {offset + length}) outside region of {self.nbytes} bytes"
            )

    def write(self, offset: int, data: bytes) -> None:
        """Scatter ``data`` into the region starting at ``offset``."""
        if not self.writable:
            raise PermissionError("write through read-only mapping")
        self._check(offset, len(data))
        src = np.frombuffer(data, dtype=np.uint8)
        pos = 0
        while pos < len(data):
            page = (offset + pos) // PAGE_4K
            in_page = (offset + pos) % PAGE_4K
            take = min(len(data) - pos, PAGE_4K - in_page)
            frame = self.mem.frame_view(int(self.pfns[page]))
            frame[in_page : in_page + take] = src[pos : pos + take]
            pos += take

    def read(self, offset: int, length: int) -> bytes:
        """Gather ``length`` bytes starting at ``offset`` (a copy).

        A read materializes no frame: a frame that was never written
        reads as zeros, as hardware zero-fill would, and stays absent
        from the backing store. The bytes returned are a copy, so
        nothing can alias the frame through them. A read that spans
        pages is one join over :meth:`_page_buffers`, sliced to the
        requested bytes.
        """
        self._check(offset, length)
        page, in_page = divmod(offset, PAGE_4K)
        if 0 < length <= PAGE_4K - in_page:
            frame = self.mem._frames.get(int(self.pfns[page]))
            if frame is None:
                return bytes(length)
            return frame[in_page : in_page + length].tobytes()
        last = -(-(offset + length) // PAGE_4K)
        joined = b"".join(self._page_buffers(page, last - page))
        return joined[in_page : in_page + length]

    def _page_buffers(self, first: int, count: int) -> list:
        """The contents of pages ``[first, first + count)``, one buffer
        each: a written frame's own array, or the shared
        :data:`_ZERO_PAGE` for a frame never written. Materializes
        nothing; callers copy out of the buffers, never write to them."""
        get = self.mem._frames.get
        return [get(pfn, _ZERO_PAGE) for pfn in self.pfns[first : first + count].tolist()]

    def locate_word(self, offset: int):
        """Where the 8-byte word at ``offset`` lives: ``(lookup, pfn, in_page)``.

        ``lookup(pfn)`` returns the frame array backing the bytes at
        ``[in_page, in_page + 8)``, or None while that frame was never
        materialized (it reads as zeros). A poller locates its word once
        and then loads it from whatever the frame holds at each check, so
        it sees every store path, raw page views included. Returns None
        when the word straddles a page boundary.
        """
        self._check(offset, 8)
        page, in_page = divmod(offset, PAGE_4K)
        if in_page + 8 > PAGE_4K:
            return None
        return self.mem._frames.get, int(self.pfns[page]), in_page

    def page_view(self, index: int) -> np.ndarray:
        """View of page ``index``; non-writeable for read-only mappings."""
        if not 0 <= index < self.npages:
            raise ValueError(f"page {index} outside region of {self.npages} pages")
        frame = self.mem.frame_view(int(self.pfns[index]))
        if not self.writable:
            frame = frame.view()
            frame.flags.writeable = False
        return frame

    def as_array(self) -> np.ndarray:
        """Gather the whole region into one contiguous array (a copy).

        Like :meth:`read`, materializes no frame."""
        return np.frombuffer(
            bytearray().join(self._page_buffers(0, self.npages)), dtype=np.uint8
        )

    def fill(self, value: int) -> None:
        """Set every byte of the region to ``value``."""
        if not self.writable:
            raise PermissionError("fill of read-only mapping")
        for i in range(self.npages):
            self.page_view(i)[:] = value

    def checksum(self) -> int:
        """Order-sensitive checksum of the region contents (for tests).

        Materializes no frame: a never-written frame is all zeros and
        adds nothing to the sum."""
        total = 0
        frames = self.mem._frames
        for i, pfn in enumerate(self.pfns.tolist()):
            frame = frames.get(pfn)
            if frame is None:
                continue
            page = frame.astype(np.uint64)
            weights = np.arange(1, len(page) + 1, dtype=np.uint64) + np.uint64(i)
            total = (total + int((page * weights).sum())) % (2**61 - 1)
        return total
