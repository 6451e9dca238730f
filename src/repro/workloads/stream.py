"""STREAM (HPC Challenge) — the analytics component of the in situ pair.

Per the paper's §6.1 workflow, the analytics program first copies the
shared region into a private array and then runs STREAM over it. We run
the four kernels (copy, scale, add, triad) for real on a size-capped
array — asserting the triad identity — while the modeled time covers the
configured region size: one copy-in at memcpy bandwidth plus the STREAM
pass's 10 array-sized accesses at STREAM bandwidth.

The real kernels run block by block over cache-sized scratch buffers to
save host time. That is host-side only: the modeled time is the formula
above whatever the blocking, and the checksum and the triad verdict are
bit for bit those of one unblocked pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.compute import noise_aware_compute

#: Array-size multiples of memory traffic in one pass of the four kernels
#: (copy 2, scale 2, add 3, triad 3).
STREAM_TRAFFIC_MULTIPLE = 10

#: Cap on the *real* computation size; the modeled time covers the full
#: region, the actual numerics run on at most this many float64s.
REAL_ELEMENTS_CAP = 1 << 18

SCALAR = 3.0

#: Elements per block of the real kernels: 16,384 float64 (128 KiB) per
#: scratch buffer, so a block's four operands stay cache-resident across
#: the ten ufunc calls. Picked by timing a 2^18-element pass at 2^11 to
#: 2^16 (2-vCPU Xeon, 2 MiB L2 per core): 2^14 and 2^15 tie at about a
#: quarter of the unblocked pass; the smaller footprint wins the tie.
BLOCK_ELEMENTS = 1 << 14


@dataclass
class StreamResult:
    """Outcome of one analytics STREAM pass (timing + verification)."""
    region_bytes: int
    elapsed_ns: int
    copy_in_ns: int
    checksum: float
    verified: bool

    @property
    def effective_bw_bytes_per_s(self) -> float:
        """Total traffic moved divided by elapsed time."""
        traffic = self.region_bytes * STREAM_TRAFFIC_MULTIPLE + self.region_bytes
        return traffic / (self.elapsed_ns / 1e9)


class StreamBenchmark:
    """One analytics STREAM pass over an attached shared region."""

    def __init__(self, kernel, proc):
        self.kernel = kernel
        self.proc = proc
        self.costs = kernel.costs
        self.engine = kernel.engine

    @staticmethod
    def _real_kernels(source: np.ndarray) -> tuple:
        """Run copy/scale/add/triad for real; returns (checksum, ok).

        ``ok`` is exact equality with the triad recomputed separately
        from ``source``: both sides apply the same IEEE operations in the
        same order, so correct kernels match bit for bit (NaN never
        matches, as under ``allclose``). The kernels write into ``out=``
        buffers and never into ``source``, which may be read-only.

        The ten ufunc calls run block by block over
        :data:`BLOCK_ELEMENTS`-long scratch buffers, so each block's
        operands stay in cache between calls. Elementwise IEEE arithmetic
        does not depend on the blocking, and the triad lands in one
        full-length array summed once, so the checksum keeps NumPy's
        pairwise-sum rounding of the unblocked pass.
        """
        if source.size == 0:
            raise ValueError("empty STREAM source")
        src = source if source.dtype == np.float64 else source.astype(np.float64)
        width = min(src.size, BLOCK_ELEMENTS)
        c_buf, b_buf, e_buf = np.empty(width), np.empty(width), np.empty(width)
        a2 = np.empty(src.size)
        ok = True
        for lo in range(0, src.size, BLOCK_ELEMENTS):
            triad = a2[lo : lo + BLOCK_ELEMENTS]
            k = len(triad)
            a = src[lo : lo + k]
            c, b, expected = c_buf[:k], b_buf[:k], e_buf[:k]
            np.copyto(c, a)                        # COPY:  c = a
            np.multiply(SCALAR, c, out=b)          # SCALE: b = q*c
            np.add(a, b, out=c)                    # ADD:   c = a + b
            np.multiply(SCALAR, c, out=triad)      # TRIAD: a = b + q*c
            np.add(b, triad, out=triad)
            # the triad recomputed from a alone: q*a + q*(a + q*a)
            np.multiply(SCALAR, a, out=expected)
            np.add(a, expected, out=expected)
            np.multiply(SCALAR, expected, out=expected)
            np.add(np.multiply(SCALAR, a, out=c), expected, out=expected)
            ok = ok and bool(np.array_equal(triad, expected))
        return float(a2.sum()), ok

    def run(self, attached_view, region_bytes: int, slowdown: float = 1.0):
        """Generator: copy the shared region private, STREAM over it.

        ``attached_view`` is any object with ``npages`` and
        ``read(offset, length)`` (a :class:`~repro.hw.memory.MappedRegion`
        or an :class:`~repro.xemem.shmem.AttachedRegion`); only a capped
        prefix is actually read, with one ``read`` call, for the real math.
        Returns a :class:`StreamResult`.
        """
        if region_bytes <= 0:
            raise ValueError(f"bad region size {region_bytes}")
        t0 = self.engine.now
        # copy-in: shared -> private array (real, over the capped prefix)
        take_pages = min(
            attached_view.npages, max(1, REAL_ELEMENTS_CAP * 8 // 4096)
        )
        prefix = attached_view.read(0, take_pages * 4096)
        source = np.frombuffer(prefix, dtype=np.float64)[:REAL_ELEMENTS_CAP]
        copy_ns = self.costs.memcpy_ns(region_bytes)
        yield from noise_aware_compute(self.kernel, self.proc, copy_ns, slowdown)
        copy_done = self.engine.now
        checksum, ok = self._real_kernels(source)
        stream_ns = int(
            region_bytes * STREAM_TRAFFIC_MULTIPLE * 1e9
            / self.costs.stream_bw_bytes_per_s
        )
        yield from noise_aware_compute(self.kernel, self.proc, stream_ns, slowdown)
        return StreamResult(
            region_bytes=region_bytes,
            elapsed_ns=self.engine.now - t0,
            copy_in_ns=copy_done - t0,
            checksum=checksum,
            verified=ok,
        )
