"""Tests for STREAM and the noise-aware compute helper."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.costs import CostModel, MB
from repro.kernels.noise import PeriodicNoise
from repro.workloads.compute import noise_aware_compute
from repro.workloads.stream import (
    BLOCK_ELEMENTS,
    REAL_ELEMENTS_CAP,
    STREAM_TRAFFIC_MULTIPLE,
    StreamBenchmark,
)
from tests.workloads.reference_stream import real_kernels as reference_kernels


def test_noise_free_compute_takes_base_time(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")

    def run():
        elapsed = yield from noise_aware_compute(kitten, proc, 1_000_000)
        return elapsed

    assert eng.run_process(run()) == 1_000_000


def test_compute_extends_for_noise(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")
    cid = proc.core_id
    # 10% noise: 100us every 1ms
    kitten.noise_sources[cid] = [PeriodicNoise(1_000_000, 100_000, tag="n")]

    def run():
        elapsed = yield from noise_aware_compute(kitten, proc, 10_000_000)
        return elapsed

    elapsed = eng.run_process(run())
    stolen = kitten.stolen_ns(cid, 0, elapsed)
    assert elapsed == 10_000_000 + stolen
    assert elapsed > 10_500_000  # noticeably extended


def test_compute_slowdown_factor(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")

    def run():
        elapsed = yield from noise_aware_compute(kitten, proc, 1_000_000, slowdown=2.0)
        return elapsed

    assert eng.run_process(run()) == 2_000_000


def test_negative_compute_rejected(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")

    def run():
        yield from noise_aware_compute(kitten, proc, -1)

    with pytest.raises(ValueError):
        eng.run_process(run())


def test_stream_timing_and_verification(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")
    heap = kitten.heap_region(proc)
    pfns = proc.aspace.table.translate_range(heap.start, heap.npages)
    view = kitten.mem.map_region(pfns)
    view.fill(3)
    costs = kitten.costs
    region_bytes = 64 * MB

    def run():
        bench = StreamBenchmark(kitten, proc)
        result = yield from bench.run(view, region_bytes)
        return result

    result = eng.run_process(run())
    assert result.verified  # the triad identity held on real data
    expected = costs.memcpy_ns(region_bytes) + int(
        region_bytes * STREAM_TRAFFIC_MULTIPLE * 1e9 / costs.stream_bw_bytes_per_s
    )
    assert result.elapsed_ns == expected
    assert result.copy_in_ns == costs.memcpy_ns(region_bytes)
    assert result.effective_bw_bytes_per_s > 0


def test_stream_rejects_bad_size(rig):
    eng, _node, _linux, kitten = rig
    proc = kitten.create_process("app")
    heap = kitten.heap_region(proc)
    pfns = proc.aspace.table.translate_range(heap.start, 4)
    view = kitten.mem.map_region(pfns)

    def run():
        bench = StreamBenchmark(kitten, proc)
        yield from bench.run(view, 0)

    with pytest.raises(ValueError):
        eng.run_process(run())


# -- real kernels vs the frozen reference -----------------------------------------

_FLOAT64_MAX = float(np.finfo(np.float64).max)


def _assert_matches_reference(values, dtype=np.float64) -> bool:
    """The kernels, fed ``values`` as ``run`` feeds them (a read-only
    view of a byte copy, float64 unless ``dtype`` says otherwise), return
    the reference's checksum bit for bit and its verdict; returns that
    verdict."""
    data = np.asarray(values, dtype=dtype).tobytes()
    source = np.frombuffer(data, dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        checksum, ok = StreamBenchmark._real_kernels(source)
        ref_checksum, ref_ok = reference_kernels(source)
    assert struct.pack("<d", checksum) == struct.pack("<d", ref_checksum)
    assert ok is ref_ok
    return ok


def test_kernels_match_reference_on_zeros_and_fill_pattern():
    zeros = np.zeros(REAL_ELEMENTS_CAP)
    fill3 = np.frombuffer(b"\x03" * (REAL_ELEMENTS_CAP * 8), dtype=np.float64)
    assert _assert_matches_reference(zeros)
    assert _assert_matches_reference(fill3)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_kernels_match_reference_on_finite_values(values):
    _assert_matches_reference(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.floats(min_value=_FLOAT64_MAX / 8, max_value=_FLOAT64_MAX)
    | st.floats(min_value=-_FLOAT64_MAX, max_value=-_FLOAT64_MAX / 8),
    min_size=1, max_size=64,
))
def test_kernels_match_reference_on_overflow_to_inf(values):
    assert _assert_matches_reference(values)  # inf == inf on both sides


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64).map(
    lambda vs: vs + [float("nan")]))
def test_kernels_match_reference_on_nan_bearing_values(values):
    assert not _assert_matches_reference(values)


def _spread_values(size: int, seed: int = 0) -> np.ndarray:
    """Mixed-sign values over 16 decades, so a sum in another order or
    grouping than the reference's rounds differently."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)


@pytest.mark.parametrize("size", [
    1, BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, BLOCK_ELEMENTS + 1,
    2 * BLOCK_ELEMENTS + 3, REAL_ELEMENTS_CAP,
])
def test_kernels_match_reference_across_block_boundaries(size):
    assert _assert_matches_reference(_spread_values(size, seed=size))


@pytest.mark.parametrize("value,verdict", [
    (float("nan"), False), (float("inf"), True), (float("-inf"), True),
])
@pytest.mark.parametrize("index", [BLOCK_ELEMENTS, 2 * BLOCK_ELEMENTS - 1])
def test_kernels_match_reference_with_non_finite_value_at_a_block_edge(
    index, value, verdict
):
    values = _spread_values(3 * BLOCK_ELEMENTS)
    values[index] = value  # first or last element of the interior block
    assert _assert_matches_reference(values) is verdict


@pytest.mark.parametrize("dtype,values", [
    (np.float32, _spread_values(2 * BLOCK_ELEMENTS + 3).astype(np.float32)),
    (np.int64, np.random.default_rng(1).integers(
        -(1 << 62), 1 << 62, 2 * BLOCK_ELEMENTS + 3)),
])
def test_kernels_match_reference_on_converted_sources(dtype, values):
    assert _assert_matches_reference(values, dtype=dtype)


def test_kernels_leave_the_source_unmodified():
    values = _spread_values(2 * BLOCK_ELEMENTS + 3)
    for writable in (True, False):
        source = values.copy()
        source.setflags(write=writable)
        StreamBenchmark._real_kernels(source)
        assert source.tobytes() == values.tobytes()


def test_kernels_reject_empty_source():
    with pytest.raises(ValueError):
        StreamBenchmark._real_kernels(np.empty(0))
