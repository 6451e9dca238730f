"""Integration tests for the composed in situ workload (small scale)."""

import pytest

from repro.bench.configs import build_insitu_rig, INSITU_CONFIG_NAMES
from repro.hw.costs import MB
from repro.workloads.hpccg import HpccgProblem
from repro.workloads.insitu import InSituConfig, SharedFlags
from repro.workloads.stream import StreamBenchmark

SMALL = dict(
    iterations=60,
    comm_interval=20,
    data_bytes=16 * MB,
    problem=HpccgProblem(24, 24, 24),
)


def small_config(**kw):
    return InSituConfig(**{**SMALL, **kw})


def test_config_validation():
    with pytest.raises(ValueError):
        InSituConfig(execution="turbo")
    with pytest.raises(ValueError):
        InSituConfig(attach="sometimes")
    with pytest.raises(ValueError):
        InSituConfig(iterations=10, comm_interval=3)
    assert InSituConfig(iterations=600, comm_interval=40).comm_points == 15


@pytest.mark.parametrize("field, value", [
    ("iterations", 0),
    ("iterations", -40),     # a multiple of comm_interval: no points at all
    ("comm_interval", 0),    # used to raise ZeroDivisionError
    ("comm_interval", -40),  # used to give comm_points == -15: a hung run
])
def test_config_rejects_non_positive_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        InSituConfig(**{field: value})


def test_unknown_rig_rejected():
    with pytest.raises(ValueError):
        build_insitu_rig("bare_metal", small_config())


@pytest.mark.parametrize("name", INSITU_CONFIG_NAMES)
def test_all_configs_complete_and_verify(name):
    rig = build_insitu_rig(name, small_config(execution="sync"), seed=7)
    res = rig["workload"].run()
    assert res.sim_time_s > 0
    assert res.data_marks_verified     # real shared-memory handshake worked
    assert len(res.stream_times_s) == 3
    assert len(res.attach_times_s) == 1  # one_time model


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_failed_stream_check_raises(monkeypatch, execution):
    """A pass whose triad identity fails stops the run, naming the pass."""
    monkeypatch.setattr(
        StreamBenchmark, "_real_kernels", staticmethod(lambda source: (0.0, False))
    )
    rig = build_insitu_rig("kitten_linux", small_config(execution=execution), seed=7)
    with pytest.raises(RuntimeError, match="analytics pass 1 of 3"):
        rig["workload"].run()


def test_recurring_attaches_every_point():
    rig = build_insitu_rig("kitten_linux", small_config(attach="recurring"), seed=7)
    res = rig["workload"].run()
    assert len(res.attach_times_s) == 3


def test_async_faster_than_sync_same_seed():
    times = {}
    for execution in ("sync", "async"):
        rig = build_insitu_rig("kitten_linux", small_config(execution=execution), seed=5)
        times[execution] = rig["workload"].run().sim_time_s
    assert times["async"] < times["sync"]


def test_linux_local_recurring_faults_per_point():
    rig = build_insitu_rig(
        "linux_linux", small_config(execution="sync", attach="recurring"), seed=5
    )
    res = rig["workload"].run()
    pages = 16 * MB // 4096
    assert res.analytics_faults == 3 * pages  # fresh faults at every point


def test_linux_local_one_time_faults_once():
    rig = build_insitu_rig(
        "linux_linux", small_config(execution="sync", attach="one_time"), seed=5
    )
    res = rig["workload"].run()
    assert res.analytics_faults == 16 * MB // 4096


def test_numerics_verification_flag():
    rig = build_insitu_rig(
        "kitten_linux", small_config(verify_numerics=True), seed=5
    )
    res = rig["workload"].run()
    assert res.numerics_verified is True


def test_shared_flags_wrapper(rig):
    _eng, _node, _linux, kitten = rig
    proc = kitten.create_process("p")
    heap = kitten.heap_region(proc)
    pfns = proc.aspace.table.translate_range(heap.start, 1)
    flags = SharedFlags(kitten.mem.map_region(pfns))
    flags.seq = 5
    flags.ack = 3
    flags.data_segid = 0x1234
    assert (flags.seq, flags.ack, flags.data_segid) == (5, 3, 0x1234)


def test_deterministic_given_seed():
    def once():
        rig = build_insitu_rig("linux_linux", small_config(execution="async"), seed=9)
        return rig["workload"].run().sim_time_s

    assert once() == once()


def test_different_seeds_vary_linux_time():
    times = set()
    for seed in range(3):
        rig = build_insitu_rig("linux_linux", small_config(), seed=seed)
        times.add(round(rig["workload"].run().sim_time_s, 6))
    assert len(times) == 3  # noise profiles differ by seed
