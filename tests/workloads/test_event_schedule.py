"""The soak's engine event schedule is pinned, not just its results.

Host-time work on the control plane must keep every engine event: the
same ``call_at`` calls in the same order. Any change that adds, drops or
reorders an event moves the engine's ``call_at`` count (``_seq``), the
spawn count or, through reordered same-time events, the report lines.
The values were read before the per-message path was trimmed; they hold
under both fidelity modes, since every soak message fits one chunk.
The spawned processes' names are pinned too: they surface in incident
bundles (``engine.json``'s live processes), so a refactor that keeps the
count but renames a process still shows here.
"""

import collections
import re

import pytest

import repro.bench.configs as configs
from repro.sim import fidelity
from repro.sim.engine import Engine
from repro.workloads.soak import SoakConfig, run_soak

CONFIG = SoakConfig(seed=0, cokernels=2, step_ns=100_000,
                    rates_per_ms=(60, 240, 960))

#: mode -> (engine call_at count, processes spawned, final clock in ns)
SCHEDULE = {
    "protected": (6066, 1327, 1_685_145),
    "baseline": (6145, 1110, 1_777_809),
}

#: mode -> spawned process name -> count, flow numbers collapsed
#: (``flow:7`` counts as ``flow:*``)
NAMES = {
    "protected": {
        "discover:kitten0": 1,
        "discover:kitten1": 1,
        "flow:*": 116,
        "scraper": 1,
        "send:attach_resp": 24,
        "send:get_resp": 295,
        "send:list_names_resp": 7,
        "send:ping_ns_path": 2,
        "send:release_resp": 93,
        "send:segid_assigned": 2,
        "soak": 1,
        "xemem-local:attach_resp": 23,
        "xemem-local:get_resp": 209,
        "xemem-local:release_resp": 3,
        "xemem:kitten0:attach_req": 44,
        "xemem:kitten0:enclave_id_assigned": 1,
        "xemem:kitten0:get_req": 43,
        "xemem:kitten0:list_names_resp": 7,
        "xemem:kitten0:ping_ns_path_ack": 1,
        "xemem:kitten0:release_req": 46,
        "xemem:kitten0:segid_assigned": 1,
        "xemem:kitten1:attach_req": 43,
        "xemem:kitten1:enclave_id_assigned": 1,
        "xemem:kitten1:get_req": 43,
        "xemem:kitten1:ping_ns_path_ack": 1,
        "xemem:kitten1:release_req": 44,
        "xemem:kitten1:segid_assigned": 1,
        "xemem:linux:alloc_enclave_id": 2,
        "xemem:linux:alloc_segid": 2,
        "xemem:linux:attach_resp": 86,
        "xemem:linux:get_resp": 86,
        "xemem:linux:list_names": 7,
        "xemem:linux:ping_ns_path": 2,
        "xemem:linux:release_resp": 88,
    },
    "baseline": {
        "discover:kitten0": 1,
        "discover:kitten1": 1,
        "flow:*": 116,
        "scraper": 1,
        "send:attach_resp": 3,
        "send:get_resp": 120,
        "send:list_names_resp": 5,
        "send:ping_ns_path": 2,
        "send:release_resp": 121,
        "send:segid_assigned": 2,
        "soak": 1,
        "xemem:kitten0:attach_req": 60,
        "xemem:kitten0:enclave_id_assigned": 1,
        "xemem:kitten0:get_req": 60,
        "xemem:kitten0:list_names_resp": 5,
        "xemem:kitten0:ping_ns_path_ack": 1,
        "xemem:kitten0:release_req": 62,
        "xemem:kitten0:segid_assigned": 1,
        "xemem:kitten1:attach_req": 62,
        "xemem:kitten1:enclave_id_assigned": 1,
        "xemem:kitten1:get_req": 60,
        "xemem:kitten1:ping_ns_path_ack": 1,
        "xemem:kitten1:release_req": 59,
        "xemem:kitten1:segid_assigned": 1,
        "xemem:linux:alloc_enclave_id": 2,
        "xemem:linux:alloc_segid": 2,
        "xemem:linux:attach_resp": 116,
        "xemem:linux:get_resp": 117,
        "xemem:linux:list_names": 5,
        "xemem:linux:ping_ns_path": 2,
        "xemem:linux:release_resp": 119,
    },
}

LINES = {
    "protected": [
        "soak [protected] seed=0 cokernels=2 pages=4 step=100000ns "
        "rates=60,240,960/ms",
        "  end: 1685145 ns  drained=True",
        "  flows: 116 total = 85 ok + 31 rejected + 0 shed + 0 abandoned "
        "+ 0 error",
        "  step 0: rate=60/ms offered=6 ok=4 rejected=0 shed=0 abandoned=0 "
        "errors=0 goodput=40.0/ms p99=23.3us",
        "  step 1: rate=240/ms offered=20 ok=4 rejected=0 shed=0 "
        "abandoned=0 errors=0 goodput=40.0/ms p99=29.6us",
        "  step 2: rate=960/ms offered=90 ok=14 rejected=0 shed=0 "
        "abandoned=0 errors=0 goodput=140.0/ms p99=42.8us",
        "  drain: ok=63 rejected=31 shed=0 abandoned=0 errors=0",
        "  saturation: step 2 (peak 140.0/ms); final step: 140.0/ms "
        "(100% of peak), p99=42.8us",
        "  discovery scraper: 3 ok, 1 shed, 0 error",
        "  admission: offered=762, admitted=523, rejected=235, shed=4, "
        "aborted=0, completed=523, peak_waiting=11",
        "  degradation: level_transitions=107",
        "  faults: msgs_delayed=22, msgs_dropped=12, msgs_duplicated=6",
    ],
    "baseline": [
        "soak [baseline] seed=0 cokernels=2 pages=4 step=100000ns "
        "rates=60,240,960/ms",
        "  end: 1777809 ns  drained=True",
        "  flows: 116 total = 116 ok + 0 rejected + 0 shed + 0 abandoned "
        "+ 0 error",
        "  step 0: rate=60/ms offered=6 ok=4 rejected=0 shed=0 abandoned=0 "
        "errors=0 goodput=40.0/ms p99=23.3us",
        "  step 1: rate=240/ms offered=20 ok=4 rejected=0 shed=0 "
        "abandoned=0 errors=0 goodput=40.0/ms p99=33.6us",
        "  step 2: rate=960/ms offered=90 ok=9 rejected=0 shed=0 "
        "abandoned=0 errors=0 goodput=90.0/ms p99=75.6us",
        "  drain: ok=99 rejected=0 shed=0 abandoned=0 errors=0",
        "  saturation: step 2 (peak 90.0/ms); final step: 90.0/ms "
        "(100% of peak), p99=75.6us",
        "  discovery scraper: 5 ok, 0 shed, 0 error",
        "  faults: msgs_delayed=30, msgs_dropped=17, msgs_duplicated=7",
    ],
}


@pytest.mark.parametrize("mode", sorted(SCHEDULE))
@pytest.mark.parametrize("fidelity_mode", ["fast", "detailed"])
def test_soak_event_schedule_is_pinned(monkeypatch, mode, fidelity_mode):
    # The invariant auditor schedules its own sweeps; pin the plain run.
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    rigs, spawned = [], []
    build, spawn = configs.build_cokernel_system, Engine.spawn

    def capture_rig(*args, **kwargs):
        rigs.append(build(*args, **kwargs))
        return rigs[-1]

    def count_spawn(self, gen, name=""):
        spawned.append(name)
        return spawn(self, gen, name)

    monkeypatch.setattr(configs, "build_cokernel_system", capture_rig)
    monkeypatch.setattr(Engine, "spawn", count_spawn)
    with getattr(fidelity, fidelity_mode)():
        report = run_soak(CONFIG, protected=mode == "protected")
    (rig,) = rigs
    engine = rig.engine
    assert (engine._seq, len(spawned), engine.now) == SCHEDULE[mode]
    names = collections.Counter(re.sub(r":\d+$", ":*", n) for n in spawned)
    assert dict(names) == NAMES[mode]
    assert report.lines() == LINES[mode]
