"""Whole-stack determinism, including across Python hash randomization.

Everything in the simulation must be reproducible from its seed. The
subtle failure mode is accidental dependence on ``dict``/``set``
iteration order of *strings*, which varies run-to-run unless
PYTHONHASHSEED is fixed. These tests run a representative experiment in
subprocesses with different hash seeds and require identical output.
"""

import os
import subprocess
import sys

SNIPPET = r"""
from repro.bench.configs import build_cokernel_system, build_insitu_rig
from repro.hw.costs import MB, gib_per_s, PAGE_4K
from repro.workloads.hpccg import HpccgProblem
from repro.workloads.insitu import InSituConfig
from repro.xemem import XpmemApi

# a cross-enclave attach (exercises discovery, routing, channels)
rig = build_cokernel_system(num_cokernels=2)
eng = rig.engine
kitten = rig.cokernels[1].kernel
kitten.heap_pages = 8 * MB // PAGE_4K + 4
kp = kitten.create_process("exp")
lp = rig.linux.kernel.create_process("att", core_id=2)
heap = kitten.heap_region(kp)

def run():
    api_k, api_l = XpmemApi(kp), XpmemApi(lp)
    segid = yield from api_k.xpmem_make(heap.start, 8 * MB)
    apid = yield from api_l.xpmem_get(segid)
    t0 = eng.now
    att = yield from api_l.xpmem_attach(apid)
    return eng.now - t0, eng.now

print("attach", eng.run_process(run()))

# a noisy in situ run (exercises seeded noise + interference)
cfg = InSituConfig(execution="async", attach="recurring", iterations=40,
                   comm_interval=20, data_bytes=8 * MB,
                   problem=HpccgProblem(16, 16, 16))
w = build_insitu_rig("linux_linux", cfg, seed=5)["workload"]
res = w.run()
print("insitu", f"{res.sim_time_s:.9f}", res.analytics_faults)
"""


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_with_hashseed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    # the checkout's src/ first, so the snippet imports this tree's
    # repro whether or not the package is installed
    path = [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    out = subprocess.run(
        [sys.executable, "-c", SNIPPET],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=240,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_identical_across_hash_seeds():
    a = run_with_hashseed("1")
    b = run_with_hashseed("31337")
    assert a == b
    assert "attach" in a and "insitu" in a
