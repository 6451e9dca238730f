"""The benchmark's four workloads, as lists of experiment cells.

Each workload function takes the seed, does its imports, and returns
``[(cell_name, thunk), ...]`` without running anything. A thunk runs one
cell through the same public functions the CLI figure commands call and
returns the cell's virtual-time outputs as plain JSON values, or raises.
Each workload puts a different layer in charge of the host time:

* ``vm_recurring_attach`` — Fig. 8's virtualized recurring-attach cells:
  every interval a fresh guest attach inserts one guest memory-map entry
  per page, so ``virt``'s red-black tree does nearly all the work.
* ``cluster_insitu`` — Fig. 9's 8-node points: analytic OS noise
  (``kernels.noise``) and long-lived pollers on the engine (``sim``).
* ``serving_soak`` — the open-loop soak pair: thousands of tiny attaches
  through the XEMEM request paths, overload control, Pisces channels,
  IPIs, fault verdicts and short-lived processes (the control plane).
* ``native_attach`` — few huge native attaches (Figs. 5 and 6, a
  write-touch loop, and a host-attaches-to-guest loop): page tables,
  frames and PFN-list streaming (the data plane), with no noise and no
  memory-map inserts.

Sizes are trimmed from the figures' defaults so that one repetition
takes 1-3 s on a quiet host and a run holds many of them; the shapes
(configurations, node counts, attach patterns) are the figures' own.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

Cell = Tuple[str, Callable[[], dict]]


class CellFailed(AssertionError):
    """A cell ran but its own consistency check failed."""


# -- vm_recurring_attach -------------------------------------------------------

VM_CELLS = (("kitten_vm_linux_host", "sync"), ("kitten_vm_kitten_host", "async"))
VM_ITERATIONS = 48
VM_COMM_INTERVAL = 8       # 6 fresh guest attaches per cell
VM_DATA_MB = 64


def vm_recurring_attach(seed: int) -> List[Cell]:
    from repro.bench import configs
    from repro.hw.costs import MB
    from repro.workloads.hpccg import HpccgProblem
    from repro.workloads.insitu import InSituConfig

    def cell(config: str, execution: str) -> dict:
        insitu = InSituConfig(
            execution=execution, attach="recurring",
            iterations=VM_ITERATIONS, comm_interval=VM_COMM_INTERVAL,
            data_bytes=VM_DATA_MB * MB, problem=HpccgProblem(100, 100, 100),
        )
        rig = configs.build_insitu_rig(config, insitu, seed=seed)
        res = rig["workload"].run()
        if not res.data_marks_verified:
            raise CellFailed("shared-memory handshake corrupt")
        return {
            "sim_time_s": res.sim_time_s,
            "attach_times_s": res.attach_times_s,
            "stream_times_s": res.stream_times_s,
            "analytics_faults": res.analytics_faults,
        }

    return [
        (f"{config}/{execution}", lambda c=config, e=execution: cell(c, e))
        for config, execution in VM_CELLS
    ]


# -- cluster_insitu ------------------------------------------------------------

CLUSTER_NODES = 8
CLUSTER_ITERATIONS = 20
CLUSTER_COMM_INTERVAL = 10
CLUSTER_DATA_GB = 1


def cluster_insitu(seed: int) -> List[Cell]:
    from repro.cluster import Cluster, ClusterConfig
    from repro.hw.costs import GB

    def cell(mode: str, attach: str) -> dict:
        cfg = ClusterConfig(
            nodes=CLUSTER_NODES, enclave_mode=mode, attach=attach,
            iterations=CLUSTER_ITERATIONS, comm_interval=CLUSTER_COMM_INTERVAL,
            data_bytes=CLUSTER_DATA_GB * GB, seed=seed,
        )
        res = Cluster(cfg).run()
        if not all(node.data_marks_verified for node in res.per_node):
            raise CellFailed("shared-memory handshake corrupt")
        return {
            "completion_s": res.completion_s,
            "per_node": [
                {
                    "sim_time_s": node.sim_time_s,
                    "attach_times_s": node.attach_times_s,
                    "analytics_faults": node.analytics_faults,
                }
                for node in res.per_node
            ],
        }

    return [
        (f"{mode}/{attach}", lambda m=mode, a=attach: cell(m, a))
        for mode in ("linux_only", "multi_enclave")
        for attach in ("one_time", "recurring")
    ]


# -- serving_soak --------------------------------------------------------------

#: The soak's work depends on its seed: one soak pair's engine events
#: vary by 10% (IQR / median) over seeds 0-13, three consecutive seeds'
#: sum by 2%.
SOAK_SEEDS_PER_RUN = 3
SOAK_STEP_NS = 100_000


def serving_soak(seed: int) -> List[Cell]:
    from repro.workloads import soak

    def cell(soak_seed: int) -> dict:
        protected, baseline = soak.run_soak_pair(
            soak.SoakConfig(seed=soak_seed, step_ns=SOAK_STEP_NS)
        )
        return {"protected": protected.lines(), "baseline": baseline.lines()}

    return [
        (f"soak/seed{s}", lambda s=s: cell(s))
        for s in range(seed, seed + SOAK_SEEDS_PER_RUN)
    ]


# -- native_attach -------------------------------------------------------------

NATIVE_FIG_REPS = 20
NATIVE_WINDOW_ROUNDS = 6


def attach_windows(seed: int, total_bytes: int, rounds: int) -> List[Tuple[int, int]]:
    """``rounds`` copies of one fixed set of (offset, size) windows over
    an export — the whole region, both halves, all four quarters — in a
    seeded order. The total attached size does not depend on the seed;
    only the order does."""
    half, quarter = total_bytes // 2, total_bytes // 4
    one_round = (
        [(0, total_bytes)]
        + [(i * half, half) for i in range(2)]
        + [(i * quarter, quarter) for i in range(4)]
    )
    windows = one_round * rounds
    random.Random(f"e2e-native:{seed}").shuffle(windows)
    return windows


def native_attach(seed: int) -> List[Cell]:
    from repro.bench import configs, figures
    from repro.hw.costs import GB, MB, PAGE_4K
    from repro.xemem.api import XpmemApi

    size = 1 * GB

    def fig6() -> dict:
        res = figures.fig6_scalability(reps=NATIVE_FIG_REPS, sizes=(size,))
        return {"enclave_counts": res.enclave_counts, "gib_s": res.throughput[size]}

    def fig5() -> dict:
        res = figures.fig5_throughput(reps=NATIVE_FIG_REPS, sizes=(size,))
        return {
            "attach_gib_s": res.attach_gib_s,
            "attach_read_gib_s": res.attach_read_gib_s,
            "rdma_gib_s": res.rdma_gib_s,
        }

    def window_loop(eng, exporter_api, attacher_api, attacher_kernel, attacher,
                    vaddr, write: bool):
        segid = yield from exporter_api.xpmem_make(vaddr, size)
        apid = yield from attacher_api.xpmem_get(segid)
        durations = []
        for offset, nbytes in attach_windows(seed, size, NATIVE_WINDOW_ROUNDS):
            t0 = eng.now
            att = yield from attacher_api.xpmem_attach(apid, offset, nbytes)
            if write:
                yield from attacher_kernel.touch_pages(
                    attacher, att.vaddr, att.npages, write=True
                )
            durations.append(eng.now - t0)
            yield from attacher_api.xpmem_detach(att)
        return durations

    def write_touch() -> dict:
        """Kitten exports; a native Linux process attaches each window
        and write-touches every page."""
        rig = configs.build_cokernel_system(
            num_cokernels=1, cokernel_mem=int(size + 64 * MB)
        )
        kitten = rig.cokernels[0].kernel
        kitten.heap_pages = size // PAGE_4K + 64
        exporter = kitten.create_process("exporter")
        linux = rig.linux.kernel
        attacher = linux.create_process("attacher", core_id=2)
        heap = kitten.heap_region(exporter)
        durations = rig.engine.run_process(window_loop(
            rig.engine, XpmemApi(exporter), XpmemApi(attacher), linux,
            attacher, heap.start, write=True,
        ))
        return {"attach_touch_ns": durations}

    def guest_export() -> dict:
        """A Linux VM exports; native Kitten attaches each window, so the
        VMM translates every guest PFN (the memory map's read side)."""
        rig = configs.build_cokernel_system(
            num_cokernels=1, with_vm=True, vm_host="linux",
            cokernel_mem=int(size + 64 * MB), vm_ram=int(size + 1 * GB),
        )
        eng = rig.engine
        guest = rig.vm.kernel
        exporter = guest.create_process("exporter")
        kitten = rig.cokernels[0].kernel
        attacher = kitten.create_process("attacher")

        def run():
            region = yield from guest.mmap_anonymous(exporter, size)
            yield from guest.touch_pages(exporter, region.start, region.npages)
            durations = yield from window_loop(
                eng, XpmemApi(exporter), XpmemApi(attacher), kitten, attacher,
                region.start, write=False,
            )
            return durations

        return {"attach_ns": eng.run_process(run())}

    return [
        ("fig6", fig6),
        ("fig5", fig5),
        ("write_touch", write_touch),
        ("guest_export", guest_export),
    ]


WORKLOADS: Dict[str, Callable[[int], List[Cell]]] = {
    "vm_recurring_attach": vm_recurring_attach,
    "cluster_insitu": cluster_insitu,
    "serving_soak": serving_soak,
    "native_attach": native_attach,
}
