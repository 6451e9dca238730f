"""Standard experiment rigs, mirroring the paper's system configurations.

Two node types:

* The **R420** (§5.1): dual-socket 24-thread, 2×16 GB. Linux management
  enclave (name server) on socket 0; Kitten co-kernels one core + their
  memory on socket 1; optional Palacios VM.
* The **OptiPlex** (§6.3): single-socket 8-thread, 8 GB. The four Table 3
  configurations for the single-node in situ experiments.

All builders return plain dicts of the constructed objects so tests,
examples, and benchmarks share exactly one rig definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.enclave import EnclaveSystem
from repro.hw import NodeHardware, OPTIPLEX_SPEC, R420_SPEC
from repro.hw.costs import GB, MB
from repro.kernels.noise import attach_noise_profile
from repro.obs import audit
from repro.pisces import PiscesManager
from repro.sim import Engine
from repro.workloads.insitu import InSituConfig, InSituWorkload
from repro.xemem import install_xemem


@dataclass
class CokernelRig:
    """An assembled R420 co-kernel system."""

    engine: Engine
    node: NodeHardware
    pisces: PiscesManager
    system: EnclaveSystem
    linux: object
    cokernels: list
    vm: Optional[object]
    modules: dict
    #: The engine's invariant :class:`~repro.obs.audit.Auditor`, when
    #: ``REPRO_AUDIT=1`` (or an explicit ``with_audit=True``) enabled
    #: it; None otherwise.
    auditor: Optional[audit.Auditor] = None


def build_cokernel_system(
    num_cokernels: int = 1,
    with_vm: bool = False,
    vm_host: str = "linux",
    cokernel_mem: int = 1536 * MB,
    memmap_backend: str = "rbtree",
    memmap_coalesce: bool = False,
    ipi_target_policy: str = "core0",
    vm_ram: int = 2 * GB,
    with_noise: bool = False,
    seed: int = 0,
    costs=None,
    with_audit: Optional[bool] = None,
    fault_plan=None,
) -> CokernelRig:
    """The §5 rig: Linux (name server) + N Kitten co-kernels (+ a VM).

    Linux gets socket 0 (cores 0–7, 8 GB of zone 0); each co-kernel gets
    one socket-1 core and its own zone-1 partition, exactly the paper's
    one-core/1.5 GB shape for Fig. 6. Pass ``costs`` to run the whole rig
    under a modified cost model (sensitivity studies).

    ``with_audit`` installs the runtime invariant auditor
    (:mod:`repro.obs.audit`) on the rig's engine; the default defers to
    the ``REPRO_AUDIT`` environment switch, so ``REPRO_AUDIT=1 pytest``
    audits every rig-based test without code changes.

    ``fault_plan`` arms a :class:`repro.faults.FaultPlan` on the finished
    rig (after discovery, so the baseline topology always forms).
    """
    eng = Engine()
    node = NodeHardware(eng, R420_SPEC, costs=costs)
    pisces = PiscesManager(node)
    linux = pisces.boot_linux(core_ids=range(0, 8), mem_bytes=8 * GB)
    extra = vm_ram + 256 * MB if (with_vm and vm_host == "kitten") else 0
    cokernels = [
        pisces.boot_cokernel(
            core_ids=[12 + i],
            mem_bytes=cokernel_mem + (extra if i == 0 else 0),
            zone_id=1,
            name=f"kitten{i}",
            ipi_target_policy=ipi_target_policy,
        )
        for i in range(num_cokernels)
    ]
    system = EnclaveSystem(node)
    system.add_all(pisces.all_enclaves)
    vm = None
    if with_vm:
        host = linux if vm_host == "linux" else cokernels[0]
        vm = pisces.boot_vm(
            host, core_ids=[20, 21], ram_bytes=vm_ram,
            name="vm0", memmap_backend=memmap_backend,
            memmap_coalesce=memmap_coalesce,
        )
        system.add_enclave(vm)
    system.designate_name_server(linux)
    modules = install_xemem(system)
    if with_noise:
        for enclave in system.enclaves:
            attach_noise_profile(enclave.kernel, seed=seed)
    rig = CokernelRig(
        engine=eng, node=node, pisces=pisces, system=system,
        linux=linux, cokernels=cokernels, vm=vm, modules=modules,
    )
    if with_audit or (with_audit is None and audit.env_enabled()):
        rig.auditor = audit.install(rig)
    if fault_plan is not None:
        from repro.faults import arm

        arm(rig, fault_plan)
    return rig


#: Table 3's four single-node configurations.
INSITU_CONFIG_NAMES = (
    "linux_linux",
    "kitten_linux",
    "kitten_vm_linux_host",
    "kitten_vm_kitten_host",
)

#: STREAM slowdowns of the analytics environment per Table 3 row (§6.4:
#: "the native analytics program slightly outperforms the same program
#: running virtualized, particularly in the Palacios on Linux case").
ANALYTICS_SLOWDOWN = {
    "linux_linux": 1.0,
    "kitten_linux": 1.0,
    "kitten_vm_linux_host": 1.30,
    "kitten_vm_kitten_host": 1.12,
}


def build_insitu_rig(config_name: str, insitu: InSituConfig,
                     spec=OPTIPLEX_SPEC, seed: int = 0) -> Dict:
    """One Table 3 cell on the OptiPlex: returns the assembled system and
    a ready :class:`InSituWorkload`."""
    if config_name not in INSITU_CONFIG_NAMES:
        raise ValueError(f"unknown in situ configuration {config_name!r}")
    eng = Engine()
    node = NodeHardware(eng, spec)
    pisces = PiscesManager(node)
    system = EnclaveSystem(node)

    if config_name == "linux_linux":
        linux = pisces.boot_linux(core_ids=range(0, 8), mem_bytes=7 * GB)
        sim_enclave = analytics_enclave = linux
    elif config_name == "kitten_linux":
        linux = pisces.boot_linux(core_ids=range(0, 4), mem_bytes=4 * GB)
        kitten = pisces.boot_cokernel(core_ids=[4, 5], mem_bytes=3 * GB + 512 * MB)
        sim_enclave, analytics_enclave = kitten, linux
    elif config_name == "kitten_vm_linux_host":
        linux = pisces.boot_linux(core_ids=range(0, 3), mem_bytes=4 * GB + 512 * MB)
        kitten = pisces.boot_cokernel(core_ids=[4, 5], mem_bytes=2 * GB + 512 * MB)
        system.add_all(pisces.all_enclaves)
        vm = pisces.boot_vm(linux, core_ids=[6, 7], ram_bytes=2 * GB, name="ana-vm")
        system.add_enclave(vm)
        sim_enclave, analytics_enclave = kitten, vm
    else:  # kitten_vm_kitten_host
        linux = pisces.boot_linux(core_ids=range(0, 3), mem_bytes=2 * GB)
        kitten = pisces.boot_cokernel(core_ids=[4, 5], mem_bytes=5 * GB + 512 * MB)
        system.add_all(pisces.all_enclaves)
        vm = pisces.boot_vm(kitten, core_ids=[6, 7], ram_bytes=2 * GB, name="ana-vm")
        system.add_enclave(vm)
        sim_enclave, analytics_enclave = kitten, vm

    system.add_all(pisces.all_enclaves)
    system.designate_name_server(pisces.linux_enclave)
    modules = install_xemem(system)
    for enclave in system.enclaves:
        attach_noise_profile(enclave.kernel, seed=seed)

    insitu.analytics_slowdown = ANALYTICS_SLOWDOWN[config_name]
    insitu.seed = seed
    workload = InSituWorkload(sim_enclave, analytics_enclave, insitu)
    return {
        "engine": eng,
        "node": node,
        "system": system,
        "modules": modules,
        "sim_enclave": sim_enclave,
        "analytics_enclave": analytics_enclave,
        "workload": workload,
    }
