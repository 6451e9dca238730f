"""XEMEM: cross-enclave shared memory (the paper's contribution).

Public surface:

* :class:`~repro.xemem.api.XpmemApi` — the XPMEM-backwards-compatible
  user API of Table 1 (``xpmem_make`` / ``remove`` / ``get`` / ``release``
  / ``attach`` / ``detach``), bound to one OS process. Applications use
  only this; they never see enclave IDs or channels (§3.1's transparency
  goal).
* :class:`~repro.xemem.module.XememModule` — the per-enclave "kernel
  module": command routing, remote attach serving via page-table walks,
  and mapping of remote PFN lists, as the shell around the protocol core.
* :class:`~repro.xemem.nameserver.NameServer` — the centralized segid
  authority providing the common global name space (§3.1) and segid→
  enclave mapping used to forward attachment commands (§4.2).
* :mod:`repro.xemem.core` — the engine-free owner, attacher and replay
  roles that hold each enclave's protocol tables.
* :func:`~repro.xemem.routing.run_discovery` — the §3.2 hierarchical
  discovery/routing protocol.
* :func:`~repro.xemem.module.install_xemem` — convenience: put a module
  on every enclave of a system and run discovery.
"""

from repro.xemem.ids import (
    Permit, SegmentId, ApId, XememError, XememOverload, XememTimeout,
    PermissionError_,
)
from repro.xemem.nameserver import NameServer
from repro.xemem.module import XememModule, install_xemem
from repro.xemem.api import XpmemApi
from repro.xemem.shmem import AttachedRegion, ExportedSegment
from repro.xemem.routing import run_discovery
from repro.xemem.overload import (
    AdmissionController, CircuitBreaker, ModuleOverload, OverloadConfig,
    RetryBudget, arm_overload, disarm_overload,
)

__all__ = [
    "Permit",
    "SegmentId",
    "ApId",
    "XememError",
    "XememOverload",
    "XememTimeout",
    "PermissionError_",
    "NameServer",
    "XememModule",
    "install_xemem",
    "XpmemApi",
    "AttachedRegion",
    "ExportedSegment",
    "run_discovery",
    "AdmissionController",
    "CircuitBreaker",
    "ModuleOverload",
    "OverloadConfig",
    "RetryBudget",
    "arm_overload",
    "disarm_overload",
]
