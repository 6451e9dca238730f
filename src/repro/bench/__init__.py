"""Experiment drivers that regenerate the paper's figures and tables.

* :mod:`repro.bench.configs` — the paper's standard node/enclave rigs
  (R420 co-kernel systems for §5, OptiPlex Table 3 configurations for
  §6, cluster nodes for §7).
* :mod:`repro.bench.figures` — one generator per figure/table, each
  returning the same rows/series the paper reports.
* :mod:`repro.bench.experiments` — the registry: each experiment's CLI
  name, results stem, default count, run and render, declared once.
* :mod:`repro.bench.report` — plain-text rendering for EXPERIMENTS.md.
"""

from repro.bench.configs import (
    CokernelRig,
    build_cokernel_system,
    build_insitu_rig,
    INSITU_CONFIG_NAMES,
)
from repro.bench.figures import (
    fig5_throughput,
    fig6_scalability,
    table2_vm_throughput,
    fig7_noise,
    fig8_single_node,
    fig9_multi_node,
)
from repro.bench.report import render_table, render_series
from repro.bench.explain import (
    AttachBreakdown,
    explain_native_attach,
    explain_vm_attach,
)

__all__ = [
    "AttachBreakdown",
    "explain_native_attach",
    "explain_vm_attach",
    "CokernelRig",
    "build_cokernel_system",
    "build_insitu_rig",
    "INSITU_CONFIG_NAMES",
    "fig5_throughput",
    "fig6_scalability",
    "table2_vm_throughput",
    "fig7_noise",
    "fig8_single_node",
    "fig9_multi_node",
    "render_table",
    "render_series",
]
