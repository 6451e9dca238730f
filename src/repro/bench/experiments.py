"""The paper's experiments, each declared once.

One :class:`Experiment` per figure, table and ablation of the evaluation
(§5–§7 plus the §5.3/§5.4/§6.1 future work). ``python -m repro <name>``
and ``benchmarks/test_experiments.py`` both call ``run(count)`` and
print ``render(result)``; the bench also writes that text to
``benchmarks/results/<results>.txt``. So the CLI output and the
committed results text are the same text.

``count`` is the one default repetition count: the count the committed
results text was made with. Fig. 8 runs the paper's 10 seeds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.bench import figures
from repro.bench.plot import render_scatter
from repro.bench.report import render_bars, render_series, render_table
from repro.hw.costs import GB, MB


@dataclass(frozen=True)
class Experiment:
    """One figure, table or ablation: how to run it and how to show it."""
    #: CLI command name (``python -m repro <name>``).
    name: str
    #: Results-text stem: ``benchmarks/results/<results>.txt``.
    results: str
    #: One line, printed by ``python -m repro list``.
    title: str
    #: The CLI count flag this experiment reads: reps, runs or seconds.
    flag: str
    #: The default count for that flag.
    count: int
    run: Callable[[int], Any]
    render: Callable[[Any], str]


# ------------------------------------------------------------------ renderers


def _render_fig5(result) -> str:
    return render_series(
        {
            "attach GiB/s": result.attach_gib_s,
            "attach+read GiB/s": result.attach_read_gib_s,
            "RDMA GiB/s": result.rdma_gib_s,
        },
        "size MB",
        [s // MB for s in result.sizes_bytes],
        title=(
            "Figure 5 — cross-enclave throughput (paper: attach ~13, "
            "attach+read ~12, RDMA ~3.4 GB/s)"
        ),
    )


def _render_fig6(result) -> str:
    return render_series(
        {
            f"{size // MB}MB GiB/s": result.throughput[size]
            for size in result.sizes_bytes
        },
        "enclaves",
        result.enclave_counts,
        title=(
            "Figure 6 — per-pair attach throughput vs enclave count "
            "(paper: ~13 at 1, dip to ~12 at 2, then flat)"
        ),
    )


def _render_table2(result) -> str:
    rows = [
        (r.exporting, r.attaching, r.gib_s,
         "-" if r.gib_s_without_rb is None else f"{r.gib_s_without_rb:.3f}")
        for r in result.rows
    ]
    return render_table(
        ["exporting", "attaching", "GiB/s", "w/o rb-tree inserts"],
        rows,
        title=(
            "Table 2 — VM-boundary attach throughput, 1 GB regions "
            "(paper: 12.841 / 3.991 (8.79) / 12.606)"
        ),
    )


def _render_fig7(result) -> str:
    sources = Counter(src for _t, _d, src in result.detours)
    rows = [
        ("hardware baseline", f"{result.baseline_us:.1f}", sources["hw-baseline"]),
        ("SMI", f"{result.smi_us:.1f}", sources["smi"]),
        ("4KB attachment walk", "below threshold", "-"),
        ("2MB attachment walk", f"{result.attach_detour_us['2MB']:.1f}",
         sources.get("xemem-walk:512p", 0)),
        ("1GB attachment walk", f"{result.attach_detour_us['1GB']:.1f}",
         sources.get("xemem-walk:262144p", 0)),
    ]
    table = render_table(
        ["detour source", "duration (us)", f"events in {result.duration_s}s"],
        rows,
        title=(
            "Figure 7 — Kitten noise profile under attachment service "
            "(paper: baseline ~12us, SMI ~100us, 1GB ~23-24ms)"
        ),
    )
    series: Dict[str, list] = {}
    for t, dur_us, source in result.detours:
        series.setdefault(source.split(":")[0], []).append((t, dur_us))
    scatter = render_scatter(
        series,
        log_y=True,
        title="detour duration (us, log) over time — the paper's Fig. 7 panels:",
        x_label="seconds",
        y_label="us",
    )
    return table + "\n\n" + scatter


def _render_fig8(result) -> str:
    rows = [
        (cell.config, cell.execution, cell.attach,
         f"{cell.mean_s:.2f}", f"{cell.stdev_s:.3f}")
        for cell in result.cells
    ]
    table = render_table(
        ["configuration", "execution", "attach model", "mean s", "stdev s"],
        rows,
        title=(
            "Figure 8 — single-node in situ completion time "
            "(paper band: ~140-160 s; async < sync; Kitten/Linux best; "
            "Linux-only most variable)"
        ),
    )
    one_time = [
        (f"{c.config} [{c.execution}]", c.mean_s)
        for c in result.cells
        if c.attach == "one_time"
    ]
    floor = 5 * (min(v for _l, v in one_time) // 5)
    bars = render_bars(one_time, title="one-time attachment model:",
                       unit="s", baseline=floor)
    return table + "\n\n" + bars


def _render_fig9(result) -> str:
    rows = [
        (p.attach, p.mode, p.nodes, f"{p.mean_s:.2f}", f"{p.stdev_s:.3f}")
        for p in result.points
    ]
    return render_table(
        ["attach model", "composition", "nodes", "mean s", "stdev s"],
        rows,
        title=(
            "Figure 9 — weak-scaling in situ completion time "
            "(paper band: ~42-54 s; multi-enclave flat, Linux-only declines, "
            "recurring crossover after 1 node)"
        ),
    )


def vm_attach_row(result):
    """The Kitten→Linux (VM) row of a Table 2 result."""
    return next(r for r in result.rows if r.attaching == "Linux (VM)")


def _run_memmap(reps: int):
    return (
        figures.table2_vm_throughput(reps=reps),
        figures.table2_vm_throughput(reps=reps, memmap_backend="radix"),
        figures.table2_vm_throughput(reps=reps, memmap_coalesce=True),
    )


def _render_memmap(result) -> str:
    base_row, radix_row, coal_row = (vm_attach_row(r) for r in result)
    rows = [
        ("rbtree per-page (shipped Palacios)", f"{base_row.gib_s:.3f}",
         f"{base_row.gib_s_without_rb:.3f}"),
        ("radix map (paper's future work, ablation A)", f"{radix_row.gib_s:.3f}",
         f"{radix_row.gib_s_without_rb:.3f}"),
        ("rbtree + run coalescing (ablation C)", f"{coal_row.gib_s:.3f}",
         f"{coal_row.gib_s_without_rb:.3f}"),
    ]
    return render_table(
        ["guest memory-map variant", "VM attach GiB/s", "w/o insert work"],
        rows,
        title=(
            "Ablation A/C — Kitten→Linux(VM) 1 GB attach under different "
            "memory-map designs (baseline paper value: 3.991 GB/s)"
        ),
    )


def _run_ipi(reps: int):
    return tuple(
        figures.fig6_scalability(reps=reps, sizes=(256 * MB, 1 * GB),
                                 ipi_target_policy=policy)
        for policy in ("core0", "distributed")
    )


def _render_ipi(result) -> str:
    core0, spread = result
    series = {}
    for size in core0.sizes_bytes:
        label = f"{size // MB}MB"
        series[f"core0 {label}"] = core0.throughput[size]
        series[f"distributed {label}"] = spread.throughput[size]
    return render_series(
        series, "enclaves", core0.enclave_counts,
        title=(
            "Ablation B — Fig. 6 under core-0 vs distributed IPI routing "
            "(GiB/s per pair; the paper's proposed fix removes the dip)"
        ),
    )


def _render_notify(rows) -> str:
    return render_table(
        ["configuration", "execution", "poll s", "notify s"],
        rows,
        title=(
            "Ablation E — stop/go via polled shared variables (§6.1, shipped) "
            "vs kernel doorbells (the paper's proposed feature)"
        ),
    )


def _render_sensitivity(result) -> str:
    _base, rows = result
    return render_table(
        ["cost-model variant", "attach GiB/s (256 MB)"],
        rows,
        title="Ablation D — sensitivity of Fig. 5 throughput to the pipeline",
    )


# ------------------------------------------------------------------- registry

EXPERIMENTS: Dict[str, Experiment] = {e.name: e for e in (
    Experiment(
        "fig5", "fig5_throughput",
        "Fig. 5: attach and attach+read throughput vs RDMA over IB",
        "reps", 10, lambda n: figures.fig5_throughput(reps=n), _render_fig5,
    ),
    Experiment(
        "fig6", "fig6_scalability",
        "Fig. 6: per-pair attach throughput over 1-8 co-kernel enclaves",
        "reps", 4, lambda n: figures.fig6_scalability(reps=n), _render_fig6,
    ),
    Experiment(
        "table2", "table2_vm_throughput",
        "Table 2: 1 GB attach throughput across the VM boundary",
        "reps", 4, lambda n: figures.table2_vm_throughput(reps=n),
        _render_table2,
    ),
    Experiment(
        "fig7", "fig7_noise",
        "Fig. 7: Kitten noise profile while serving attachments",
        "seconds", 10, lambda n: figures.fig7_noise(duration_s=n),
        _render_fig7,
    ),
    Experiment(
        "fig8", "fig8_insitu_single_node",
        "Fig. 8: single-node in situ completion time, both panels",
        "runs", 10, lambda n: figures.fig8_single_node(runs=n), _render_fig8,
    ),
    Experiment(
        "fig9", "fig9_multi_node",
        "Fig. 9: multi-node weak scaling of the in situ composition",
        "runs", 3, lambda n: figures.fig9_multi_node(runs=n), _render_fig9,
    ),
    Experiment(
        "ablation_memmap", "ablation_memmap",
        "Ablations A/C: radix map and run coalescing for VM attaches",
        "reps", 3, _run_memmap, _render_memmap,
    ),
    Experiment(
        "ablation_ipi", "ablation_ipi",
        "Ablation B: Fig. 6 under core-0 vs distributed IPI routing",
        "reps", 3, _run_ipi, _render_ipi,
    ),
    Experiment(
        "ablation_notify", "ablation_notify",
        "Ablation E: polled shared variables vs kernel doorbells",
        "runs", 2, lambda n: figures.notify_grid(runs=n), _render_notify,
    ),
    Experiment(
        "ablation_sensitivity", "ablation_sensitivity",
        "Ablation D: Fig. 5 throughput under perturbed pipeline costs",
        "reps", 5, lambda n: figures.sensitivity_sweep(reps=n),
        _render_sensitivity,
    ),
)}
