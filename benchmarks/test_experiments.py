"""Every paper experiment, run once and checked against its claims.

Each case runs one :data:`repro.bench.experiments.EXPERIMENTS` entry at
its declared count, checks the paper's qualitative claims about the
result, and writes ``render(result)`` to
``benchmarks/results/<stem>.txt`` — the inputs to EXPERIMENTS.md, and
the same text ``python -m repro <name>`` prints.

``CLAIMS`` maps each experiment to ``(name, predicate)`` pairs over its
result. A failing case names every claim that failed.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS, vm_attach_row


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing (the
    simulation is deterministic; repeating it would time the simulator,
    not the system)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _flat_beyond_two(r):
    return all(
        abs(x - r.throughput[s][1]) / r.throughput[s][1] < 0.05
        for s in r.sizes_bytes for x in r.throughput[s][2:]
    )


def _pairs(r):
    return {(row.exporting, row.attaching): row for row in r.rows}


def _native(r):
    return _pairs(r)[("Kitten", "Linux")]


def _vm(r):
    return _pairs(r)[("Kitten", "Linux (VM)")]


def _guest(r):
    return _pairs(r)[("Linux (VM)", "Kitten")]


def _count(r, source):
    return sum(1 for _t, _d, src in r.detours if src == source)


KITTEN_CONFIGS = ("kitten_linux", "kitten_vm_linux_host", "kitten_vm_kitten_host")
ALL_CONFIGS = ("linux_linux",) + KITTEN_CONFIGS
EXECUTIONS = ("sync", "async")


def _penalty(r, execution):
    c = r.cell
    return (c("linux_linux", execution, "recurring").mean_s
            - c("linux_linux", execution, "one_time").mean_s)


def _monotone(points):
    return all(b.mean_s > a.mean_s for a, b in zip(points, points[1:]))


def _ipi_each_size(pred):
    return lambda r: all(
        pred(r[0].throughput[s], r[1].throughput[s]) for s in r[0].sizes_bytes
    )


def _stage_shares_hold(result):
    base, rows = result
    values = dict(rows)
    per_page = base.native_attach_per_page_ns()
    for label, stage_ns in (
        ("walk x2", base.walk_per_page_ns),
        ("install x2", base.map_install_per_page_ns),
        ("channel x2", base.channel_per_pfn_ns),
    ):
        predicted = values["baseline"] * per_page / (per_page + stage_ns)
        if not abs(values[label] - predicted) / predicted < 0.02:
            return False
    return True


CLAIMS = {
    # Fig. 5, paper: attach sustains ≈13 GB/s and attach+read ≈12 GB/s,
    # flat from 128 MB to 1 GB; RDMA verbs manage ≈3.4 GB/s. The claims
    # are the figure's content: the two shared-memory series sit in
    # those bands, stay flat across sizes, and beat RDMA by roughly 4×.
    "fig5": (
        ("attach in 12-14 GiB/s",
         lambda r: all(12.0 <= x <= 14.0 for x in r.attach_gib_s)),
        ("attach+read in 11-13 GiB/s",
         lambda r: all(11.0 <= x <= 13.0 for x in r.attach_read_gib_s)),
        ("RDMA in 3.0-3.6 GiB/s",
         lambda r: all(3.0 <= x <= 3.6 for x in r.rdma_gib_s)),
        # the per-page read touch
        ("attach+read below attach at every size",
         lambda r: all(ar < a for a, ar in zip(r.attach_gib_s, r.attach_read_gib_s))),
        ("both series flat: max/min < 1.05",
         lambda r: all(max(s) / min(s) < 1.05
                       for s in (r.attach_gib_s, r.attach_read_gib_s))),
        ("attach beats RDMA by > 3x",
         lambda r: min(r.attach_gib_s) / max(r.rdma_gib_s) > 3.0),
    ),
    # Fig. 6, paper: per-pair throughput is ≈13 GB/s with 1 enclave, dips
    # slightly at 2 (core-0 IPI handling + contended Linux map
    # structures, §5.3), then stays flat through 8 for every size.
    "fig6": (
        ("1->2 enclaves dips",
         lambda r: all(t[1] < t[0] for t in r.throughput.values())),
        ("1->2 dip is mild: > 0.85x",
         lambda r: all(t[1] / t[0] > 0.85 for t in r.throughput.values())),
        ("flat beyond 2 enclaves: within 5% of the 2-enclave value",
         _flat_beyond_two),
        ("every point in 11-14 GiB/s",
         lambda r: all(11.0 <= min(t) and max(t) <= 14.0
                       for t in r.throughput.values())),
    ),
    # Table 2, paper rows (GB/s): Kitten→Linux 12.841; Kitten→Linux(VM)
    # 3.991 (8.79 without the RB-tree inserts); Linux(VM)→Kitten 12.606.
    # The shape: the VM-attach direction loses ≈3× to the native path,
    # removing the memory-map insert work recovers most of it, and the
    # guest-export direction stays near native.
    "table2": (
        ("native in 12-14 GiB/s", lambda r: 12.0 <= _native(r).gib_s <= 14.0),
        ("VM attach in 3.3-4.7 GiB/s", lambda r: 3.3 <= _vm(r).gib_s <= 4.7),
        ("VM attach w/o inserts in 8-10 GiB/s",
         lambda r: 8.0 <= _vm(r).gib_s_without_rb <= 10.0),
        ("guest export in 9.5-13.5 GiB/s",
         lambda r: 9.5 <= _guest(r).gib_s <= 13.5),
        ("native/VM attach in 2.5-4x",
         lambda r: 2.5 <= _native(r).gib_s / _vm(r).gib_s <= 4.0),
        ("inserts dominate: w/o inserts > 2x VM attach",
         lambda r: _vm(r).gib_s_without_rb > 2 * _vm(r).gib_s),
        ("asymmetry: guest export > 2x VM attach",
         lambda r: _guest(r).gib_s > 2 * _vm(r).gib_s),
    ),
    # Fig. 7, paper: a frequent ≈12 µs hardware baseline and periodic
    # ≈100 µs SMIs; 4 KB attachment detours vanish into the baseline,
    # 2 MB detours are noticeable but below the SMI band, and 1 GB
    # detours are two orders of magnitude larger (≈23–24 ms).
    "fig7": (
        ("baseline detour is 12 us", lambda r: r.baseline_us == 12.0),
        ("SMI detour is 100 us", lambda r: r.smi_us == 100.0),
        ("4KB walk below the baseline",
         lambda r: r.attach_detour_us["4KB"] < r.baseline_us),
        ("2MB walk between baseline and SMI",
         lambda r: r.baseline_us < r.attach_detour_us["2MB"] < r.smi_us),
        ("1GB walk in 20-26 ms",
         lambda r: 20_000 <= r.attach_detour_us["1GB"] <= 26_000),
        ("1GB walk > 100x SMI",
         lambda r: r.attach_detour_us["1GB"] > 100 * r.smi_us),
        # the baseline fires every ~10 ms over 10 s, SMIs every ~1 s
        ("900-1100 baseline detours",
         lambda r: 900 <= _count(r, "hw-baseline") <= 1100),
        ("8-12 SMIs", lambda r: 8 <= _count(r, "smi") <= 12),
    ),
    # Fig. 8, paper, one-time panel (a): async beats sync in every
    # environment; Kitten/Linux is the best configuration; every
    # multi-enclave bar is more consistent (smaller error bars) than
    # Linux-only. Recurring panel (b): sync+recurring is the worst case
    # for the virtualized configurations AND Linux-only degrades markedly
    # (its lazy-attachment page faults), while async hides most of the
    # recurring overhead.
    "fig8": (
        ("one-time: async < sync for every environment",
         lambda r: all(r.cell(n, "async", "one_time").mean_s
                       < r.cell(n, "sync", "one_time").mean_s
                       for n in ALL_CONFIGS)),
        ("one-time: Kitten/Linux best under both execution models",
         lambda r: all(r.cell("kitten_linux", e, "one_time").mean_s
                       <= r.cell(o, e, "one_time").mean_s
                       for e in EXECUTIONS
                       for o in ("linux_linux",) + KITTEN_CONFIGS[1:])),
        ("one-time async: every Kitten environment beats Linux-only",
         lambda r: all(r.cell(n, "async", "one_time").mean_s
                       < r.cell("linux_linux", "async", "one_time").mean_s
                       for n in KITTEN_CONFIGS)),
        ("Kitten/Linux stdev < Linux-only stdev in every cell",
         lambda r: all(r.cell("kitten_linux", e, a).stdev_s
                       < r.cell("linux_linux", e, a).stdev_s
                       for a in ("one_time", "recurring") for e in EXECUTIONS)),
        ("sync recurring > one-time + 1 s for Linux-only and VM on Linux host",
         lambda r: all(r.cell(n, "sync", "recurring").mean_s
                       > r.cell(n, "sync", "one_time").mean_s + 1.0
                       for n in ("linux_linux", "kitten_vm_linux_host"))),
        ("sync recurring: VM on Linux host slower than Kitten/Linux",
         lambda r: r.cell("kitten_vm_linux_host", "sync", "recurring").mean_s
         > r.cell("kitten_linux", "sync", "recurring").mean_s),
        # paper: the recurring overheads "largely disappear" under async
        ("Linux-only async recurring penalty < 0.6x the sync one",
         lambda r: _penalty(r, "async") < 0.6 * _penalty(r, "sync")),
    ),
    # Fig. 9, paper, panel (a) one-time: the multi-enclave composition
    # (simulation in a Palacios VM on a Kitten co-kernel host) scales
    # almost flat with small variance, while Linux-only declines
    # steadily — a virtualized simulation beating itself running
    # natively, because isolation wins. Panel (b) recurring: Linux-only
    # wins at a single node (the VM pays its recurring attach cost) but
    # loses from two nodes on; both keep their panel-(a) scaling shapes.
    "fig9": (
        ("one-time: Linux-only grows with every node count",
         lambda r: _monotone(r.series("linux_only", "one_time"))),
        ("one-time: multi-enclave grows < 5% from 1 to 8 nodes",
         lambda r: r.series("multi_enclave", "one_time")[-1].mean_s
         / r.series("multi_enclave", "one_time")[0].mean_s < 1.05),
        ("one-time at 8 nodes: Linux-only > 1.08x multi-enclave",
         lambda r: r.series("linux_only", "one_time")[-1].mean_s
         > r.series("multi_enclave", "one_time")[-1].mean_s * 1.08),
        ("one-time at 8 nodes: multi-enclave stdev <= Linux-only",
         lambda r: r.series("multi_enclave", "one_time")[-1].stdev_s
         <= r.series("linux_only", "one_time")[-1].stdev_s),
        ("recurring at 1 node: Linux-only wins",
         lambda r: r.series("linux_only", "recurring")[0].mean_s
         < r.series("multi_enclave", "recurring")[0].mean_s),
        ("recurring at 8 nodes: Linux-only loses",
         lambda r: r.series("linux_only", "recurring")[-1].mean_s
         > r.series("multi_enclave", "recurring")[-1].mean_s),
        ("recurring: Linux-only grows with every node count",
         lambda r: _monotone(r.series("linux_only", "recurring"))),
        ("recurring: multi-enclave grows < 6% from 1 to 8 nodes",
         lambda r: r.series("multi_enclave", "recurring")[-1].mean_s
         / r.series("multi_enclave", "recurring")[0].mean_s < 1.06),
    ),
    # Ablations A and C, the paper's §5.4: "In the future we intend to
    # remove this overhead through the use of more intelligent radix
    # tree based data structures." A swaps the RB tree for that radix
    # map and re-runs Table 2. C is this reproduction's own variant: keep
    # the RB tree but coalesce contiguous host runs into single entries
    # before inserting — native-like throughput whenever the exporter's
    # frames are contiguous (they are, for Kitten's static heap).
    "ablation_memmap": (
        ("A: radix > 1.8x the RB tree",
         lambda r: vm_attach_row(r[1]).gib_s > 1.8 * vm_attach_row(r[0]).gib_s),
        ("A: radix within 20% of the RB tree w/o inserts",
         lambda r: abs(vm_attach_row(r[1]).gib_s - vm_attach_row(r[0]).gib_s_without_rb)
         / vm_attach_row(r[0]).gib_s_without_rb < 0.2),
        ("C: coalescing beats the radix map",
         lambda r: vm_attach_row(r[2]).gib_s > vm_attach_row(r[1]).gib_s),
        ("C: coalescing > 2x the RB tree",
         lambda r: vm_attach_row(r[2]).gib_s > 2.0 * vm_attach_row(r[0]).gib_s),
        ("A and C leave the native row within 1 GiB/s of 13.1",
         lambda r: all(abs(_native(v).gib_s - 13.1) < 1.0 for v in r[1:])),
    ),
    # Ablation B, the paper's §5.3: the Fig. 6 dip from 1 to 2 enclaves
    # comes from "all IPI-based communication with the Linux management
    # enclave [being restricted] to core 0" plus contended Linux map
    # structures, and the authors promise "more intelligent mechanisms
    # for interrupt handling". Per-enclave IPI target cores remove the
    # dip; residual dips come from handlers sharing cores with busy
    # attacher processes.
    "ablation_ipi": (
        ("core-0 routing dips 1->2",
         _ipi_each_size(lambda base, fixed: base[1] < base[0])),
        ("distributed routing does not dip 1->2",
         _ipi_each_size(lambda base, fixed: fixed[1] >= 0.99 * fixed[0])),
        ("distributed strictly faster at >= 2 enclaves",
         _ipi_each_size(lambda base, fixed: all(
             f > b for b, f in zip(base[1:], fixed[1:])))),
        ("distributed stays > 0.9x its 1-enclave rate",
         _ipi_each_size(lambda base, fixed: min(fixed) > 0.9 * fixed[0])),
    ),
    # Ablation E, the paper's §6.1: "operations like event notifications
    # must be supported via ad hoc techniques like polling on variables
    # in memory." Kernel doorbells over the existing command channels
    # should give small but consistent wins in the synchronous model (no
    # polling detection latency at each of the 15 handshakes) and
    # near-parity in the asynchronous model.
    "ablation_notify": (
        ("notify never loses to poll",
         lambda rows: all(n <= p + 1e-9 for _c, _e, p, n in rows)),
        ("notify wins in sync mode",
         lambda rows: all(n < p for _c, e, p, n in rows if e == "sync")),
    ),
    # Ablation D, the calibration's honesty check: Fig. 5's attach
    # throughput must respond proportionally to the per-page pipeline
    # constants (it is derived, not hard-coded), and the fixed
    # per-attachment overhead must stay irrelevant at the paper's sizes.
    "ablation_sensitivity": (
        ("doubling one stage slows throughput by its share, within 2%",
         _stage_shares_hold),
        # 1 ms per attachment: the Fig. 5 flatness is structural
        ("100x fixed cost moves 256 MB throughput < 6%",
         lambda r: abs(dict(r[1])["fixed cost x100"] - dict(r[1])["baseline"])
         / dict(r[1])["baseline"] < 0.06),
    ),
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(name, benchmark, report_file):
    entry = EXPERIMENTS[name]
    result = run_once(benchmark, entry.run, entry.count)
    failed = [claim for claim, holds in CLAIMS[name] if not holds(result)]
    assert not failed, f"{name}: failed claims: {failed}"
    report_file(entry.results, entry.render(result))
