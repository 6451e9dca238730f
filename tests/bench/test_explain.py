"""Tests for the attach-latency decomposition tool.

The stages come from the attach's traced request journey and the total
from the virtual clock, so checking them against ``hw.costs`` checks the
tracer and the attribution pass against the cost model.
"""

from repro.bench.explain import explain_native_attach, explain_vm_attach
from repro.hw.costs import MB, PAGE_4K


def test_native_breakdown_is_exhaustive():
    b = explain_native_attach(size_bytes=64 * MB)
    costs = b.rig.node.costs
    npages = 64 * MB // PAGE_4K
    # every nanosecond accounted for, and each stage is the cost model's
    assert b.unattributed_ns == 0
    assert sum(b.by_subsystem.values()) == b.journey.duration_ns
    assert b.by_subsystem["pagetable"] == npages * costs.walk_per_page_ns
    assert b.by_subsystem["channel"] == npages * costs.channel_per_pfn_ns
    assert b.by_subsystem["map_install"] == (
        npages * costs.map_install_per_page_ns + costs.vm_mmap_fixed_ns
    )
    assert b.by_subsystem["xemem"] == costs.attach_fixed_ns
    # install dominates the native path
    assert b.by_subsystem["map_install"] / b.measured_ns > 0.4
    assert 12.0 < b.gib_s < 14.0


def test_vm_breakdown_shows_insert_dominance():
    b = explain_vm_attach(size_bytes=64 * MB)
    vmm = b.rig.vm.kernel.vmm
    assert b.unattributed_ns == 0
    assert sum(b.by_subsystem.values()) == b.journey.duration_ns
    assert b.by_subsystem["vmm"] == vmm.insert_work_log[-1]
    # the §5.4 observation: map updates dominate the VM attach path
    assert b.by_subsystem["vmm"] / b.measured_ns > 0.4
    assert b.gib_s < 6.0


def test_vm_breakdown_radix_backend_shrinks_inserts():
    rb = explain_vm_attach(size_bytes=32 * MB)
    radix = explain_vm_attach(size_bytes=32 * MB, memmap_backend="radix")
    assert radix.by_subsystem["vmm"] < rb.by_subsystem["vmm"] / 3
    assert radix.measured_ns < rb.measured_ns


def test_rows_render_total():
    b = explain_native_attach(size_bytes=16 * MB)
    rows = b.rows()
    assert rows[0][0] == "pagetable (exporter page-table walk)"
    assert not any(stage == "(unattributed)" for stage, _t, _s in rows)
    assert rows[-1][0] == "TOTAL"
    assert rows[-1][2] == "100.0%"
