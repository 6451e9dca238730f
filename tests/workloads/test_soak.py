"""The soak harness's three contracts.

1. Determinism: same config → byte-identical BENCH_serving.json across
   reruns and across the fast/detailed fidelity twins.
2. Graceful degradation: past saturation the protected ramp holds
   goodput near its peak while the unprotected baseline collapses —
   in the same artifact, same seed, same fault plan, same arrivals.
3. CLI: exit 0 when the protected run meets its SLOs, exit 4 (with an
   incident bundle) when it breaches them.
"""

import json

import pytest

from repro.sim import fidelity
from repro.workloads.soak import (
    SoakConfig, bench_doc, main, run_soak, run_soak_pair,
)

#: Small but still saturating: capacity of the 2-cokernel rig is
#: ~120-150 flows/ms, so this ramp ends ~20x past it — deep enough that
#: the unprotected baseline exhausts deadlines+retries and starts
#: abandoning — while keeping the test in the low seconds.
FAST = dict(
    seed=0, cokernels=2, step_ns=200_000,
    rates_per_ms=(60, 240, 960, 2560),
)


def doc_bytes(**overrides):
    cfg = SoakConfig(**{**FAST, **overrides})
    protected, baseline = run_soak_pair(cfg)
    return json.dumps(bench_doc(protected, baseline), sort_keys=True)


@pytest.fixture(scope="module")
def fast_pair():
    with fidelity.fast():
        return run_soak_pair(SoakConfig(**FAST))


def test_flows_all_settle_and_drain(fast_pair):
    for report in fast_pair:
        assert report.drained
        assert report.exported == 2
        outcomes = report.outcome_counts()
        # conservation: every offered flow settled exactly once
        assert sum(outcomes.values()) == report.offered_total
        assert report.ok_total > 0


def test_protected_admission_ledger_balances(fast_pair):
    protected, baseline = fast_pair
    adm = protected.admission
    assert adm["offered"] == (
        adm["admitted"] + adm["rejected"] + adm["shed"] + adm["aborted"]
        + adm["waiting"]
    )
    assert adm["waiting"] == 0  # drained
    assert baseline.admission == {}  # unarmed rig has no ledger


def test_same_seed_same_bytes(fast_pair):
    again = run_soak_pair(SoakConfig(**FAST))
    for a, b in zip(fast_pair, again):
        assert a == b
    first = json.dumps(bench_doc(*fast_pair), sort_keys=True)
    assert doc_bytes() == first
    assert doc_bytes(seed=1) != first  # the seed is actually consumed


def test_fastpath_twins_are_byte_identical(fast_pair):
    with fidelity.detailed():
        slow = doc_bytes()
    assert slow == json.dumps(bench_doc(*fast_pair), sort_keys=True)


def test_graceful_degradation_past_saturation(fast_pair):
    protected, baseline = fast_pair
    # the ramp actually crossed saturation: the final step offered more
    # than either mode could complete
    assert protected.steps[-1].offered > protected.steps[-1].ok
    # protected: goodput holds near peak, by shedding/rejecting cheaply
    assert protected.final_retention >= 0.8
    assert protected.admission["rejected"] + protected.admission["shed"] > 0
    # baseline: the same load collapses goodput (retry storm + orphaned
    # queue work); the gap is the whole point of the experiment
    assert baseline.final_retention < protected.final_retention
    assert (protected.final_goodput_per_ms
            > 1.5 * baseline.final_goodput_per_ms)
    # and the baseline's pain shows up as timeouts, not rejections
    assert baseline.outcome_counts()["abandoned"] > 0
    assert baseline.outcome_counts()["rejected"] == 0
    assert baseline.outcome_counts()["shed"] == 0


def test_bench_doc_keys_feed_the_gate(fast_pair):
    doc = bench_doc(*fast_pair)
    assert doc["benchmark"] == "soak-serving"
    # both the goodput and the latency families reach the artifact
    assert "protected_final_goodput_rate" in doc
    assert "pre_saturation_p99_attach_latency_ns" in doc
    assert doc["protected_retention_rate"] >= 0.8
    for i in range(len(FAST["rates_per_ms"])):
        assert f"protected_step{i}_p99_attach_latency_ns" in doc
        assert f"baseline_step{i}_goodput_rate" in doc


def test_cli_exit_0_and_writes_json(tmp_path, capsys):
    out = tmp_path / "BENCH_serving.json"
    code = main([
        "--rates", "60,240,960", "--step-ns", "200000",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["benchmark"] == "soak-serving"
    text = capsys.readouterr().out
    assert "SLOs (protected):" in text
    assert "VIOLATED" not in text


def test_cli_exit_4_on_slo_breach_with_bundle(tmp_path, capsys):
    code = main([
        "--rates", "60,240,960", "--step-ns", "200000",
        "--slo-p99-ns", "1",  # unattainable bound forces the breach path
        "--bundle-dir", str(tmp_path),
    ])
    assert code == 4
    text = capsys.readouterr().out
    assert "VIOLATED: soak.attach.p99" in text
    assert "incident bundle:" in text
    bundle = tmp_path / "incident-slo"
    assert (bundle / "trigger.json").exists() or any(bundle.iterdir())
