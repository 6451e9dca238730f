"""Tests for the closed-loop serving driver (repro.workloads.sessions)."""

from repro import obs
from repro.obs import analysis
from repro.obs.export import folded_stacks, prometheus_text
from repro.sim import fidelity
from repro.workloads.sessions import SessionConfig, run_sessions


def small_cfg(**over):
    base = dict(seed=3, sessions=3, ops=2, cokernels=2, pages=4)
    base.update(over)
    return SessionConfig(**base)


def test_serve_report_counts_and_latency_summary():
    report = run_sessions(small_cfg())
    assert report.exported == 2
    assert report.segment_names == ["svc/kitten0", "svc/kitten1"]
    assert report.ops_total == 3 * 2
    assert report.ops_ok == report.ops_total  # healthy rig: no errors
    assert report.attach_count == report.ops_ok
    assert 0 < report.attach_p50_ns <= report.attach_p99_ns
    assert report.attach_p99_ns <= report.attach_max_ns
    assert report.drained
    assert report.end_ns > 0
    assert any("attach latency" in line for line in report.lines())


def test_same_seed_reproduces_the_run_exactly():
    a = run_sessions(small_cfg())
    b = run_sessions(small_cfg())
    assert a == b  # dataclass equality covers every recorded field


def test_different_seeds_change_the_interleaving():
    a = run_sessions(small_cfg(seed=1))
    b = run_sessions(small_cfg(seed=2))
    assert a.end_ns != b.end_ns  # think times reshuffle the timeline


def test_kwargs_form_matches_config_form():
    assert run_sessions(seed=3, sessions=3, ops=2, cokernels=2,
                        pages=4) == run_sessions(small_cfg())


def _observed_exports(cfg):
    """(prometheus, folded, timeseries json) for one observed run."""
    with obs.observing(trace=True, metrics=True, timeseries=True,
                       window_ns=50_000) as ctx:
        report = run_sessions(cfg)
        ctx.timeseries.finish(report.end_ns)
    trace = analysis.from_tracer(ctx.tracer)
    exclude = ("engine.", "fastpath.")
    return (
        prometheus_text(ctx.metrics, exclude_prefixes=exclude),
        folded_stacks(trace),
        ctx.timeseries.to_json(exclude_prefixes=exclude),
    )


def test_observed_run_exports_are_byte_identical_across_repeats():
    assert _observed_exports(small_cfg()) == _observed_exports(small_cfg())


def test_fast_and_slow_paths_export_identical_bytes():
    with fidelity.fast():
        fast = _observed_exports(small_cfg())
    with fidelity.detailed():
        slow = _observed_exports(small_cfg())
    assert fast == slow


def test_observed_run_produces_journeys_for_every_op():
    cfg = small_cfg()
    with obs.observing(trace=True, metrics=True) as ctx:
        report = run_sessions(cfg)
    trace = analysis.from_tracer(ctx.tracer)
    js = analysis.journeys(trace)
    # every client round allocates req-ids; at least one journey per op
    assert len(js) >= report.ops_total
    assert all(j.req_id for j in js)
    assert any(j.op.startswith("xemem.") for j in js)
    # each instant counts once: no journey is charged more than its span
    assert all(sum(j.by_subsystem.values()) <= j.duration_ns for j in js)
