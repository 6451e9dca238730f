"""Tests for tumbling-window time-series aggregation (repro.obs.timeseries)."""

import json

import pytest

from repro.obs.engine_hooks import EngineObserver
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder, bucket_quantile


# -- bucket_quantile (delta-bucket quantiles, no exact min/max) ----------------

def test_bucket_quantile_empty_returns_zero():
    assert bucket_quantile((10, 100), (0, 0, 0), 0.5) == 0.0


@pytest.mark.parametrize("q", [-0.01, 1.01, 2.0])
def test_bucket_quantile_rejects_out_of_range_q(q):
    with pytest.raises(ValueError):
        bucket_quantile((10,), (1, 0), q)


def test_bucket_quantile_first_bucket_interpolates_up_from_zero():
    # all 10 samples in (-inf, 10]: lo=0, hi=10, median at rank 5 -> 5.0
    assert bucket_quantile((10, 100), (10, 0, 0), 0.5) == pytest.approx(5.0)


def test_bucket_quantile_overflow_clamps_to_last_finite_bound():
    # every sample beyond the last bound: no range to interpolate over,
    # the estimate clamps to that bound rather than inventing +inf
    assert bucket_quantile((10, 100), (0, 0, 7), 0.99) == pytest.approx(100.0)
    assert bucket_quantile((10, 100), (0, 0, 7), 1.0) == pytest.approx(100.0)


def test_bucket_quantile_interpolates_inside_middle_bucket():
    # 10 below 10, 90 in (10,100]; p50 rank=50 -> 10 + 90*(40/90) = 50
    assert bucket_quantile((10, 100), (10, 90, 0), 0.5) == pytest.approx(50.0)


# -- recorder windows ----------------------------------------------------------

def _registry():
    reg = MetricsRegistry()
    c = reg.counter("xemem.ops.count")
    g = reg.gauge("queue.depth")
    h = reg.histogram("xemem.attach.ns", bounds=(10, 100))
    return reg, c, g, h


def test_recorder_rejects_nonpositive_window():
    reg, *_ = _registry()
    with pytest.raises(ValueError):
        TimeSeriesRecorder(reg, window_ns=0)


def test_counter_deltas_attributed_to_their_windows():
    reg, c, g, h = _registry()
    rec = TimeSeriesRecorder(reg, window_ns=100)
    c.inc(3)
    rec.advance(100)           # closes [0,100)
    c.inc(5)
    rec.advance(250)           # closes only full windows: [100,200);
                               # the partial [200,250) stays open
    w = rec.windows
    assert [x.index for x in w] == [0, 1]
    assert w[0].start_ns == 0 and w[0].end_ns == 100
    assert w[0].counters == {"xemem.ops.count": 3}
    assert w[1].counters == {"xemem.ops.count": 5}


def test_quiet_windows_omit_zero_deltas_but_keep_gauge_levels():
    reg, c, g, h = _registry()
    rec = TimeSeriesRecorder(reg, window_ns=100)
    c.inc()
    g.set(7.5)
    rec.advance(300)  # three windows; activity only in the first
    w = rec.windows
    assert len(w) == 3
    assert w[0].counters == {"xemem.ops.count": 1}
    assert w[1].counters == {} and w[2].counters == {}
    # gauges report the current level every window, not a delta
    assert all(x.gauges["queue.depth"] == 7.5 for x in w)


def test_histogram_windows_carry_delta_buckets():
    reg, c, g, h = _registry()
    rec = TimeSeriesRecorder(reg, window_ns=100)
    h.observe(5)
    h.observe(50)
    rec.advance(100)
    h.observe(50)
    rec.advance(200)
    w = rec.windows
    hw0 = w[0].histograms["xemem.attach.ns"]
    hw1 = w[1].histograms["xemem.attach.ns"]
    assert hw0.count == 2 and hw0.bucket_deltas == (1, 1, 0)
    assert hw0.total == pytest.approx(55.0)
    assert hw0.mean == pytest.approx(27.5)
    # the second window sees only its own sample, not the cumulative state
    assert hw1.count == 1 and hw1.bucket_deltas == (0, 1, 0)
    assert hw1.quantile(0.5) == pytest.approx(10 + 90 * 0.5)


def test_windows_without_histogram_activity_omit_the_histogram():
    reg, c, g, h = _registry()
    rec = TimeSeriesRecorder(reg, window_ns=100)
    h.observe(5)
    rec.advance(200)
    w = rec.windows
    assert "xemem.attach.ns" in w[0].histograms
    assert w[1].histograms == {}


def test_finish_flushes_partial_window_and_is_idempotent():
    reg, c, g, h = _registry()
    rec = TimeSeriesRecorder(reg, window_ns=100)
    c.inc(2)
    rec.finish(150)  # [0,100) full + [100,150) partial
    assert [(_w.start_ns, _w.end_ns) for _w in rec.windows] == [
        (0, 100), (100, 150),
    ]
    before = len(rec)
    rec.finish(150)  # same instant: no new window
    assert len(rec) == before


def test_ring_cap_evicts_oldest_and_counts_drops():
    reg, c, g, h = _registry()
    rec = TimeSeriesRecorder(reg, window_ns=100, max_windows=2)
    rec.advance(500)  # five windows, cap two
    assert len(rec) == 2
    assert rec.dropped == 3
    assert [w.index for w in rec.windows] == [3, 4]
    assert rec.to_doc()["dropped_windows"] == 3


def test_to_doc_and_to_json_exclude_prefixes_and_sort():
    reg, c, g, h = _registry()
    reg.counter("engine.events.count").inc(9)
    c.inc()
    h.observe(50)
    rec = TimeSeriesRecorder(reg, window_ns=100)
    rec.finish(100)
    doc = rec.to_doc(exclude_prefixes=("engine.",))
    (win,) = doc["windows"]
    assert "engine.events.count" not in win["counters"]
    assert win["counters"] == {"xemem.ops.count": 1}
    assert {"count", "mean", "p50", "p95", "p99"} <= set(
        win["histograms"]["xemem.attach.ns"]
    )
    # serialization is valid JSON and round-trips the doc
    text = rec.to_json(exclude_prefixes=("engine.",))
    assert json.loads(text) == json.loads(
        json.dumps(doc, sort_keys=True)
    )


# -- engine hook ---------------------------------------------------------------

class _FakeEngine:
    """Stand-in with just the observer's surface; its clock is test input."""

    def __init__(self):
        self.now = 0  # repro: noqa[REP006] reason=fake engine, not the simulator clock
        self.auditor = None


def test_hook_closes_windows_before_the_event_runs():
    reg, c, g, h = _registry()
    rec = TimeSeriesRecorder(reg, window_ns=100)
    hook = EngineObserver(timeseries=rec)
    eng = _FakeEngine()

    c.inc()                       # written at t=0
    eng.now = 250  # repro: noqa[REP006] reason=fake engine, not the simulator clock
    hook.run_event(eng, c.inc)    # event at t=250 increments again
    # the boundary closed [0,100) and [100,200) *before* the callback,
    # so the t=0 write sits in window 0 and the t=250 write is pending
    w = rec.windows
    assert len(w) == 2
    assert w[0].counters == {"xemem.ops.count": 1}
    assert w[1].counters == {}
    rec.finish(250)
    assert rec.windows[-1].counters == {"xemem.ops.count": 1}


def test_hook_fast_guard_skips_advance_inside_a_window():
    reg, c, g, h = _registry()
    rec = TimeSeriesRecorder(reg, window_ns=100)
    hook = EngineObserver(timeseries=rec)
    eng = _FakeEngine()
    ran = []
    eng.now = 50  # repro: noqa[REP006] reason=fake engine, not the simulator clock
    hook.run_event(eng, ran.append, (1,))
    assert ran == [1]
    assert len(rec) == 0                 # no boundary passed, no close
    assert rec.next_close_ns == 100      # guard untouched mid-window

