"""The ambient observability context: install/restore, null paths."""

from repro import obs
from repro.obs.metrics import NULL_METRIC
from repro.obs.tracer import NULL_SPAN
from repro.sim import Engine


def test_default_context_is_disabled():
    ctx = obs.get()
    assert not ctx.enabled
    assert ctx.span("x", None) is NULL_SPAN
    assert ctx.counter("c") is NULL_METRIC
    assert ctx.snapshot() == {}


def test_observing_installs_and_restores():
    before = obs.get()
    with obs.observing(trace=True, metrics=True) as ctx:
        assert obs.get() is ctx
        assert ctx.enabled
    assert obs.get() is before


def test_observing_restores_on_exception():
    before = obs.get()
    try:
        with obs.observing():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert obs.get() is before


def test_install_returns_previous():
    ctx = obs.ObsContext()
    prev = obs.install(ctx)
    try:
        assert obs.get() is ctx
    finally:
        obs.install(prev)


def test_engine_picks_up_ambient_observer():
    with obs.observing(trace=False, metrics=False, engine=True) as ctx:
        eng = Engine()
        assert eng.obs is ctx.engine_obs
    assert Engine().obs is None


def test_context_usable_after_exit_for_export():
    with obs.observing(trace=True, metrics=True, engine=True) as ctx:
        eng = Engine()

        def proc():
            with ctx.span("work", eng):
                yield eng.sleep(7)
            ctx.counter("done").inc()

        eng.run_process(proc())
    snap = ctx.snapshot()
    assert snap["done"] == 1
    assert snap["engine.events.executed"] > 0
    assert [s.name for s in ctx.tracer.spans] == ["work"]


def test_repeated_snapshots_do_not_recount_engine_stats():
    with obs.observing(trace=False, metrics=True, engine=True) as ctx:
        eng = Engine()

        def proc():
            for _ in range(5):
                yield eng.sleep(10)

        eng.run_process(proc())
    first = ctx.snapshot()
    second = ctx.snapshot()
    assert first["engine.events.executed"] == 6
    assert second == first


def test_max_trace_events_threads_through():
    with obs.observing(trace=True, max_trace_events=2) as ctx:
        for i in range(5):
            ctx.tracer.instant(f"e{i}", i)
    assert len(ctx.tracer) == 2
    assert ctx.tracer.dropped == 3
