"""Engine instrumentation hooks and process-table pruning."""

from repro.obs import EngineObserver, MetricsRegistry
from repro.sim import Engine


def test_events_executed_counts_every_callback():
    ob = EngineObserver()
    eng = Engine(obs=ob)
    for t in range(5):
        eng.call_at(t, lambda: None)
    eng.run()
    assert ob.events_executed == 5
    assert eng.queue_len == 0


def test_queue_depth_sampled_every_event():
    ob = EngineObserver(sample_every=1)
    eng = Engine(obs=ob)
    for t in range(4):
        eng.call_at(10 * t, lambda: None)
    eng.run()
    assert ob.queue_depth.count == ob.events_executed == 4
    # first pop sees the remaining 3 queued events, the last sees 0
    assert ob.queue_depth.max == 3
    assert ob.queue_depth.min == 0


def test_spawn_finish_and_runtime_accounting():
    ob = EngineObserver()
    eng = Engine(obs=ob)

    def proc(delay):
        yield eng.sleep(delay)

    for delay in (10, 20, 30):
        eng.spawn(proc(delay), name=f"p{delay}")
    eng.run()
    assert ob.processes_spawned == 3
    assert ob.processes_finished == 3
    assert ob.process_runtime_ns.count == 3
    assert ob.process_runtime_ns.max == 30


def test_process_table_pruned_on_finish():
    eng = Engine()

    def proc():
        yield eng.sleep(1)

    for _ in range(100):
        eng.spawn(proc())
    assert len(eng.live_processes) == 100
    eng.run()
    assert eng.live_processes == ()


def test_live_processes_visible_while_running():
    eng = Engine()
    seen = []

    def watcher():
        yield eng.sleep(5)
        seen.append(len(eng.live_processes))

    def sleeper():
        yield eng.sleep(50)

    eng.spawn(watcher())
    eng.spawn(sleeper())
    eng.run()
    # at t=5 the watcher itself and the sleeper are both still live
    assert seen == [2]
    assert eng.live_processes == ()


def test_publish_folds_stats_into_registry():
    ob = EngineObserver(sample_every=1)
    eng = Engine(obs=ob)

    def proc():
        yield eng.sleep(10)

    eng.spawn(proc())
    eng.run()
    reg = MetricsRegistry()
    ob.publish(reg)
    snap = reg.snapshot()
    assert snap["engine.events.executed"] == ob.events_executed
    assert snap["engine.processes.spawned"] == 1
    assert snap["engine.processes.finished"] == 1
    assert snap["engine.process.runtime_ns.max"] == 10
    assert "engine.queue_depth.mean" in snap

