"""Tests of the benchmark harness itself (no full workloads).

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import compare  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layers import SpanStack, TimedGen, traced  # noqa: E402

if str(worker.SRC) not in sys.path:
    sys.path.insert(0, str(worker.SRC))


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def spans(clock):
    return SpanStack(clock=clock)


# -- span stack ---------------------------------------------------------------


def test_yield_from_nests_self_time(clock, spans):
    def inner():
        clock.work(2)
        value = yield "ready"
        clock.work(3)
        return value * 2

    t_inner = traced(inner, "virt", spans)

    def outer():
        clock.work(1)
        result = yield from t_inner()
        clock.work(4)
        return result

    gen = traced(outer, "xemem", spans)()
    assert next(gen) == "ready"
    with pytest.raises(StopIteration) as stop:
        gen.send(10)
    assert stop.value.value == 20
    assert spans.self_s["virt"] == 5
    assert spans.self_s["xemem"] == 5
    assert spans.frames == []


def test_plain_call_inside_generator_is_a_child(clock, spans):
    def helper():
        clock.work(7)
        return "done"

    t_helper = traced(helper, "obs", spans)

    def body():
        clock.work(1)
        yield t_helper()

    gen = traced(body, "workloads", spans)()
    assert next(gen) == "done"
    assert spans.self_s["obs"] == 7
    assert spans.self_s["workloads"] == 1


def test_throw_and_close_are_timed(clock, spans):
    def inner():
        try:
            yield 1
        except KeyError:
            clock.work(3)
            yield 2
        finally:
            clock.work(5)

    t_inner = traced(inner, "pisces", spans)

    def outer():
        yield from t_inner()

    gen = traced(outer, "xemem", spans)()
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == 2
    gen.close()
    assert spans.self_s["pisces"] == 8
    assert spans.self_s["xemem"] == 0
    assert spans.frames == []


def test_exceptions_close_their_spans(clock, spans):
    def failing():
        clock.work(2)
        raise ValueError("boom")

    t_failing = traced(failing, "faults", spans)

    def outer():
        clock.work(1)
        try:
            t_failing()
        except ValueError:
            clock.work(1)
        yield
        raise RuntimeError("late")

    gen = traced(outer, "workloads", spans)()
    next(gen)
    with pytest.raises(RuntimeError):
        next(gen)
    assert spans.self_s["faults"] == 2
    assert spans.self_s["workloads"] == 2
    assert spans.frames == []


def test_builder_time_is_excluded_and_muted(clock, spans):
    probe = layers.Probe(spans)

    def build():
        clock.work(10)
        t_inner()  # spans inside a builder are not recorded
        return "rig"

    def inner():
        clock.work(1)

    t_inner = traced(inner, "hw.memory", spans)
    t_build = probe.builder(build)

    def cell():
        clock.work(2)
        return t_build()

    assert traced(cell, "workloads", spans)() == "rig"
    assert spans.self_s["workloads"] == 2
    assert spans.self_s["hw.memory"] == 0
    assert spans.muted == 0


def test_same_layer_calls_open_one_span(clock, spans):
    def leaf():
        clock.work(2)

    t_leaf = traced(leaf, "hw.memory", spans)

    def mid():
        clock.work(1)
        t_leaf()

    t_mid = traced(mid, "hw.memory", spans)

    def top():
        clock.work(3)
        t_mid()
        t_mid()

    traced(top, "workloads", spans)()
    assert spans.self_s["hw.memory"] == 6
    assert spans.self_s["workloads"] == 3
    assert spans.closed == {"hw.memory": 2, "workloads": 1}


def test_calibrated_bias_is_charged_to_nobody(clock):
    spans = SpanStack(clock, inner_bias=0.5, outer_bias=1.0)

    def child():
        clock.work(2)

    t_child = traced(child, "pisces", spans)

    def parent():
        clock.work(4)
        t_child()

    traced(parent, "xemem", spans)()
    assert spans.self_s["pisces"] == 1.5
    assert spans.self_s["xemem"] == 2.5
    assert spans.bookkeeping_s == 3.0


def test_calibration_measures_a_small_positive_cost():
    inner, outer = layers.calibrate(n=2000, trials=3)
    assert 0 <= inner < 1e-4 and 0 < outer < 1e-4


def test_timed_gen_keeps_name(spans):
    def flow_gen():
        yield

    assert TimedGen(flow_gen(), "sim", spans).__name__ == "flow_gen"
    assert traced(flow_gen, "sim", spans)().__name__ == "flow_gen"


def test_instrument_charges_spawned_roots_and_restores():
    from repro import obs
    from repro.sim.engine import Engine
    from repro.workloads import insitu

    originals = (Engine.spawn, Engine.run, obs.get, insitu.poll_u64_at_least)

    class ZeroView:
        def read(self, offset, length):
            return bytes(length)

    with layers.instrument(trace=True) as probe:
        engine = Engine()
        proc = engine.spawn(insitu.poll_u64_at_least(engine, ZeroView(), 0, 0))
        engine.run()
        assert proc.name == "poll_u64_at_least"
        assert proc.finished
    counts = probe.spans.counts
    assert counts["sim.processes"] == 1
    assert counts["sim.events"] == 1
    assert probe.spans.self_s["workloads"] > 0
    assert (Engine.spawn, Engine.run, obs.get, insitu.poll_u64_at_least) == originals


# -- metric names ----------------------------------------------------------------


def test_reported_metrics_match_benchmark_json():
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    ref = hostspeed.NOMINAL_S
    traced_rep = {"wall_s": 2.0, "ref_s": ref, "self_s": {"sim": 1.0},
                  "layer_metrics": worker.trace_metrics(SpanStack(), 2.0)}
    traced_rep["layer_metrics"]["sim.events"] = 10.0
    per_layer = run.layer_metrics([{"wall_s": 1.0, "ref_s": ref},
                                   {"wall_s": 1.1, "ref_s": ref}], [traced_rep])
    assert sorted(per_layer) == sorted(m["name"] for m in bench["per_layer"])
    for metric in bench["per_layer"] + bench["end_to_end"]:
        assert run.unit_of(metric["name"]) == metric["unit"]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in bench["workloads"]] == list(cells.WORKLOADS)


def test_times_scale_to_the_reference_host_speed():
    rep = {"ref_s": 2 * hostspeed.NOMINAL_S}
    assert run.at_reference_speed(rep, 3.0) == pytest.approx(1.5)
    assert run.at_reference_speed(rep, 3.0, power=2.0) == pytest.approx(0.75)
    assert set(hostspeed.SENSITIVITY) <= set(cells.WORKLOADS)


# -- host-speed sampler -----------------------------------------------------------


def test_sampler_samples_on_the_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 6 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3  # one on entry, then the timer's
    assert sampler.mean_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampler_mean_is_harmonic():
    # Half the time at reference speed, half at a quarter of it: the work
    # done is that of 0.5 + 0.125 of the time at reference speed.
    sampler = hostspeed.Sampler()
    sampler.samples = [1.0, 4.0]
    assert sampler.mean_s == pytest.approx(1.6)


def test_native_windows_total_does_not_depend_on_seed():
    totals = {sum(size for _off, size in cells.attach_windows(s, 1 << 30, 3))
              for s in range(5)}
    assert totals == {3 * 3 * (1 << 30)}
    assert cells.attach_windows(0, 1 << 30, 3) != cells.attach_windows(1, 1 << 30, 3)


# -- comparator --------------------------------------------------------------------


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def _pairs(base, new):
    return list(zip(base, new))


def test_verdict_unchanged_for_same_distribution():
    new = [x * 1.005 for x in reversed(BASE)]
    assert compare.verdict(BASE, new, _pairs(BASE, new), 0.1, "lower") == "unchanged"


def test_verdict_improved_needs_nine_in_ten_wins():
    new = [x * 0.8 for x in BASE]
    assert compare.verdict(BASE, new, _pairs(BASE, new), 0.1, "lower") == "improved"
    mixed = [x * 0.8 for x in BASE[:8]] + [x * 1.2 for x in BASE[8:]]
    assert compare.verdict(BASE, mixed, _pairs(BASE, mixed), 0.1, "lower") != "improved"


def test_verdict_regressed_beyond_bound():
    new = [x * 1.2 for x in BASE]
    assert compare.verdict(BASE, new, _pairs(BASE, new), 0.1, "lower") == "regressed"
    assert compare.verdict(BASE, new, _pairs(BASE, new), 0.1, "higher") == "improved"


def test_verdict_unresolved_when_spread_exceeds_bound():
    wide = [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 1.0, 1.05]
    new = list(reversed(wide))
    assert compare.verdict(wide, new, _pairs(wide, new), 0.1, "lower") == "unresolved"


def test_overhead_within_noise_floor_is_unmeasurable():
    def line(ratio, floor):
        return run.overhead_line({"trace.overhead_ratio": ratio,
                                  "trace.noise_floor": floor})

    assert "unmeasurable" in line(1.03, 0.05)
    assert "unmeasurable" in line(0.97, 0.01)
    assert "+100.0%" in line(2.0, 0.05)


# -- output oracle -----------------------------------------------------------------


def _tiny(seed):
    return [("a", lambda: {"x": 1.5 + seed}), ("b", lambda: {"y": [1, 2]})]


def test_perturbed_golden_fails_one_op(tmp_path, monkeypatch):
    monkeypatch.setitem(cells.WORKLOADS, "tiny", _tiny)
    monkeypatch.setattr(worker, "EXPECTED_DIR", tmp_path)
    record = worker.run("tiny", 0, trace=False, save_expected=True)
    assert record["ops_failed"] == 0
    golden = tmp_path / "tiny.seed0.json"
    doc = json.loads(golden.read_text())
    assert doc["outputs"] == {"a": {"x": 1.5}, "b": {"y": [1, 2]}}

    assert worker.main(["--workload", "tiny", "--seed", "0"]) == 0
    doc["outputs"]["b"]["y"][1] = 3
    golden.write_text(json.dumps(doc))
    record = worker.run("tiny", 0, trace=False)
    assert record["ops"] == 2 and record["ops_failed"] == 1
    assert record["failures"] == {"b": "golden mismatch at b/y[1]: expected 3, got 2"}
    assert worker.main(["--workload", "tiny", "--seed", "0"]) == 1


def test_run_refuses_without_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serving_soak",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no simulator sources" in proc.stderr
