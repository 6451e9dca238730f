"""The flight recorder and its incident bundles.

The black box's contract has three legs, all tested here:

1. **Determinism** — same seed + same fault plan ⇒ byte-identical
   bundles across reruns *and* across the fidelity twins
   (``REPRO_FIDELITY=detailed``), because the bundle excludes the two
   metric families and the env key that legitimately differ between
   modes.
2. **Diagnosis** — ``python -m repro diagnose`` renders a bundle as a
   causal timeline naming the trigger and its faulting virtual-time
   window, and fails loudly on a tampered bundle (manifest hashes).
3. **Invisibility** — arming the recorder changes no figure output and
   surfaces ring-cap drops as metrics (the ``dropped``-gauge satellite).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import obs
from repro.faults.chaos import run_chaos
from repro.obs import flightrec
from repro.sim import fidelity

REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])

#: A plan that deterministically crashes kitten1 mid-run.
PLAN = ("drop=0.05,delay=0.05:20us,ipiloss=0.05,timeout=300us,retries=5,"
        "crash=kitten1@2ms")


def _emit(tmp_path, name, seed=3):
    out = str(tmp_path / name)
    report = run_chaos(seed=seed, plan_spec=PLAN, cokernels=2, ops=4,
                       flightrec_dir=out)
    return report, out


def _bundle_bytes(path):
    return {
        name: (pathlib.Path(path) / name).read_bytes()
        for name in flightrec.BUNDLE_FILES + (flightrec.MANIFEST,)
    }


def test_crash_emits_complete_bundle(tmp_path):
    report, out = _emit(tmp_path, "a")
    assert report.crashes == 1
    assert report.bundle_path == out
    bundle = flightrec.load_bundle(out)
    assert all(v == "ok" for v in bundle["integrity"].values())
    assert bundle["manifest"]["schema"] == flightrec.SCHEMA_VERSION
    assert bundle["manifest"]["trigger"]["kind"] == "enclave.crash"
    assert bundle["manifest"]["trigger"]["detail"]["enclave"] == "kitten1"
    # the tail holds real spans and the recorder's bookkeeping line
    assert bundle["trace"].spans
    assert bundle["trace"].meta["recorded"] >= len(bundle["trace"].spans)


def test_bundle_byte_identical_across_reruns(tmp_path):
    _, a = _emit(tmp_path, "a")
    _, b = _emit(tmp_path, "b")
    assert _bundle_bytes(a) == _bundle_bytes(b)


def test_bundle_byte_identical_across_twins(tmp_path):
    """Same (seed, plan) in fast mode and under
    ``REPRO_FIDELITY=detailed`` freezes the exact same bundle bytes."""
    script = (
        "import sys\n"
        "from repro.faults.chaos import run_chaos\n"
        f"run_chaos(seed=3, plan_spec={PLAN!r}, cokernels=2, ops=4,\n"
        "          flightrec_dir=sys.argv[1])\n"
    )
    with fidelity.fast():
        _, reference = _emit(tmp_path, "ref")
    out = str(tmp_path / "detailed")
    env = dict(os.environ, PYTHONPATH="src", REPRO_FIDELITY="detailed")
    proc = subprocess.run(
        [sys.executable, "-c", script, out],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    assert _bundle_bytes(out) == _bundle_bytes(reference), (
        "bundle bytes diverged under REPRO_FIDELITY=detailed"
    )


def test_diagnose_renders_causal_timeline(tmp_path, capsys):
    _, out = _emit(tmp_path, "a")
    assert flightrec.main([out]) == 0
    text = capsys.readouterr().out
    assert "trigger: enclave.crash at t=2000000 ns" in text
    assert "enclave=kitten1" in text
    # the faulting window ends at the trigger's virtual time
    assert "faulting window: [1500000 .. 2000000] ns" in text
    assert "timeline (virtual clock):" in text
    # injector breadcrumbs and the engine's final state both surface
    assert "fault." in text
    assert "engine:" in text


def test_diagnose_json_mode(tmp_path, capsys):
    _, out = _emit(tmp_path, "a")
    assert flightrec.main([out, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["trigger"]["kind"] == "enclave.crash"
    assert all(v == "ok" for v in doc["integrity"].values())


def test_diagnose_fails_on_tampered_bundle(tmp_path, capsys):
    _, out = _emit(tmp_path, "a")
    metrics = pathlib.Path(out) / "metrics.json"
    metrics.write_text(metrics.read_text() + "\n")
    assert flightrec.main([out]) == 1
    text = capsys.readouterr().out
    assert "MISMATCH" in text


def test_is_bundle_rejects_plain_dirs(tmp_path):
    assert not flightrec.is_bundle(str(tmp_path))
    assert not flightrec.is_bundle(str(tmp_path / "missing"))


def test_armed_recorder_is_invisible_to_figures():
    """The acceptance bar: arming the black box (ring-capped tail +
    metrics, no engine hook) must not change a single figure number."""
    from repro.bench import figures

    dark = figures.fig5_throughput(reps=1)
    with obs.observing(trace=True, metrics=True, max_trace_events=512,
                       flightrec=True):
        armed = figures.fig5_throughput(reps=1)
    assert armed == dark


def test_span_tracer_dropped_gauge():
    """The span tracer's ring-cap drops fold into the snapshot too."""
    with obs.observing(trace=True, metrics=True, max_trace_events=2) as ctx:
        for i in range(5):
            ctx.tracer.instant(f"e{i}", i * 10)
    assert ctx.tracer.dropped == 3
    assert ctx.snapshot()["obs.spans.dropped"] == 3.0


def test_tracer_recent_zero_is_empty():
    with obs.observing(trace=True, metrics=False) as ctx:
        for i in range(5):
            ctx.tracer.instant(f"e{i}", i * 10)
    assert ctx.tracer.recent(0) == []
    assert [s.name for s in ctx.tracer.recent(2)] == ["e3", "e4"]


def test_zero_trace_tail_dumps_no_completed_spans(tmp_path):
    with pytest.raises(ValueError):
        flightrec.FlightRecorder(trace_tail=-1)
    with obs.observing(trace=True, metrics=True, flightrec=True) as ctx:
        for i in range(5):
            ctx.tracer.instant(f"e{i}", i * 10)
        ctx.flightrec.trace_tail = 0
        ctx.flightrec.dump(str(tmp_path / "b"), {})
    trace = flightrec.load_bundle(str(tmp_path / "b"))["trace"]
    assert trace.spans == []
    assert trace.meta == {"dropped": 0, "recorded": 5, "tail": 0}


def test_dump_after_scope_reads_the_armed_context(tmp_path):
    """A bundle written after ``observing`` has exited still carries the
    scope's spans and final metrics, not the ambient (dark) context's."""
    with obs.observing(trace=True, metrics=True, flightrec=True) as ctx:
        ctx.tracer.instant("late.op", 10)
        ctx.counter("late.count").inc()
    ctx.flightrec.dump(str(tmp_path / "b"), {})
    bundle = flightrec.load_bundle(str(tmp_path / "b"))
    assert [s.name for s in bundle["trace"].spans] == ["late.op"]
    assert bundle["metrics"]["final"] == {"late.count": 1}
