"""Benchmark harness support.

``test_experiments.py`` runs each paper experiment once, checks its
claims, and writes its report to ``benchmarks/results/<name>.txt`` through
the ``report_file`` fixture — the inputs to EXPERIMENTS.md.

The host-time benches (``test_simulator_speed.py``,
``test_obs_overhead.py``) write ``results/BENCH_*.json`` and then check
their own keys against ``baselines/BENCH_*.json`` with
:func:`check_baseline`; they share the Fig. 5-scale rig
:func:`fig5_scale_cycle_seconds`.
"""

import json
import pathlib
import sys
import time
from contextlib import nullcontext

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINES_DIR = pathlib.Path(__file__).parent / "baselines"

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.bench.configs import build_cokernel_system  # noqa: E402
from repro.hw.costs import PAGE_4K  # noqa: E402
from repro.sim import fidelity  # noqa: E402
from repro.xemem import XpmemApi  # noqa: E402

#: Allowed relative change of a gated key in its worse direction.
TOLERANCE = 0.15
#: The host-time keys gated against their baseline, by better direction.
#: Every other baseline key names the run's shape or bound: it must be equal.
GATED = {
    "slowpath_seconds": "lower",
    "fastpath_seconds": "lower",
    "columnar_detailed_seconds": "lower",
    "columnar_fast_seconds": "lower",
    "speedup": "higher",
    "columnar_speedup": "higher",
    "overhead_ratio": "lower",
    "flightrec_overhead_ratio": "lower",
}


def baseline_failures(baseline: dict, results: dict) -> list:
    """One line per baseline key that ``results`` lacks, does not equal,
    or, for a :data:`GATED` key, misses by more than :data:`TOLERANCE` in
    its worse direction."""
    failures = []
    for key, want in sorted(baseline.items()):
        if key not in results:
            failures.append(f"{key}: missing from the results")
            continue
        got = results[key]
        better = GATED.get(key)
        if better is None:
            bad = got != want
        elif better == "lower":
            bad = got > want * (1.0 + TOLERANCE)
        else:
            bad = got < want * (1.0 - TOLERANCE)
        if bad:
            rule = (f"{better} is better, {TOLERANCE:.0%} allowed" if better
                    else "must be equal")
            failures.append(f"{key}: {got!r} against baseline {want!r} ({rule})")
    return failures


def check_baseline(name: str, results: dict, owns=lambda key: True) -> None:
    """Fail unless ``results`` holds up against ``baselines/<name>.json``
    on every baseline key that ``owns`` selects."""
    baseline = json.loads((BASELINES_DIR / f"{name}.json").read_text())
    failures = baseline_failures(
        {key: value for key, value in baseline.items() if owns(key)}, results)
    assert not failures, f"{name} regressed:\n" + "\n".join(failures)


#: ``obs.observing`` arguments per observability mode (None: dark).
OBS_MODES = {
    "dark": None,
    "full": {"trace": True, "metrics": True, "timeseries": True},
    "flightrec": {"trace": True, "metrics": True, "max_trace_events": 256,
                  "flightrec": True},
}


def fig5_scale_cycle_seconds(fidelity_mode: str, obs_mode: str, cycles: int,
                             touches: int, npages: int) -> float:
    """Wall time for ``cycles`` attach/touch/detach rounds over one
    standing export of ``npages`` — the Fig. 5 shape — with the rig built
    in ``fidelity_mode`` and observed in ``obs_mode``: ``"dark"`` (no
    observability), ``"full"`` (tracing + metrics + time-series windows,
    the engine-hook pipeline) or ``"flightrec"`` (the black box: a
    ring-capped span tail + metrics + an armed flight recorder, no engine
    hook)."""
    observing = OBS_MODES[obs_mode]
    with fidelity.configured(fidelity_mode), \
            obs.observing(**observing) if observing else nullcontext():
        rig = build_cokernel_system(num_cokernels=1)
        eng = rig.engine
        kitten = rig.cokernels[0].kernel
        kitten.heap_pages = npages + 16
        kp = kitten.create_process("exp")
        lp = rig.linux.kernel.create_process("att", core_id=2)
        heap = kitten.heap_region(kp)
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)

        def setup():
            segid = yield from api_k.xpmem_make(heap.start, npages * PAGE_4K)
            apid = yield from api_l.xpmem_get(segid)
            return apid

        apid = eng.run_process(setup())
        t0 = time.perf_counter()
        for _ in range(cycles):
            def run():
                att = yield from api_l.xpmem_attach(apid)
                for _ in range(touches):
                    yield from rig.linux.kernel.touch_pages(
                        lp, att.vaddr, npages, write=True
                    )
                yield from api_l.xpmem_detach(att)

            eng.run_process(run())
        return time.perf_counter() - t0


@pytest.fixture
def report_file():
    """Writer: report_file(name, text) persists a result artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        # also echo so `pytest -s` shows it inline
        print(f"\n=== {name} ===\n{text}")

    return write
