"""Observability overhead: tracing a run must stay cheap.

The differential tests (``tests/obs/test_nonperturbation.py``) prove
observability never changes *what* the simulation computes; this
benchmark bounds what it costs in host wall clock. A Fig. 5-scale
attach/touch/detach workload runs dark, then under full span tracing
+ metrics + time-series windows (the slowdown must stay under 25%), and
then with only the flight-recorder black box armed — a ring-capped span
tail + metrics, no engine hook — which must stay under 5%, or the
"always-on black box" premise of ``repro.obs.flightrec`` is broken.

Emits ``benchmarks/results/BENCH_obs_overhead.json`` and checks it
against ``benchmarks/baselines/BENCH_obs_overhead.json``. The rig is
built in ``fast`` fidelity, the default mode.
"""

import json
import pathlib

from benchmarks.conftest import check_baseline, fig5_scale_cycle_seconds
from repro.hw.costs import GB, PAGE_4K


def test_obs_overhead_under_25pct_at_fig5_scale():
    npages = GB // PAGE_4K
    cycles, touches = 3, 8
    # one unmeasured warmup, then best-of-3 per mode to shave scheduler
    # noise — the flightrec gate is tight (5%), so noise matters
    fig5_scale_cycle_seconds("fast", "dark", cycles, touches, npages)
    dark = min(
        fig5_scale_cycle_seconds("fast", "dark", cycles, touches, npages)
        for _ in range(3)
    )
    observed = min(
        fig5_scale_cycle_seconds("fast", "full", cycles, touches, npages)
        for _ in range(3)
    )
    flightrec = min(
        fig5_scale_cycle_seconds("fast", "flightrec", cycles, touches, npages)
        for _ in range(3)
    )
    overhead_pct = (observed / dark - 1.0) * 100.0
    flightrec_pct = (flightrec / dark - 1.0) * 100.0
    results = pathlib.Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)
    record = {
        "benchmark": "fig5_scale_obs_overhead",
        "attach_bytes": npages * PAGE_4K,
        "npages": npages,
        "cycles": cycles,
        "touches_per_cycle": touches,
        "dark_seconds": round(dark, 6),
        "observed_seconds": round(observed, 6),
        "flightrec_seconds": round(flightrec, 6),
        # The baseline check compares the ratios, not the absolute
        # seconds: wall-clock varies run-to-run and machine-to-machine,
        # but the observed/dark ratio is measured within one run and is
        # stable.
        "overhead_ratio": round(observed / dark, 4),
        "overhead_pct": round(overhead_pct, 2),
        "max_overhead_pct": 25.0,
        "flightrec_overhead_ratio": round(flightrec / dark, 4),
        "flightrec_overhead_pct": round(flightrec_pct, 2),
        "max_flightrec_overhead_pct": 5.0,
    }
    (results / "BENCH_obs_overhead.json").write_text(
        json.dumps(record, indent=2) + "\n")
    assert overhead_pct < 25.0, (
        f"tracing+metrics cost {overhead_pct:.1f}% wall clock "
        f"(dark={dark:.3f}s, observed={observed:.3f}s)"
    )
    assert flightrec_pct < 5.0, (
        f"armed flight recorder cost {flightrec_pct:.1f}% wall clock "
        f"(dark={dark:.3f}s, flightrec={flightrec:.3f}s) — the black box "
        "must stay near-free while idle"
    )
    check_baseline("BENCH_obs_overhead", record)
