"""One repetition of one workload, in this process.

    python benchmarks/e2e/worker.py --workload W --seed S [--trace]

``run.py`` starts this in a fresh process per repetition; run it by hand
to time or trace a single repetition. It imports ``repro`` (timed as
set-up), runs the workload's cells, compares each cell's virtual-time
outputs with the committed golden ``expected/<W>.seed<S>.json`` when one
exists, and prints one JSON record as its last line. Its times are raw
host seconds, with ``ref_s``, the mean time of the host-speed kernel
sampled meanwhile (``hostspeed.py``). It exits 1 when a cell raised,
failed its own check, or moved from its golden.

``--save-expected`` writes the golden for this seed from this run
instead of checking it; use it only when a change is meant to move the
virtual-time outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Optional

import cells
import hostspeed
import layers

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
#: The checkout's own sources, ahead of any installed ``repro``.
SRC = HERE.parents[1] / "src"


def _plain(value):
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    raise TypeError(f"not a JSON value: {value!r}")


def canonical(outputs: dict) -> dict:
    """``outputs`` as plain JSON values (tuples become lists)."""
    return json.loads(json.dumps(outputs, default=_plain))


def outputs_sha256(outputs: dict) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def first_difference(expected, actual, path: str = "") -> Optional[str]:
    """Where ``actual`` first departs from ``expected``, or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                return f"{path}/{key}: missing"
            if key not in expected:
                return f"{path}/{key}: unexpected"
            diff = first_difference(expected[key], actual[key], f"{path}/{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} -> {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = first_difference(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if expected != actual or type(expected) is not type(actual):
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def check_golden(outputs: Dict[str, dict], golden: Dict[str, dict]) -> Dict[str, str]:
    """Cell -> why it does not match the golden, for every cell that
    ran and differs (cells that raised are already failures)."""
    failures = {}
    for name in sorted(set(golden) | set(outputs)):
        if name not in golden:
            failures[name] = "golden mismatch: cell has no golden"
        elif name in outputs:
            diff = first_difference(golden[name], outputs[name])
            if diff:
                failures[name] = f"golden mismatch at {name}{diff}"
    return failures


def trace_metrics(spans, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Self times are seconds. The traced program time is the traced cell
    wall minus the tracer's own bookkeeping; ``trace.coverage`` is the
    share of it that some layer's self time accounts for.
    """
    program_s = wall_s - spans.bookkeeping_s
    attributed = sum(spans.self_s.values())
    metrics = {f"{layer}.self_s": spans.self_s[layer] for layer in layers.LAYERS}
    metrics.update(layers.all_counts(spans))
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = program_s - attributed
    metrics["trace.coverage"] = attributed / program_s
    return metrics


def run(workload: str, seed: int, trace: bool, save_expected: bool = False) -> dict:
    """Run every cell of ``workload`` once; returns the record."""
    outputs: Dict[str, dict] = {}
    failures: Dict[str, str] = {}
    with hostspeed.Sampler() as speed:
        t0 = time.perf_counter()
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import repro  # noqa: F401  (timed: import is part of set-up)

        cell_list = cells.WORKLOADS[workload](seed)
        import_s = time.perf_counter() - t0

        with layers.instrument(trace) as probe:
            t_cells = time.perf_counter()
            for name, thunk in cell_list:
                try:
                    outputs[name] = canonical(thunk())
                except Exception as err:  # a failing cell is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    failures[name] = f"{type(err).__name__}: {err}"
            cells_s = time.perf_counter() - t_cells
    wall_s = cells_s - probe.setup_s

    golden_file = EXPECTED_DIR / f"{workload}.seed{seed}.json"
    golden = None
    if save_expected:
        if not failures:
            golden_file.parent.mkdir(parents=True, exist_ok=True)
            golden_file.write_text(json.dumps(
                {"workload": workload, "seed": seed, "outputs": outputs},
                indent=1, sort_keys=True) + "\n")
    elif golden_file.is_file():
        golden = json.loads(golden_file.read_text())["outputs"]
        for name, why in check_golden(outputs, golden).items():
            failures.setdefault(name, why)

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "import_s": import_s,
        "setup_s": import_s + probe.setup_s,
        "wall_s": wall_s,
        "ref_s": speed.mean_s,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                        - hostspeed.BUFFER_BYTES / 2**20),
        "ops": len(cell_list),
        "ops_failed": len(failures),
        "failures": failures,
        "golden": golden is not None,
        "outputs_sha256": outputs_sha256(outputs),
    }
    if trace:
        record["self_s"] = dict(probe.spans.self_s)
        record["layer_metrics"] = trace_metrics(probe.spans, wall_s)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true",
                        help="attribute host time to layers (slower)")
    parser.add_argument("--save-expected", action="store_true",
                        help="write this seed's golden instead of checking it")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.trace, args.save_expected)
    print(json.dumps(record, sort_keys=True))
    return 1 if record["ops_failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
