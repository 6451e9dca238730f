"""Host-time benchmark of the simulator: one workload, one seed.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Runs ``worker.py`` in a fresh child process per repetition, back to back
until ``T`` seconds are used (at least three repetitions), and reports
medians. Each child starts with ``REPRO_*`` stripped from its
environment, so the simulator's defaults apply (fast fidelity, every
fast path on), with one BLAS/OpenMP thread and ``PYTHONHASHSEED=0``.

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``). With ``--trace 1`` every third
repetition runs traced and the metrics are the per-layer ones, plus the
tracing overhead against the untraced repetitions of the same run.

Every time reported is in seconds at the reference host speed: a
repetition's raw host seconds times ``hostspeed.NOMINAL_S`` over the
mean time of the host-speed kernel sampled during that repetition,
raised for cell time to the workload's ``hostspeed.SENSITIVITY``
(``hostspeed.py`` says why). The raw medians are printed beside them.

Every repetition's virtual-time outputs must hash the same, traced or
not, and match the committed golden when there is one; otherwise the
result says ``"correct": false``. The last line of standard output is
the result object; the line before it is the run's detail record
(outputs digest, every sample) that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

import cells
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
WORKLOADS = tuple(cells.WORKLOADS)

MIN_UNTRACED = 3
#: Repetition pattern with ``--trace 1``: one traced per two untraced.
TRACE_PATTERN = (False, True, False)
#: Stop starting repetitions this long after the start, whatever
#: ``--seconds`` says, so a run always ends inside its time limit.
HARD_LIMIT_S = 150.0


class RepFailed(RuntimeError):
    """A child crashed, hung, or printed no record."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_rep(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise RepFailed(f"repetition timed out after {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RepFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    if proc.returncode:
        sys.stderr.write(proc.stderr[-3000:])
    return json.loads(lines[-1])


def at_reference_speed(rep: dict, seconds: float, power: float = 1.0) -> float:
    """``seconds`` measured in ``rep``, at the reference host speed;
    ``power`` is the workload's ``hostspeed.SENSITIVITY`` for cell time."""
    return seconds * (hostspeed.NOMINAL_S / rep["ref_s"]) ** power


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Repetitions until ``seconds`` are used; returns (untraced, traced)."""
    start = time.monotonic()
    pattern = TRACE_PATTERN if trace else (False,)
    reps: Dict[bool, List[dict]] = {False: [], True: []}
    took: Dict[bool, List[float]] = {False: [], True: []}
    i = 0
    while True:
        kind = pattern[i % len(pattern)]
        i += 1
        t0 = time.monotonic()
        remaining = HARD_LIMIT_S + 20.0 - (t0 - start)
        reps[kind].append(run_rep(workload, seed, kind, timeout=remaining))
        took[kind].append(time.monotonic() - t0)
        enough = len(reps[False]) >= MIN_UNTRACED and (not trace or reps[True])
        if not enough:
            continue
        nxt = pattern[i % len(pattern)]
        guess = median(took[nxt] or took[kind])
        now = time.monotonic() - start
        if now + guess > seconds or now > HARD_LIMIT_S:
            return reps[False], reps[True]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time to spend on repetitions (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced repetitions")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    # Compile once up front so no repetition pays for .pyc files.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro",
                    str(HERE)], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL)
    try:
        untraced, traced = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    except RepFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    everything = untraced + traced
    digest = untraced[0]["outputs_sha256"]
    attempted = sum(r["ops"] for r in everything)
    failed = sum(r["ops"] if r["outputs_sha256"] != digest else r["ops_failed"]
                 for r in everything)
    power = hostspeed.SENSITIVITY.get(args.workload, 1.0)
    samples = {
        "wall_s": [at_reference_speed(r, r["wall_s"], power) for r in untraced],
        "setup_s": [at_reference_speed(r, r["setup_s"]) for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "raw_wall_s": [r["wall_s"] for r in untraced],
        "raw_setup_s": [r["setup_s"] for r in untraced],
        "import_s": [r["import_s"] for r in untraced],
        "ref_s": [r["ref_s"] for r in untraced],
    }
    walls, raw_walls = samples["wall_s"], samples["raw_wall_s"]
    if args.trace:
        metrics = layer_metrics(untraced, traced, power)
    else:
        metrics = {key: median(samples[key])
                   for key in ("wall_s", "setup_s", "peak_rss_mb")}

    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced repetitions, {attempted} cells, {failed} failed")
    print(f"  wall_s median {median(walls):.4f} s, spread {spread(walls):.1%} "
          f"(IQR/median); raw {median(raw_walls):.4f} s, spread "
          f"{spread(raw_walls):.1%}; host-speed kernel "
          f"{median(samples['ref_s']) * 1e6:.0f} us "
          f"(reference {hostspeed.NOMINAL_S * 1e6:.0f} us)")
    print(f"  outputs {digest[:16]} "
          f"({'checked against golden' if untraced[0]['golden'] else 'no golden'})")
    for r in everything:
        for cell, why in sorted(r["failures"].items()):
            print(f"  FAILED {cell}: {why}")
    if args.trace:
        print(shares_line(metrics))
        print(overhead_line(metrics))
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "outputs_sha256": sorted({r["outputs_sha256"] for r in everything}),
        "golden": untraced[0]["golden"],
        "samples": samples,
    }
    print(json.dumps({"run": detail}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 1 if failed else 0


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith(("coverage", "_ratio", "noise_floor", "_over_wall")):
        return "ratio"
    return "count"


def shares_line(metrics: Dict[str, float]) -> str:
    """Each busy layer's self time and its share of all self time,
    largest first."""
    self_s = {name[:-len(".self_s")]: value for name, value in metrics.items()
              if name.endswith(".self_s") and value > 0}
    total = sum(self_s.values())
    return "  self time: " + ", ".join(
        f"{layer} {value:.3f} s ({value / total:.1%})"
        for layer, value in sorted(self_s.items(), key=lambda kv: -kv[1]))


def layer_metrics(untraced: List[dict], traced: List[dict],
                  power: float = 1.0) -> Dict[str, float]:
    """Medians of the traced repetitions' per-layer metrics, plus the
    tracing overhead against this run's untraced repetitions; seconds at
    the reference host speed."""
    def value(rep: dict, name: str) -> float:
        v = rep["layer_metrics"][name]
        return at_reference_speed(rep, v, power) if unit_of(name) == "s" else v

    metrics = {name: median([value(r, name) for r in traced])
               for name in traced[0]["layer_metrics"]}
    walls = [at_reference_speed(r, r["wall_s"], power) for r in untraced]
    wall = median(walls)
    metrics["sim.host_us_per_event"] = wall / max(metrics["sim.events"], 1) * 1e6
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / wall
    metrics["trace.noise_floor"] = spread(walls)
    metrics["trace.self_over_wall"] = median(
        [at_reference_speed(r, sum(r["self_s"].values()), power) for r in traced]) / wall
    return metrics


def overhead_line(metrics: Dict[str, float]) -> str:
    """The tracing overhead, or ``unmeasurable`` when it is not above the
    untraced repetitions' own spread."""
    ratio, floor = metrics["trace.overhead_ratio"], metrics["trace.noise_floor"]
    if ratio - 1.0 <= floor:
        return (f"  trace overhead: unmeasurable (ratio {ratio:.3f} within the "
                f"untraced noise floor {floor:.1%})")
    return (f"  trace overhead: {ratio - 1.0:+.1%} of untraced wall "
            f"(noise floor {floor:.1%})")


if __name__ == "__main__":
    raise SystemExit(main())
