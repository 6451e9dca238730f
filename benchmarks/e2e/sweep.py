"""Make result sets: run ``run.py`` over workloads x seeds, saving each
run's standard output as ``<set>/<workload>.seed<k>[.trace].out``.

    python3 benchmarks/e2e/sweep.py SET=CHECKOUT [SET=CHECKOUT ...] \\
        [--seeds 10] [--workload W ...] [--trace]

``SET`` is the output directory and ``CHECKOUT`` the root of the tree
whose ``benchmarks/e2e/run.py`` runs. With two sets (a parent and a
change), each seed runs both, alternating which goes first. Feed the
directories to ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", metavar="SET=CHECKOUT")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    pairs = []
    for spec in args.sets:
        out, _, root = spec.partition("=")
        if not root:
            parser.error(f"expected SET=CHECKOUT, got {spec!r}")
        pairs.append((Path(out), Path(root).resolve()))
        Path(out).mkdir(parents=True, exist_ok=True)
    seconds = json.loads(
        (HERE.parents[1] / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for k in range(args.seeds):
        for workload in args.workload or WORKLOADS:
            shift = k % len(pairs)
            for out, root in pairs[shift:] + pairs[:shift]:
                name = f"{workload}.seed{k}{'.trace' if args.trace else ''}.out"
                proc = subprocess.run(
                    [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
                     "--seed", str(k), "--seconds", str(seconds),
                     "--trace", "1" if args.trace else "0"],
                    cwd=root, capture_output=True, text=True,
                )
                (out / name).write_text(proc.stdout)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{out}/{name}: exit {proc.returncode} {last[0][:160]}",
                      flush=True)
                if proc.returncode:
                    sys.stderr.write(proc.stderr[-2000:])
                    status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
