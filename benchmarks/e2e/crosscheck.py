"""Cross-check the traced layer ranking against cProfile.

    python3 benchmarks/e2e/crosscheck.py --workload W [--seed S]

Runs one repetition of ``W`` in this process under cProfile (paused
inside rig builders, like the tracer) and sums each function's self time
into the layer of the file that defines it, by the same rule the tracer
uses (``layers.layer_of_file``). Time in C functions and third-party
code goes to the layers of their callers, in proportion to the time each
caller spent in them. Then it runs one traced repetition in a child
process and prints both rankings side by side.

cProfile charges a fixed cost to every Python call, which inflates
layers made of many small calls, so expect the shares to differ; the
ranking of the large layers should agree.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import subprocess
import sys
from collections import defaultdict
from typing import Dict

import cells
import layers
from run import WORKER, child_env
from worker import SRC

OTHER = "(no layer)"


def profile_layers(workload: str, seed: int) -> Dict[str, float]:
    """cProfile self seconds per layer for one repetition."""
    sys.path.insert(0, str(SRC))
    cell_list = cells.WORKLOADS[workload](seed)
    profiler = cProfile.Profile()
    with layers.instrument(False, pause=profiler.disable, resume=profiler.enable):
        profiler.enable()
        for _name, thunk in cell_list:
            thunk()
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func, depth: int = 0) -> Dict[str, float]:
        """Layer shares of ``func``: its own layer for simulator code,
        else its callers' layers weighted by their time in it."""
        if func in owners:
            return owners[func]
        path = func[0]
        if "/repro/" in path.replace("\\", "/"):
            share = {layers.layer_of_file(path) or OTHER: 1.0}
        else:
            callers = stats[func][4]
            total = sum(entry[3] for entry in callers.values())
            share = defaultdict(float)
            if depth > 8 or not total:
                share[OTHER] = 1.0
            else:
                owners[func] = {OTHER: 1.0}  # breaks recursion cycles
                for caller, entry in callers.items():
                    for layer, part in owner(caller, depth + 1).items():
                        share[layer] += part * entry[3] / total
        owners[func] = dict(share)
        return owners[func]

    totals: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, part in owner(func).items():
            totals[layer] += tottime * part
    return dict(totals)


def traced_layers(workload: str, seed: int) -> Dict[str, float]:
    """Tracer self seconds per layer from one traced child repetition."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--seed", str(seed), "--trace"],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["self_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    prof = profile_layers(args.workload, args.seed)
    traced = traced_layers(args.workload, args.seed)
    prof_total, traced_total = sum(prof.values()), sum(traced.values())
    rank = {layer: i + 1 for i, layer in
            enumerate(sorted(traced, key=traced.get, reverse=True))}
    print(f"{args.workload} seed={args.seed}")
    print(f"{'layer':20s} {'cProfile':>9s} {'share':>6s}   {'traced':>8s} "
          f"{'share':>6s} {'rank':>4s}")
    for layer in sorted(prof, key=prof.get, reverse=True):
        t = traced.get(layer)
        tail = (f"{t:8.3f} {t / traced_total:6.1%} {rank[layer]:4d}"
                if t is not None else f"{'-':>8s} {'-':>6s} {'-':>4s}")
        print(f"{layer:20s} {prof[layer]:9.3f} {prof[layer] / prof_total:6.1%}   {tail}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
