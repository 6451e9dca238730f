"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py BASE_DIR NEW_DIR

A result set is a directory of ``run.py`` outputs (``sweep.py`` makes
them). For every workload and end-to-end metric of ``BENCHMARK.json``
it prints each side's median and quartiles and a verdict:

* ``improved`` — the new set wins at least 9 in 10 seed-matched pairs
  (ties count for neither) and the medians differ by more than the base
  set's interquartile range;
* ``unresolved`` — either set's spread (IQR / median) exceeds the
  metric's bound, unless every new run beats every base run;
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``unchanged`` — none of the above.

It also flags any seed whose virtual-time outputs digest differs between
the sets, and any run with failed cells. Exit status: 0 clean, 1 a
regression or a flag, 3 unresolved only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
sys.path.insert(0, str(HERE))
from run import spread  # noqa: E402


def load_set(directory: Path) -> Dict[Tuple[str, int], dict]:
    """``(workload, seed) -> {"metrics", "digests", "failed"}`` for the
    untraced runs in ``directory``."""
    runs = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2:
            raise ValueError(f"{path}: not a run.py output")
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["run"]
        if detail["trace"]:
            continue
        runs[(detail["workload"], detail["seed"])] = {
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digests": detail["outputs_sha256"],
            "failed": result["failed"],
        }
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def gain(base: float, new: float, better: str) -> float:
    """How much better ``new`` is than ``base`` (negative: worse)."""
    return base - new if better == "lower" else new - base


def wins(pairs: List[Tuple[float, float]], better: str) -> int:
    return sum(1 for b, n in pairs if gain(b, n, better) > 0)


def verdict(base: List[float], new: List[float], pairs: List[Tuple[float, float]],
            bound: float, better: str) -> str:
    """The choosing-metrics rule for one metric on one workload."""
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    if pairs and wins(pairs, better) >= 0.9 * len(pairs) \
            and gain(base_median, new_median, better) > q3 - q1:
        return "improved"
    every_new_better = min(gain(b, n, better) for b in base for n in new) > 0
    if max(spread(base), spread(new)) > bound and not every_new_better:
        return "unresolved"
    if -gain(base_median, new_median, better) > bound * abs(base_median):
        return "regressed"
    return "unchanged"


def _fmt(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base: Dict, new: Dict, metrics: List[dict]) -> int:
    status = 0
    flags = []
    for side, runs in (("base", base), ("new", new)):
        for (workload, seed), run in sorted(runs.items()):
            if run["failed"] or len(run["digests"]) != 1:
                flags.append(f"{side} {workload} seed {seed}: "
                             f"{run['failed']} failed, digests {run['digests']}")
    for key in sorted(set(base) & set(new)):
        if base[key]["digests"] != new[key]["digests"]:
            flags.append(f"{key[0]} seed {key[1]}: outputs digest moved "
                         f"{base[key]['digests']} -> {new[key]['digests']}")

    print(f"{'workload':20s} {'metric':12s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'change':>8s} {'wins':>6s} verdict")
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            seeds = sorted(s for w, s in base if w == workload)
            b = [base[(workload, s)]["metrics"][name] for s in seeds]
            line = f"{workload:20s} {name:12s} {_fmt(b):>30s}"
            new_seeds = sorted(s for w, s in new if w == workload)
            n = [new[(workload, s)]["metrics"][name] for s in new_seeds]
            pairs = [(base[(workload, s)]["metrics"][name],
                      new[(workload, s)]["metrics"][name])
                     for s in seeds if (workload, s) in new]
            v = verdict(b, n, pairs, bound, metric["better"])
            change = statistics.median(n) / statistics.median(b) - 1
            won = wins(pairs, metric["better"])
            print(f"{line} {_fmt(n):>30s} {change:+8.1%} {won:2d}/{len(pairs):<3d} {v}")
            if v == "regressed":
                status = 1
            elif v == "unresolved" and status == 0:
                status = 3
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    return compare(load_set(args.base), load_set(args.new), metrics)


if __name__ == "__main__":
    sys.exit(main())
