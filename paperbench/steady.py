"""Steadiness check: two sets of benchmark runs, spreads against bounds.

Usage (from the repository root)::

    python3 paperbench/steady.py --runs 10 --sets 2
    python3 paperbench/steady.py --workload e3_sbox_eq6 --runs 5 --sets 1

Each run calls ``run.py --trace 0`` with its own seed.  For every
workload and end-to-end metric it prints each set's median and its
spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median --
against the metric's bound from ``BENCHMARK.json``, and how far each
later set's median moved from the first set's.  Every spread, ``setup_s``
included, must stay within the bound and a median may not get worse by
more than the bound; a spread above a third of the bound is marked
``WIDE`` (the benchmark aims below it).  Exits 1 when a check fails.
Set ``s`` run ``i`` uses seed ``SEED_BASE + s * runs + i``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: First seed of the first set; no set repeats another's seeds.
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    """One ``run.py`` invocation; returns its result line and wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much ``later`` is worse than ``first``, as a share of it."""
    change = (later - first) / first
    return change if better == "lower" else -change


def evaluate(spec: Dict, sets: List[Dict[str, List[Dict]]],
             out=None) -> bool:
    """Print spreads and median drift per workload and metric."""
    out = out or sys.stdout
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in sets[0]:
            continue
        print(f"{name}:", file=out)
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for runs in sets:
                values = [r["metrics"][key]["value"] for r in runs[name]]
                medians.append(statistics.median(values))
                share = spread(values)
                flag = ""
                if share > bound:
                    flag, ok = " OVER", False
                elif share > bound / 3:
                    flag = " WIDE"
                cells.append(f"median {medians[-1]:.6g} spread "
                             f"{share:.3f}{flag}")
            drift = [
                worse_by(medians[0], m, metric["better"]) for m in medians[1:]
            ]
            drift_text = ""
            if drift:
                bad = any(d > bound for d in drift)
                ok = ok and not bad
                drift_text = " | worse by " + ", ".join(
                    f"{d:+.3f}" for d in drift
                ) + (" OVER" if bad else "")
            print(f"  {key:<12} bound {bound:.2f}: "
                  + " ; ".join(cells) + drift_text, file=out)
        walls = [r["wall_s"] for runs in sets for r in runs[name]]
        failures = sum(
            not r["correct"] or r["failed"] for runs in sets
            for r in runs[name]
        )
        ok = ok and failures == 0
        print(f"  wall per run: median {statistics.median(walls):.1f}s, "
              f"max {max(walls):.1f}s; incorrect runs: {failures}", file=out)
    return ok


def main(argv=None, runner: Callable = run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (at least 4)")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, List[Dict]]] = []
    for index in range(args.sets):
        runs: Dict[str, List[Dict]] = {}
        for name in names:
            runs[name] = [
                runner(name, SEED_BASE + index * args.runs + i,
                       spec["run_seconds"])
                for i in range(args.runs)
            ]
        sets.append(runs)
    return 0 if evaluate(spec, sets) else 1


if __name__ == "__main__":
    sys.exit(main())
