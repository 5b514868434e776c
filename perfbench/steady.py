"""Steadiness runner: repeat every workload and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--seconds 30] [--first-seed 1]

Every workload of ``BENCHMARK.json`` runs ``--runs`` times; run ``i`` of
each workload uses seed ``first_seed + i``.  The order of the workloads
alternates between runs (forward, then reversed), so slow drift of the
machine does not always land on the same workload.  For each
(workload, metric) it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, i.e. the
distance between the quartiles as a share of the median, next to the
bound of ``BENCHMARK.json``; ``ok`` means the spread is below a third of
the bound.  It also prints the share of failed operations per workload.
Every run is a child process that is waited for before the next starts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a child process; its result line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for index in range(args.runs):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for name in order:
            result = run_once(name, args.first_seed + index, args.seconds)
            results[name].append(result)
            print(f"run {index} {name}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
    print(f"\n{'workload':<14} {'metric':<28} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  ok")
    for name in workloads:
        runs = results[name]
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            bound = bounds.get(metric)
            ok = "-" if bound is None else \
                ("yes" if share < bound / 3 else "NO")
            print(f"{name:<14} {metric:<28} {median:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {share:>7.3f} "
                  f"{'-' if bound is None else bound:>6}  {ok}")
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name:<14} failed share per run: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
