"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root; no install, no ``PYTHONPATH`` needed)::

    python3 perfbench/run.py --workload engine-panel --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs round 0 untraced, then again under the span tracer of
``spans.py``, and prints the per-layer split of the traced round plus the
tracing overhead (traced minus untraced wall time); it never reports an
end-to-end metric.  The spans are written to
``.bench_work/traces/<workload>-seed<n>.json``.

Scratch output (result stores, journals, report trees) goes to a fresh
directory under ``.bench_work/`` in the checkout, which is removed on
exit; ``REPRO_STORE_DIR`` and ``TMPDIR`` point into it.  Any correctness
problem is printed to stderr and makes the exit code 1; ``failed``
counts the attempted operations with at least one problem.  Without the
program's sources next to this directory the command exits 2 before
measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: How many times set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import repro; "
                 "print(time.perf_counter() - t)")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Median wall time of ``import repro`` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                               str(SRC)], capture_output=True, text=True,
                              check=True, timeout=120)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def _setup(workload) -> float:
    """Median seconds of the workload's set-up; the last one stays up."""
    samples = []
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - started)
        if attempt < SETUP_REPEATS - 1:
            workload.teardown()
    return statistics.median(samples)


def _timed(workload, seconds: float):
    """An untimed warm-up round, then whole rounds measured for ``seconds``.

    The warm-up round finishes the program's lazy imports and fills its
    in-process caches; it is checked like the others but not timed, so
    every measured round does the same work however many of them fit.
    At least one measured round runs; another starts only while it
    should end within ``seconds`` (a round is expected to take as long
    as the one before it).
    """
    from workloads import summarize

    warm_up = workload.round(0)
    started = time.perf_counter()
    rounds, last = [], 0.0
    while not rounds or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        rounds.append(workload.round(len(rounds) + 1))
        last = time.perf_counter() - begun
    ops_per_s, latency_ms = summarize(rounds)
    return [warm_up] + rounds, {"ops_per_s": (ops_per_s, "1/s"),
                                "latency_p50_ms": (latency_ms, "ms")}


def _traced(workload, seconds: float, trace_path: Path):
    """Round 0 untraced then traced, repeated while the next pair fits.

    A first untraced round fills the program's in-process caches, so the
    untraced side of each pair is not charged for warming them.  At least
    one pair runs; another starts only while it should end within
    ``seconds``, as in :func:`_timed`.
    """
    from spans import PER_LAYER_METRICS, Tracer, instrument, layer_metrics
    from workloads import kind_percentiles

    started = time.perf_counter()
    plain_rounds, traced_rounds = [workload.round(0)], []
    pairs, first = [], None
    while not pairs or (time.perf_counter() - started
                        + sum(pairs[-1]) <= seconds):
        begun = time.perf_counter()
        plain_rounds.append(workload.round(0))
        untraced = time.perf_counter() - begun
        tracer = Tracer()
        workload.tracer = tracer
        with instrument(tracer):
            with tracer.span("bench.round") as root:
                traced_rounds.append(workload.round(0))
        workload.tracer = None
        traced = root[4] - root[3]
        pairs.append((untraced, traced))
        if first is None:
            first = (tracer, workload.store_bytes(), untraced)
    tracer, store_bytes, untraced = first
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    values = layer_metrics(tracer, store_bytes=store_bytes,
                           untraced_wall=untraced,
                           extra=kind_percentiles(plain_rounds))
    values["trace.overhead_s"] = statistics.median(
        traced - plain for plain, traced in pairs)
    problems = []
    if abs(values["trace.self_sum_s"] - values["trace.wall_s"]) > 1e-6:
        problems.append(f"trace: layer self times sum to "
                        f"{values['trace.self_sum_s']!r} s, the traced "
                        f"round took {values['trace.wall_s']!r} s")
    units = dict(PER_LAYER_METRICS)
    return (plain_rounds + traced_rounds,
            {name: (values[name], units[name])
             for name, _ in PER_LAYER_METRICS}, problems)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import selftest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    (work / "tmp").mkdir()
    os.environ["REPRO_STORE_DIR"] = str(work / "default-store")
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    workload = None
    try:
        problems = selftest.run()
        import_s = _import_seconds()
        import repro  # noqa: F401  (the program under test)

        workload = WORKLOADS[args.workload](args.seed, work)
        setup_s = import_s + _setup(workload)
        if args.trace:
            trace_path = (work_root / "traces"
                          / f"{args.workload}-seed{args.seed}.json")
            rounds, metrics, trace_problems = _traced(workload,
                                                      args.seconds,
                                                      trace_path)
            problems += trace_problems
        else:
            rounds, metrics = _timed(workload, args.seconds)
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {"setup_s": (setup_s, "s"),
                       "peak_rss_mb": (rss_mb, "MB"), **metrics}
        workload.verify()
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
    # Run-level problems make the run incorrect; ``failed`` counts the
    # attempted operations that have at least one problem of their own.
    problems += workload.problems
    for found in workload.faults.values():
        problems += found
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": len(workload.faults),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
