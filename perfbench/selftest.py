"""The oracle's own tests: a three-flow example worked by hand.

Run with ``python3 perfbench/selftest.py`` (exit 0 when every check
holds).  The benchmark also calls :func:`run` before each run, so a
broken oracle fails the benchmark instead of vouching for wrong bounds.
The file is not named ``test_*.py`` on purpose: the repository's pytest
command must keep collecting exactly its own tests.

The example: a 10 Mbit/s link (``C = 1e7`` bit/s), ``t_techno = 16 us``.

====  ========  ======  ========  ========  =====  ==========
flow  kind      size b  period T  deadline  class  rate b/T
====  ========  ======  ========  ========  =====  ==========
A     sporadic  1000    20 ms     3 ms      0      50 000
B     periodic  2000    20 ms     20 ms     1      100 000
C     sporadic  4000    160 ms    none      3      25 000
====  ========  ======  ========  ========  =====  ==========

FCFS, every class: ``(1000 + 2000 + 4000) / 1e7 + 16e-6 = 716 us``.

Strict priority:

* class 0: ``(1000 + max(2000, 4000)) / 1e7 + 16e-6 = 516 us``;
* class 1: ``(1000 + 2000 + 4000) / (1e7 - 50 000) + 16e-6
  = 7000 / 9 950 000 + 16e-6 = 719.5175879... us``;
* class 3: ``7000 / (1e7 - 150 000) + 16e-6 = 7000 / 9 850 000 + 16e-6
  = 726.6598984... us``.

On a 150 kbit/s link without ``t_techno`` the three rates (175 kbit/s)
overload FCFS and class 3 (``inf``), while classes 0 and 1 (150 kbit/s)
still fit exactly at the capacity: class 0 gets ``5000 / 150 000`` and
class 1 ``7000 / (150 000 - 50 000)``, both past their deadlines.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402  (the sibling module, not an installed one)

CAPACITY = 1e7
T_TECHNO = 16e-6

FLOWS = (
    {"name": "A", "kind": "sporadic", "size": 1000.0, "period": 0.020,
     "deadline": 0.003},
    {"name": "B", "kind": "periodic", "size": 2000.0, "period": 0.020,
     "deadline": 0.020},
    {"name": "C", "kind": "sporadic", "size": 4000.0, "period": 0.160,
     "deadline": None},
)


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-12)


def run() -> list[str]:
    """Every hand-worked check; returns the failures (empty when sound)."""
    problems = []

    def expect(label: str, ok: bool) -> None:
        if not ok:
            problems.append(f"oracle self-test: {label}")

    expect("classes", [oracle.priority_class(f) for f in FLOWS] == [0, 1, 3])
    fcfs = oracle.fcfs_bounds(FLOWS, CAPACITY, T_TECHNO)
    expect("fcfs classes", sorted(fcfs) == [0, 1, 3])
    expect("fcfs value", all(_close(v, 716e-6) for v in fcfs.values()))
    prio = oracle.priority_bounds(FLOWS, CAPACITY, T_TECHNO)
    expect("priority class 0", _close(prio[0], 516e-6))
    expect("priority class 1", _close(prio[1], 7000 / 9_950_000 + 16e-6))
    expect("priority class 1 digits", _close(prio[1], 719.5175879396985e-6))
    expect("priority class 3", _close(prio[3], 7000 / 9_850_000 + 16e-6))
    expect("priority class 3 digits", _close(prio[3], 726.6598984771574e-6))
    # The urgent class meets 3 ms; nothing violates on 10 Mbit/s.
    expect("no violation", oracle.violating_classes(
        FLOWS, "strict-priority", CAPACITY, T_TECHNO) == set())
    # A 150 kbit/s link: classes 0+1 offer exactly 150 kbit/s (finite),
    # all three offer 175 kbit/s (FCFS and class 3 overloaded).
    slow = 150_000.0
    prio_slow = oracle.priority_bounds(FLOWS, slow, 0.0)
    expect("overload class 0", _close(prio_slow[0], 5000 / slow))
    expect("overload class 1", _close(prio_slow[1], 7000 / (slow - 50_000)))
    expect("overload class 3", math.isinf(prio_slow[3]))
    expect("overload fcfs", all(math.isinf(v) for v in
                                oracle.fcfs_bounds(FLOWS, slow, 0).values()))
    expect("overload violations", oracle.violating_classes(
        FLOWS, "strict-priority", slow, 0.0) == {0, 1, 3})
    # The property checks flag what they must and pass what they must.
    expect("finite iff stable",
           not oracle.check_finite_iff_stable("r", math.inf, False)
           and bool(oracle.check_finite_iff_stable("r", 1.0, False)))
    expect("dominates", not oracle.check_dominates("d", 2.0, 2.0)
           and bool(oracle.check_dominates("d", 1.0, 2.0)))
    return problems


if __name__ == "__main__":
    failures = run()
    for failure in failures:
        print(failure, file=sys.stderr)
    print("oracle self-test:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)
