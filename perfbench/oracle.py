"""Independent recomputation of the paper's closed forms, plus property checks.

Nothing here imports ``repro.core`` (or any other analysis code of the
program): the bounds are recomputed from a plain list of messages, so a
fault in the program's aggregation or formula code cannot hide itself by
also being the reference.

The two closed forms (capacity ``C`` in bit/s, sizes ``b`` in bits,
rates ``r = b / T``):

* FCFS: ``D = sum(b) / C + t_techno`` for every class, finite only while
  ``sum(r) <= C``;
* strict priority, class ``p`` (0 = most urgent)::

      D_p = (sum_{q <= p} b_q + max_{q > p} b) / (C - sum_{q < p} r_q)
            + t_techno

  finite only while ``sum_{q <= p} r_q <= C``.

Messages are anything with ``kind`` (``"periodic"``/``"sporadic"`` or an
enum whose ``value`` is one of those), ``period``, ``size`` and
``deadline`` attributes, or dicts with those keys (the serve wire format).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

#: The urgent class's deadline ceiling and the 1553B major frame (seconds).
URGENT_DEADLINE = 0.003
MAJOR_FRAME = 0.160

#: Relative tolerance of "equal": the program sums in another order
#: (arithmetic replication, per-class then cross-class), so bounds agree
#: to rounding, not bit for bit.
REL_TOL = 1e-9

CLASSES = (0, 1, 2, 3)
CLASS_NAMES = ("URGENT", "PERIODIC", "SPORADIC", "BACKGROUND")


def _field(message, name):
    if isinstance(message, Mapping):
        return message.get(name)
    return getattr(message, name)


def _kind(message) -> str:
    kind = _field(message, "kind")
    return str(getattr(kind, "value", kind))


def priority_class(message) -> int:
    """The paper's 802.1p class: periodic -> 1; sporadic by deadline."""
    if _kind(message) == "periodic":
        return 1
    deadline = _field(message, "deadline")
    if deadline is None:
        return 3
    if deadline <= URGENT_DEADLINE:
        return 0
    if deadline <= MAJOR_FRAME:
        return 2
    return 3


def class_totals(messages: Iterable) -> dict[int, dict[str, float]]:
    """Per-class burst sum, rate sum, largest burst, count and deadline."""
    totals: dict[int, dict[str, float]] = {}
    for message in messages:
        size = float(_field(message, "size"))
        period = float(_field(message, "period"))
        deadline = _field(message, "deadline")
        cls = priority_class(message)
        entry = totals.setdefault(cls, {"burst": 0.0, "rate": 0.0,
                                        "max_burst": 0.0, "count": 0,
                                        "deadline": None})
        entry["burst"] += size
        entry["rate"] += size / period
        entry["max_burst"] = max(entry["max_burst"], size)
        entry["count"] += 1
        if deadline is not None:
            current = entry["deadline"]
            entry["deadline"] = float(deadline) if current is None \
                else min(current, float(deadline))
    return dict(sorted(totals.items()))


def fcfs_bounds(messages: Iterable, capacity: float,
                technology_delay: float) -> dict[int, float]:
    """``{class: D}``; every present class gets the same FCFS bound."""
    totals = class_totals(messages)
    burst = sum(entry["burst"] for entry in totals.values())
    rate = sum(entry["rate"] for entry in totals.values())
    bound = burst / capacity + technology_delay if rate <= capacity \
        else math.inf
    return {cls: bound for cls in totals}


def priority_bounds(messages: Iterable, capacity: float,
                    technology_delay: float) -> dict[int, float]:
    """``{class: D_p}`` for every present class (``inf`` when overloaded)."""
    totals = class_totals(messages)
    bounds = {}
    for cls in totals:
        burst = sum(e["burst"] for q, e in totals.items() if q <= cls)
        blocking = max((e["max_burst"] for q, e in totals.items()
                        if q > cls), default=0.0)
        higher_rate = sum(e["rate"] for q, e in totals.items() if q < cls)
        rate_up_to = sum(e["rate"] for q, e in totals.items() if q <= cls)
        if rate_up_to > capacity:
            bounds[cls] = math.inf
        else:
            bounds[cls] = ((burst + blocking) / (capacity - higher_rate)
                           + technology_delay)
    return bounds


def policy_bounds(messages: Sequence, policy: str, capacity: float,
                  technology_delay: float) -> dict[int, float]:
    """The closed form of ``policy`` (``"fcfs"`` or ``"strict-priority"``)."""
    if policy == "fcfs":
        return fcfs_bounds(messages, capacity, technology_delay)
    return priority_bounds(messages, capacity, technology_delay)


def violating_classes(messages: Sequence, policy: str, capacity: float,
                      technology_delay: float) -> set[int]:
    """Classes whose bound is infinite or exceeds their binding deadline."""
    totals = class_totals(messages)
    bounds = policy_bounds(messages, policy, capacity, technology_delay)
    return {cls for cls, bound in bounds.items()
            if not math.isfinite(bound)
            or (totals[cls]["deadline"] is not None
                and bound > totals[cls]["deadline"])}


def same(a: float, b: float) -> bool:
    """Equal up to rounding (both infinite counts as equal)."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# Property checks; each returns a list of human-readable problems
# ---------------------------------------------------------------------------

def check_equal(label: str, got: Mapping, want: Mapping) -> list[str]:
    """Every key of ``want`` present in ``got`` with an equal value."""
    problems = []
    if set(got) != set(want):
        problems.append(f"{label}: classes {sorted(got)} != oracle "
                        f"{sorted(want)}")
    for key in sorted(set(got) & set(want)):
        if not same(float(got[key]), float(want[key])):
            problems.append(f"{label}: class {key} bound {got[key]!r} != "
                            f"oracle {want[key]!r}")
    return problems


def check_dominates(label: str, upper: float, lower: float) -> list[str]:
    """``upper >= lower`` up to rounding."""
    if upper >= lower or same(upper, lower):
        return []
    return [f"{label}: {upper!r} is below {lower!r}"]


def check_finite_iff_stable(label: str, bound: float,
                            stable: bool) -> list[str]:
    """A bound is finite exactly when its row says it is stable."""
    if math.isfinite(bound) == bool(stable):
        return []
    return [f"{label}: bound {bound!r} but stable={stable}"]

