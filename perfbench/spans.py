"""In-memory span tracing of the program's layers, from the benchmark's side.

:func:`instrument` wraps the public entry points of each layer at the
names their callers look them up by (class attributes, and every
``repro`` module's global that holds a wrapped function), records one span
per call (name, start, end, parent id) and undoes every patch on exit.
Nothing inside ``src/`` is edited.

A span's *self time* is its duration minus the durations of its direct
children.  Each timed round runs under one ``bench.round`` root span, so
the self times of all spans of a round sum to the root's wall time.
Threads with no open span of their own (the admission server's worker)
attach their spans to :attr:`Tracer.adopt`, the client request the
benchmark has in flight; the closed-loop client keeps one request in
flight at a time, so those spans nest inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import pkgutil
import sys
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "instrument", "layer_metrics", "PER_LAYER_METRICS"]


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self) -> None:
        #: ``[id, name, parent id, start, end]`` per span, in start order.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Parent span of work done by threads with no open span.
        self.adopt: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else self.adopt
        record = [next(self._ids), name, parent, time.perf_counter(), None]
        self.spans.append(record)
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        record[4] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def dump(self) -> list[dict]:
        """The spans as JSON-ready records (times relative to the first)."""
        origin = self.spans[0][3] if self.spans else 0.0
        return [{"id": ident, "name": name, "parent": parent,
                 "start": start - origin, "end": end - origin}
                for ident, name, parent, start, end in self.spans]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``{span name: (calls, self seconds, inclusive seconds)}``.

        Inclusive time counts a span only when no ancestor has the same
        name, so nested calls of one layer are not counted twice.
        """
        children: dict[int, float] = defaultdict(float)
        by_id = {record[0]: record for record in self.spans}
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for ident, name, parent, start, end in self.spans:
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - children[ident]
            while parent is not None and by_id[parent][1] != name:
                parent = by_id[parent][2]
            if parent is None:
                entry[2] += end - start
        return {name: tuple(entry) for name, entry in totals.items()}


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(record)
    return wrapper


def _import_all() -> None:
    """Import every ``repro`` module, so no module binds a wrapped name
    after the patches are undone."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


#: Executor labels of the program's fan-out call sites -> span names.
_CELL_SPANS = {"cell": "fuzz.cell", "scenario": "campaigns.scenario",
               "experiment": "reports.experiment"}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the layer entry points for the duration of the block."""
    _import_all()
    from repro.analysis.engines import (CalculusEngine, HolisticEngine,
                                        TrajectoryEngine)
    from repro.analysis.multihop import GraphPathAnalysis
    from repro.campaigns.runner import CampaignRunner
    from repro.core import multiplexer
    from repro.core.endtoend import EndToEndAnalysis
    from repro.ethernet.network_sim import EthernetNetworkSimulator
    from repro.exec.executor import ParallelExecutor
    from repro.fuzz.generator import ScenarioGenerator
    from repro.milstd1553.schedule import MajorFrameSchedule
    from repro import reporting
    from repro.serve.engine import AdmissionEngine
    from repro.serve.journal import AdmissionJournal
    from repro.simulation.engine import Simulator
    from repro.store.store import ResultStore
    from repro.topology.network import Network
    from repro.topology.routing import RoutingEngine

    undo: list = []

    def patch_method(cls, attr: str, wrapper) -> None:
        own = attr in cls.__dict__
        original = cls.__dict__.get(attr)
        setattr(cls, attr, wrapper)
        undo.append(lambda: setattr(cls, attr, original) if own
                    else delattr(cls, attr))

    def span_method(cls, attr: str, name: str) -> None:
        patch_method(cls, attr, _spanned(tracer, name, getattr(cls, attr)))

    def span_function(original, name: str) -> None:
        wrapper = _spanned(tracer, name, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append(functools.partial(setattr, module, attr,
                                                  original))

    span_method(Network, "route_flow", "topology.route")
    span_method(RoutingEngine, "route_flow", "topology.route")
    for cls, name in ((CalculusEngine, "engines.calculus"),
                      (HolisticEngine, "engines.holistic"),
                      (TrajectoryEngine, "engines.trajectory")):
        span_method(cls, "class_bounds", name)
    span_method(GraphPathAnalysis, "analyze", "multihop.analyze")
    span_function(multiplexer.aggregate_flows, "core.aggregate")
    span_method(EndToEndAnalysis, "analyze", "core.endtoend")
    span_method(EthernetNetworkSimulator, "__init__", "simulation.build")
    span_method(ScenarioGenerator, "scenario", "fuzz.generate")
    span_method(CampaignRunner, "run", "campaigns.run")
    fingerprint_module = importlib.import_module("repro.store.fingerprint")
    span_function(fingerprint_module.canonical_json, "store.canonical")
    span_method(ResultStore, "put_payload", "store.put")
    for attr in ("render_table", "render_markdown_table", "render_csv",
                 "render_bar_chart", "render_svg_bar_chart"):
        span_function(getattr(reporting, attr), "reports.render")
    span_method(MajorFrameSchedule, "__init__", "milstd1553.schedule")
    span_method(AdmissionEngine, "check", "serve.check")
    span_method(AdmissionEngine, "admit", "serve.admit")
    span_method(AdmissionEngine, "remove", "serve.remove")
    span_method(AdmissionEngine, "_state_fingerprint",
                "serve.state_fingerprint")
    span_method(AdmissionJournal, "append", "serve.journal_append")

    run = Simulator.run

    def simulator_run(self, *args, **kwargs):
        before = self.events_processed
        record = tracer.begin("simulation.run")
        try:
            return run(self, *args, **kwargs)
        finally:
            tracer.end(record)
            tracer.count("simulation.events", self.events_processed - before)

    patch_method(Simulator, "run", functools.wraps(run)(simulator_run))

    get_payload = ResultStore.get_payload

    def store_get(self, digest):
        record = tracer.begin("store.get")
        try:
            payload = get_payload(self, digest)
        finally:
            tracer.end(record)
        if not ResultStore.is_miss(payload):
            tracer.count("store.hits")
        return payload

    patch_method(ResultStore, "get_payload",
                 functools.wraps(get_payload)(store_get))

    executor_map = ParallelExecutor.map

    def traced_map(self, worker_fn, tasks, *args, serial_fn=None, **kwargs):
        name = _CELL_SPANS.get(self.label, f"exec.{self.label}")
        if serial_fn is not None:
            serial_fn = _spanned(tracer, name, serial_fn)
        worker_fn = _spanned(tracer, name, worker_fn)
        record = tracer.begin("exec.map")
        try:
            return executor_map(self, worker_fn, tasks, *args,
                                serial_fn=serial_fn, **kwargs)
        finally:
            tracer.end(record)

    patch_method(ParallelExecutor, "map",
                 functools.wraps(executor_map)(traced_map))
    try:
        yield tracer
    finally:
        for action in reversed(undo):
            action()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit) of every per-layer metric, in the order printed.
PER_LAYER_METRICS = (
    ("topology.route_calls", "count"), ("topology.route_s", "s"),
    ("engines.calculus_s", "s"), ("engines.holistic_s", "s"),
    ("engines.trajectory_s", "s"), ("engines.class_bounds_calls", "count"),
    ("multihop.analyze_calls", "count"), ("multihop.analyze_s", "s"),
    ("core.aggregate_calls", "count"), ("core.aggregate_s", "s"),
    ("core.endtoend_calls", "count"), ("core.endtoend_s", "s"),
    ("simulation.build_s", "s"),
    ("simulation.events", "count"), ("simulation.run_s", "s"),
    ("simulation.events_per_s", "1/s"),
    ("fuzz.generate_s", "s"), ("fuzz.cell_s", "s"),
    ("campaigns.run_calls", "count"), ("campaigns.run_s", "s"),
    ("campaigns.scenario_s", "s"),
    ("store.canonical_calls", "count"), ("store.canonical_s", "s"),
    ("store.put_calls", "count"), ("store.put_s", "s"),
    ("store.put_bytes", "B"), ("store.get_calls", "count"),
    ("store.get_s", "s"), ("store.hit_ratio", "ratio"),
    ("exec.map_s", "s"), ("exec.dispatch_s", "s"),
    ("serve.check_s", "s"), ("serve.admit_s", "s"), ("serve.remove_s", "s"),
    ("serve.state_fingerprint_s", "s"),
    ("serve.journal_append_calls", "count"),
    ("serve.journal_append_s", "s"), ("serve.overhead_s", "s"),
    ("serve.check_p50_ms", "ms"), ("serve.check_p99_ms", "ms"),
    ("serve.mutation_p50_ms", "ms"), ("serve.mutation_p99_ms", "ms"),
    ("serve.graph_mutation_p50_ms", "ms"),
    ("reports.experiment_s", "s"), ("reports.render_s", "s"),
    ("milstd1553.schedule_s", "s"),
    ("bench.other_s", "s"), ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"), ("trace.overhead_s", "s"),
)


def layer_metrics(tracer: Tracer, *, store_bytes: float,
                  untraced_wall: float, extra: dict[str, float]
                  ) -> dict[str, float]:
    """Every per-layer metric of one traced round.

    ``store_bytes`` is what the round's fresh stores hold afterwards,
    ``untraced_wall`` the same round's wall time without tracing, and
    ``extra`` the latency percentiles measured on the run's untraced
    rounds.
    """
    totals = tracer.self_times()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def inclusive_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    wall = inclusive_s("bench.round")
    events = tracer.counters.get("simulation.events", 0)
    lookups = calls("store.get")
    values = {
        "topology.route_calls": calls("topology.route"),
        "topology.route_s": self_s("topology.route"),
        "engines.calculus_s": self_s("engines.calculus"),
        "engines.holistic_s": self_s("engines.holistic"),
        "engines.trajectory_s": self_s("engines.trajectory"),
        "engines.class_bounds_calls": sum(
            calls(f"engines.{name}")
            for name in ("calculus", "holistic", "trajectory")),
        "multihop.analyze_calls": calls("multihop.analyze"),
        "multihop.analyze_s": self_s("multihop.analyze"),
        "core.aggregate_calls": calls("core.aggregate"),
        "core.aggregate_s": self_s("core.aggregate"),
        "core.endtoend_calls": calls("core.endtoend"),
        "core.endtoend_s": self_s("core.endtoend"),
        "simulation.build_s": self_s("simulation.build"),
        "simulation.events": events,
        "simulation.run_s": self_s("simulation.run"),
        "simulation.events_per_s": (events / self_s("simulation.run")
                                    if self_s("simulation.run") else 0.0),
        "fuzz.generate_s": self_s("fuzz.generate"),
        "fuzz.cell_s": self_s("fuzz.cell"),
        "campaigns.run_calls": calls("campaigns.run"),
        "campaigns.run_s": self_s("campaigns.run"),
        "campaigns.scenario_s": self_s("campaigns.scenario"),
        "store.canonical_calls": calls("store.canonical"),
        "store.canonical_s": self_s("store.canonical"),
        "store.put_calls": calls("store.put"),
        "store.put_s": self_s("store.put"),
        "store.put_bytes": store_bytes,
        "store.get_calls": lookups,
        "store.get_s": self_s("store.get"),
        "store.hit_ratio": (tracer.counters.get("store.hits", 0) / lookups
                            if lookups else 0.0),
        "exec.map_s": inclusive_s("exec.map"),
        "exec.dispatch_s": self_s("exec.map"),
        "serve.check_s": self_s("serve.check"),
        "serve.admit_s": self_s("serve.admit"),
        "serve.remove_s": self_s("serve.remove"),
        "serve.state_fingerprint_s": self_s("serve.state_fingerprint"),
        "serve.journal_append_calls": calls("serve.journal_append"),
        "serve.journal_append_s": self_s("serve.journal_append"),
        "serve.overhead_s": self_s("bench.request"),
        "reports.experiment_s": self_s("reports.experiment"),
        "reports.render_s": self_s("reports.render"),
        "milstd1553.schedule_s": self_s("milstd1553.schedule"),
        "bench.other_s": self_s("bench.round"),
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(entry[1] for entry in totals.values()),
        "trace.overhead_s": wall - untraced_wall,
    }
    for name in ("serve.check_p50_ms", "serve.check_p99_ms",
                 "serve.mutation_p50_ms", "serve.mutation_p99_ms",
                 "serve.graph_mutation_p50_ms"):
        values[name] = extra.get(name, 0.0)
    return values
