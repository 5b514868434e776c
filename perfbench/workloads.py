"""The three benchmark workloads, driven through the program's public API.

Each workload builds its inputs from the run's seed in :meth:`setup`,
does one whole round of timed work per :meth:`round` call, and checks
everything the rounds produced in :meth:`verify` (untimed).  Results go
to fresh directories under the run's scratch directory; nothing is
compared against a stored copy of earlier output.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time
from pathlib import Path

import oracle

__all__ = ["Round", "WORKLOADS"]


@dataclasses.dataclass
class Round:
    """What one round did: its operations and how long they took."""

    #: Operations completed in the measured phase (the ``ops_per_s`` unit).
    ops: int
    #: Operations the round attempted, checked one by one in ``verify``.
    attempted: int
    #: Seconds the measured phase took.
    busy_s: float
    #: Latency samples of the workload's operation, in milliseconds.
    latencies_ms: list[float]
    #: Extra latency samples by kind (admission-mix only), in ms.
    kinds_ms: dict[str, list[float]] = dataclasses.field(
        default_factory=dict)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


class Workload:
    """Shared shape of a workload; see the module docstring.

    :meth:`verify` charges each problem it finds either to the attempted
    operation it concerns (:attr:`faults`, one key per failed operation)
    or, when no single operation is at fault, to the run
    (:attr:`problems`).
    """

    name = ""
    #: The span tracer of a traced round (``None`` when untraced).
    tracer = None

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = int(seed)
        self.work = work
        #: Problems of the run as a whole.
        self.problems: list[str] = []
        #: Problems by the attempted operation they concern.
        self.faults: dict[str, list[str]] = {}

    def fault(self, operation: str, problems: list[str]) -> None:
        """Charge ``problems`` (if any) to ``operation``."""
        if problems:
            self.faults.setdefault(operation, []).extend(problems)

    def setup(self) -> None:
        """Build inputs and start services (timed as ``setup_s``)."""

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def round(self, index: int) -> Round:  # pragma: no cover - abstract
        raise NotImplementedError

    def verify(self) -> None:
        """Check every round run so far; fill ``problems``/``faults``."""

    def store_bytes(self) -> float:
        """Bytes held by the stores the last round wrote (0 without)."""
        return 0.0


# ---------------------------------------------------------------------------
# engine-panel
# ---------------------------------------------------------------------------

class EnginePanel(Workload):
    """Every registered engine over the ladder plus two routed graphs.

    One operation is one engine row: a (scenario, engine, policy, class)
    bound of one round.
    """

    name = "engine-panel"

    def setup(self) -> None:
        from repro.analysis.engines import engine_names
        from repro.campaigns import get, select
        from repro.flows.priorities import PriorityClass

        self.engines = tuple(engine_names())
        chosen = list(select("ladder")) + [get("graph-diamond"),
                                           get("graph-ring")]
        # The seed picks the case-study draw behind every scenario.
        workload_seed = 1000 + self.seed
        self.scenarios = [
            dataclasses.replace(scenario, workload=dataclasses.replace(
                scenario.workload, seed=workload_seed))
            for scenario in chosen]
        self.cells = [(scenario.name, engine, policy, priority)
                      for scenario in self.scenarios
                      for policy in scenario.policies
                      for engine in self.engines
                      for priority in PriorityClass]
        self.results: list = []

    def round(self, index: int) -> Round:
        from repro.campaigns import CampaignRunner

        runner = CampaignRunner(engines=self.engines)
        started = time.perf_counter()
        result = runner.run(self.scenarios)
        elapsed = time.perf_counter() - started
        self.results.append(result)
        return Round(ops=len(result.engine_rows()),
                     attempted=len(self.cells), busy_s=elapsed,
                     latencies_ms=[elapsed * 1e3])

    def verify(self) -> None:
        from repro.analysis.engines import get_engine, scenario_inputs

        # Oracle closed forms, and the calculus bound of the routed star
        # that holistic and trajectory bound, per ladder (scenario, policy).
        ladder = [s for s in self.scenarios if "ladder" in s.tags]
        want, floor = {}, {}
        for scenario in ladder:
            messages = scenario.workload.build().messages
            wire, network, graph_spec = scenario_inputs(scenario)
            for policy in scenario.policies:
                key = (scenario.name, policy)
                want[key] = oracle.policy_bounds(messages, policy,
                                                 scenario.capacity,
                                                 scenario.technology_delay)
                floor[key] = get_engine("calculus").network_class_bounds(
                    wire, policy, network=network, graph_spec=graph_spec)
        first: dict[tuple, tuple] = {}
        for number, result in enumerate(self.results):
            def op(cell, number=number):
                scenario, engine, policy, priority = cell
                return (f"round {number} {scenario}/{engine}/{policy}/"
                        f"{priority.name}")

            if result.failures:
                self.problems.append(
                    f"round {number}: failed scenarios "
                    f"{[f.label for f in result.failures]}")
            seen = {}
            for row in result.engine_rows():
                cell = (row.scenario, row.engine, row.policy, row.priority)
                seen[cell] = row.bound
                label = op(cell)
                self.fault(label, oracle.check_finite_iff_stable(
                    label, row.bound, row.stable))
                key = (row.scenario, row.policy)
                if key in want and row.engine == "calculus":
                    self.fault(label, oracle.check_equal(
                        label, {row.priority.value: row.bound},
                        {row.priority.value: want[key][row.priority.value]}))
                elif key in want:
                    self.fault(label, oracle.check_dominates(
                        f"{label} vs calculus on the routed star", row.bound,
                        floor[key][row.priority]))
                again = first.setdefault(cell, (row.bound, row.stable))
                if again != (row.bound, row.stable):
                    self.fault(label, [f"{label}: {row.bound!r} "
                                       f"(stable={row.stable}), round 0 "
                                       f"gave {again}"])
            # The canonical rows are the calculus engine's default path.
            for row in result.rows():
                cell = (row.scenario, "calculus", row.policy, row.priority)
                label = op(cell)
                self.fault(label, oracle.check_finite_iff_stable(
                    f"{label} canonical row", row.bound, row.stable))
                key = (row.scenario, row.policy)
                if key in want:
                    self.fault(label, oracle.check_equal(
                        f"{label} canonical row",
                        {row.priority.value: row.bound},
                        {row.priority.value: want[key][row.priority.value]}))
            for cell in self.cells:
                if cell not in seen:
                    self.fault(op(cell), [f"{op(cell)}: no row"])
            # Bounds never decrease from one ladder rung to the next.
            for cell in self.cells:
                scenario, engine, policy, priority = cell
                if scenario != ladder[0].name:
                    continue
                lower = seen.get(cell)
                for rung in ladder[1:]:
                    upper_cell = (rung.name, engine, policy, priority)
                    upper = seen.get(upper_cell)
                    if lower is not None and upper is not None:
                        self.fault(op(upper_cell), oracle.check_dominates(
                            f"{op(upper_cell)} vs the rung below", upper,
                            lower))
                    lower = upper


# ---------------------------------------------------------------------------
# admission-mix
# ---------------------------------------------------------------------------

#: Star-phase requests per round (half what-if checks, half mutations).
STAR_REQUESTS = 400
#: Graph-phase mutations per round (admit/remove pairs).
GRAPH_MUTATIONS = 20
#: Most flows the client keeps admitted on top of the case study.
LIVE_CEILING = 6


class AdmissionMix(Workload):
    """One closed-loop HTTP client against in-process admission servers.

    One operation is one HTTP request; ``ops_per_s`` counts the star
    phase's timed requests only.
    """

    name = "admission-mix"

    def setup(self) -> None:
        from repro.campaigns import get
        from repro.serve import (AdmissionEngine, AdmissionJournal,
                                 AdmissionServer, ServeClient, ServeConfig)

        star = dataclasses.replace(get("paper-real-case"),
                                   policies=("strict-priority",))
        graph = dataclasses.replace(get("graph-diamond"),
                                    policies=("strict-priority",))
        self.phases = {}
        self.requests = 0
        for key, scenario in (("star", star), ("graph", graph)):
            journal = AdmissionJournal(self.work / f"journal-{key}-"
                                       f"{time.perf_counter_ns()}")
            engine = AdmissionEngine(scenario, "strict-priority")
            # A generous deadline budget: a traced or descheduled request
            # must be answered, never degraded to the committed snapshot.
            server = AdmissionServer(engine, ServeConfig(deadline=5.0),
                                     journal=journal)
            server.start()
            client = ServeClient(f"http://127.0.0.1:{server.port}",
                                 timeout=30.0)
            client.wait_ready()
            status, body, _ = client.check()
            message_set = scenario.workload.build()
            self.phases[key] = {
                "scenario": scenario, "server": server, "client": client,
                "base": [self._payload(m) for m in message_set.messages],
                "stations": message_set.stations(),
                "base_fingerprint": body["snapshot"]["state_fingerprint"],
                "log": []}

    @staticmethod
    def _payload(message) -> dict:
        return {"name": message.name, "kind": message.kind.value,
                "period": float(message.period),
                "size": float(message.size), "source": message.source,
                "destination": message.destination,
                "deadline": (None if message.deadline is None
                             else float(message.deadline))}

    def teardown(self) -> None:
        for phase in self.phases.values():
            phase["server"].drain(timeout=30.0)

    def _flow(self, rng: random.Random, name: str, stations,
              oversized: bool) -> dict:
        source, destination = rng.sample(stations, 2)
        if oversized:
            # 40 kbit of urgent burst: 4 ms on the 10 Mbit/s link, past
            # the urgent class's 3 ms deadline.
            return {"name": name, "kind": "sporadic", "period": 0.02,
                    "size": 40000.0, "source": source,
                    "destination": destination, "deadline": 0.003}
        kind, period, deadline = rng.choice((
            ("sporadic", 0.02, 0.003), ("periodic", 0.02, 0.02),
            ("periodic", 0.08, 0.08), ("sporadic", 0.02, 0.02),
            ("sporadic", 0.16, None)))
        return {"name": name, "kind": kind, "period": period,
                "size": float(rng.choice((256, 512, 768, 1024))),
                "source": source, "destination": destination,
                "deadline": deadline}

    def _request(self, phase: dict, op: str, argument, tag: str) -> float:
        """One timed round trip, logged for :meth:`verify`."""
        client = phase["client"]
        tracer = self.tracer
        record = tracer.begin("bench.request") if tracer else None
        if tracer:
            tracer.adopt = record[0]
        started = time.perf_counter()
        try:
            if op in ("check", "final"):
                status, body, _ = client.check(argument)
            elif op == "admit":
                status, body, _ = client.admit(argument)
            else:
                status, body, _ = client.remove(argument)
        finally:
            elapsed = time.perf_counter() - started
            if tracer:
                tracer.adopt = None
                tracer.end(record)
        phase["log"].append((tag, op, argument, status, body))
        self.requests += 1
        return elapsed * 1e3

    def round(self, index: int) -> Round:
        rng = random.Random(f"admission-mix:{self.seed}:{index}")
        star = self.phases["star"]
        live: list[str] = []
        kinds: dict[str, list[float]] = {"check": [], "mutation": [],
                                         "graph_mutation": []}
        tag = f"r{index}"
        star["log"].append((tag, "start", None, None, None))
        requests = self.requests
        started = time.perf_counter()
        for step in range(STAR_REQUESTS):
            name = f"bench-{index}-{step}"
            if step % 2 == 0:
                flow = self._flow(rng, name, star["stations"],
                                  rng.random() < 0.2)
                ms = self._request(star, "check", flow, tag)
                kinds["check"].append(ms)
            else:
                admit = not live or (len(live) < LIVE_CEILING
                                     and rng.random() < 0.5)
                if admit:
                    flow = self._flow(rng, name, star["stations"],
                                      rng.random() < 0.2)
                    ms = self._request(star, "admit", flow, tag)
                    if star["log"][-1][3] == 200:
                        live.append(name)
                else:
                    victim = live.pop(rng.randrange(len(live)))
                    ms = self._request(star, "remove", victim, tag)
                kinds["mutation"].append(ms)
        busy = time.perf_counter() - started
        # The committed snapshot, for the fresh-engine check in verify().
        self._request(star, "final", None, tag)
        for victim in live:
            self._request(star, "remove", victim, tag)

        graph = self.phases["graph"]
        graph["log"].append((tag, "start", None, None, None))
        for step in range(GRAPH_MUTATIONS // 2):
            name = f"bench-{index}-g{step}"
            flow = self._flow(rng, name, graph["stations"], False)
            kinds["graph_mutation"].append(
                self._request(graph, "admit", flow, tag))
            if step == GRAPH_MUTATIONS // 4:
                self._request(graph, "final", None, tag)
            kinds["graph_mutation"].append(
                self._request(graph, "remove", name, tag))
        return Round(ops=STAR_REQUESTS, attempted=self.requests - requests,
                     busy_s=busy,
                     latencies_ms=kinds["check"] + kinds["mutation"],
                     kinds_ms=kinds)

    def verify(self) -> None:
        for key, phase in self.phases.items():
            stats = phase["server"].stats_payload()
            if stats["shed"] or stats["degraded"] or stats["errors"]:
                self.problems.append(f"{key}: shed {stats['shed']}, degraded "
                                     f"{stats['degraded']}, errors "
                                     f"{stats['errors']}")
            self._replay(key, phase)

    def _replay(self, key: str, phase: dict) -> None:
        """Walk the request log with an independent model of the table."""
        from repro.serve import AdmissionEngine
        from repro.store import fingerprint

        scenario = phase["scenario"]
        capacity, t_techno = scenario.capacity, scenario.technology_delay
        base = phase["base"]
        added: list[dict] = []
        committed = {(): phase["base_fingerprint"]}
        for position, entry in enumerate(phase["log"]):
            tag, op, argument, status, body = entry
            if op == "start":
                added = []
                continue
            name = argument.get("name") if isinstance(argument, dict) \
                else argument
            label = f"{key} {tag} {op} {name}"
            problems = self.faults.setdefault(f"{key} request {position}",
                                              [])
            if status != 200 and (status != 409 or op != "admit"
                                  or key != "star"):
                problems.append(f"{label}: status {status} {body}")
                continue
            if body.get("degraded"):
                problems.append(f"{label}: degraded answer")
            snapshot = body["snapshot"]
            if op == "final":
                table = base + added
                fresh = AdmissionEngine(scenario, "strict-priority",
                                        preload=False)
                fresh.replay([{"op": "admit", "flow": flow}
                              for flow in table])
                served = dict(snapshot)
                served.pop("mode")
                if fingerprint(served) != fresh.snapshot(
                        ).bounds_fingerprint():
                    problems.append(f"{label}: served bounds differ from a "
                                    f"fresh engine over the same table")
                if key == "star":
                    problems += self._against_oracle(label, snapshot, table,
                                                     capacity, t_techno)
                continue
            if op == "remove":
                added = [flow for flow in added
                         if flow["name"] != argument]
            else:
                table = base + added + [argument]
                violating = oracle.violating_classes(
                    table, "strict-priority", capacity, t_techno) \
                    if key == "star" else set()
                reasons = {oracle.CLASS_NAMES.index(text.split()[1])
                           for text in body["reasons"]}
                if key == "star":
                    problems += self._against_oracle(label, snapshot, table,
                                                     capacity, t_techno)
                    if reasons != violating:
                        problems.append(f"{label}: reasons {reasons}, "
                                        f"oracle {violating}")
                if op == "admit":
                    if status == 200 and not reasons:
                        added.append(argument)
                    elif status != 409 or not reasons:
                        problems.append(f"{label}: status {status} with "
                                        f"reasons {body['reasons']}")
            if op in ("admit", "remove") and status == 200:
                names = tuple(flow["name"] for flow in added)
                seen = committed.setdefault(names,
                                            snapshot["state_fingerprint"])
                if seen != snapshot["state_fingerprint"]:
                    problems.append(f"{label}: the flow table {names} came "
                                    f"back with another fingerprint")
        self.faults = {op: found for op, found in self.faults.items()
                       if found}

    @staticmethod
    def _against_oracle(label, snapshot, table, capacity, t_techno):
        want = oracle.priority_bounds(table, capacity, t_techno)
        got = {oracle.CLASS_NAMES.index(row["class"]): row["bound"]
               for row in snapshot["classes"]}
        return oracle.check_equal(label, got, want)


# ---------------------------------------------------------------------------
# report-cold
# ---------------------------------------------------------------------------

#: Report tables that print a bound next to what the simulator saw:
#: (experiment, file, bound columns, simulated column, rows not bounded).
#: The 1553B background class is served best-effort in idle frame time;
#: the program marks its figure as indicative, not a bound.
SIMULATED_TABLES = (
    ("bound-vs-sim", "validation.csv", ("bound_ms",), "simulated_worst_ms",
     ()),
    ("monte-carlo", "monte-carlo.csv", ("bound_ms",), "worst_simulated_ms",
     ()),
    ("fuzz", "fuzz.csv", ("bound_ms",), "worst_simulated_ms", ()),
    ("multi-hop", "multihop.csv", ("bound_ms",), "worst_simulated_ms", ()),
    ("engines", "bounds.csv", ("calculus_bound_ms", "holistic_bound_ms",
                               "trajectory_bound_ms"), "worst_simulated_ms",
     ()),
    ("buffers", "buffers.csv", ("backlog_bits",), "observed_bits", ()),
    ("baseline-1553", "response-times.csv", ("analytic_worst_ms",),
     "simulated_worst_ms", ("BACKGROUND",)),
)


class ReportCold(Workload):
    """The full reproduction report, cold into fresh dirs, then warm.

    One operation is one experiment of one round.  A file under an
    experiment's directory is charged to that experiment; the top-level
    files stitch every experiment, so a fault in one is charged to all.
    """

    name = "report-cold"

    def setup(self) -> None:
        self.runs: list[tuple] = []
        self.stores: list = []

    def round(self, index: int) -> Round:
        from repro import ReportPipeline, ResultStore

        base = self.work / f"report-{index}-{len(self.stores)}"
        store = ResultStore(base / "store")
        self.stores.append(store)
        pipeline = ReportPipeline(base / "cold", store=store)
        started = time.perf_counter()
        cold = pipeline.run()
        elapsed = time.perf_counter() - started
        warm = ReportPipeline(base / "warm", store=store).run()
        names = [spec.name for spec in pipeline.experiments]
        self.runs.append((base, names, cold, warm))
        return Round(ops=len(cold.experiments), attempted=len(names),
                     busy_s=elapsed, latencies_ms=[elapsed * 1e3])

    def verify(self) -> None:
        reference: dict[str, bytes] | None = None
        for number, (base, names, cold, warm) in enumerate(self.runs):
            def owners(path: str, names=names) -> list[str]:
                head = path.split("/", 1)[0]
                return [head] if head in names else names

            def charge(experiments, text, number=number):
                for name in experiments:
                    self.fault(f"round {number} {name}", [text])

            for name in names:
                if name not in cold.experiments:
                    charge([name], f"round {number} {name}: not rendered")
            for name, claim in cold.claims:
                if not claim.passed:
                    charge([name], f"round {number} {name}: claim not "
                                   f"reproduced: {claim.claim} "
                                   f"({claim.detail})")
            for name in warm.computed_experiments:
                charge([name], f"round {number} {name}: recomputed on the "
                               f"warm rerun")
            files = {path: (base / "cold" / path).read_bytes()
                     for path in cold.files}
            for path in sorted(set(cold.files) ^ set(warm.files)):
                charge(owners(path), f"round {number} {path}: written by "
                                     f"only one of the cold and warm runs")
            for path in sorted(set(cold.files) & set(warm.files)):
                if (base / "warm" / path).read_bytes() != files[path]:
                    charge(owners(path), f"round {number} {path}: warm "
                                         f"differs from cold")
            if reference is None:
                reference = files
            for path in sorted(set(files) | set(reference)):
                if files.get(path) != reference.get(path):
                    charge(owners(path), f"round {number} {path}: differs "
                                         f"from round 0's")
            if "figure1" in names:
                for text in self._urgent_bounds(base / "cold"):
                    charge(["figure1"], f"round {number} {text}")
            for name, text in self._simulated_floors(base / "cold"):
                charge([name], f"round {number} {text}")

    @staticmethod
    def _urgent_bounds(root: Path) -> list[str]:
        """Figure 1's urgent FCFS and priority bounds against the oracle."""
        import csv

        from repro.reports.experiments import case_study_message_set

        messages = case_study_message_set().messages
        capacity, t_techno = 10e6, 16e-6
        fcfs = oracle.fcfs_bounds(messages, capacity, t_techno)[0]
        priority = oracle.priority_bounds(messages, capacity, t_techno)[0]
        with (root / "figure1" / "bounds.csv").open(newline="") as handle:
            rows = {row["priority"]: row for row in csv.DictReader(handle)}
        urgent = rows["URGENT"]
        return (oracle.check_equal("figure1 urgent FCFS (ms)",
                                   {0: float(urgent["fcfs_bound_ms"])},
                                   {0: fcfs * 1e3})
                + oracle.check_equal("figure1 urgent priority (ms)",
                                     {0: float(urgent["priority_bound_ms"])},
                                     {0: priority * 1e3}))

    @staticmethod
    def _simulated_floors(root: Path) -> list[tuple[str, str]]:
        """Every bound at or above its simulated worst case, from the rows.

        Rows the report did not simulate (an empty simulated cell) and
        rows the program does not bound are skipped; a missing table is
        charged by the file checks.
        """
        import csv

        found = []
        for name, table, bounds, simulated, unbounded in SIMULATED_TABLES:
            path = root / name / table
            if not path.is_file():
                continue
            with path.open(newline="") as handle:
                for number, row in enumerate(csv.DictReader(handle)):
                    if not row[simulated] or row.get("priority") in unbounded:
                        continue
                    for column in bounds:
                        label = f"{name}/{table} row {number} {column}"
                        if not row[column]:
                            found.append((name, f"{label}: no bound"))
                            continue
                        found += [(name, text) for text in
                                  oracle.check_dominates(
                                      f"{label} vs {simulated}",
                                      float(row[column]),
                                      float(row[simulated]))]
        return found

    def store_bytes(self) -> float:
        return float(self.stores[-1].size_bytes())


WORKLOADS = {cls.name: cls for cls in (EnginePanel, AdmissionMix,
                                       ReportCold)}


def summarize(rounds: list[Round]) -> tuple[float, float]:
    """``(ops per second, median latency in ms)`` over the rounds."""
    ops = sum(r.ops for r in rounds)
    busy = sum(r.busy_s for r in rounds)
    samples = [ms for r in rounds for ms in r.latencies_ms]
    return ops / busy, statistics.median(samples)


def kind_percentiles(rounds: list[Round]) -> dict[str, float]:
    """The admission latency split by request kind (empty elsewhere)."""
    pooled: dict[str, list[float]] = {}
    for r in rounds:
        for kind, samples in r.kinds_ms.items():
            pooled.setdefault(kind, []).extend(samples)
    if not pooled:
        return {}
    return {"serve.check_p50_ms": percentile(pooled["check"], 50),
            "serve.check_p99_ms": percentile(pooled["check"], 99),
            "serve.mutation_p50_ms": percentile(pooled["mutation"], 50),
            "serve.mutation_p99_ms": percentile(pooled["mutation"], 99),
            "serve.graph_mutation_p50_ms":
                percentile(pooled["graph_mutation"], 50)}
