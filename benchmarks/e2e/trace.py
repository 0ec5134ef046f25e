"""Outside-in tracing for the ``--trace 1`` run.

The benchmark substitutes timing wrappers for the public entry points
of each layer (class attributes, for this process only) and keeps one
span per call in memory: ``[name, layer, start, end, parent, op_id]``,
``parent`` being the index of the enclosing span and ``op_id`` the
dispatcher operation the call belongs to.  A layer's self time is its
spans' durations minus what their child spans cover, so the self times
of all layers add up to the traced wall time.  End-to-end metrics are
never taken from a traced run.

Layer names are module names under ``src/repro/``.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

RUN, SETUP = "run", "setup"

#: Layers that make up a run: (layer, module, class, methods).  The
#: dispatcher entry points open a new ``op_id``.
_RUN_TARGETS = (
    ("routing.planner", "repro.routing.planner", "RoutePlanner",
     ("plan", "try_plan", "can_share")),
    ("core.shareability", "repro.core.shareability", "TemporalShareabilityGraph",
     ("insert_order", "remove_order", "remove_orders", "expire_edges",
      "singleton_group", "cliques_containing")),
    ("core.pool", "repro.core.pool", "OrderPool", ("insert", "check", "flush")),
    ("core.strategies", "repro.core.strategies", "OnlineStrategy", ("should_dispatch",)),
    ("core.strategies", "repro.core.strategies", "TimeoutStrategy", ("should_dispatch",)),
    ("core.strategies", "repro.core.strategies", "ThresholdStrategy", ("should_dispatch",)),
    ("core.threshold", "repro.core.threshold", "ThresholdOptimizer", ("threshold",)),
    ("core.watter", "repro.core.watter", "WatterDispatcher", ("submit", "tick", "flush")),
    ("simulation.fleet", "repro.simulation.fleet", "WorkerFleet",
     ("find_worker_for", "can_serve", "assign", "release_finished")),
    ("network.oracle", "repro.network.graph", "RoadNetwork",
     ("travel_time", "travel_times_many", "travel_times_to", "shortest_path")),
    ("baselines.gdp", "repro.baselines.gdp", "GDPDispatcher", ("submit", "tick", "flush")),
    ("baselines.gas", "repro.baselines.gas", "GASDispatcher", ("submit", "tick", "flush")),
    ("simulation.engine", "repro.simulation.engine", "Simulator", ("run",)),
    ("simulation.metrics", "repro.simulation.metrics", "MetricsCollector",
     ("record_served", "record_rejected", "finalize")),
)
RUN_LAYERS = tuple(dict.fromkeys(target[0] for target in _RUN_TARGETS))
_OP_LAYERS = frozenset({"core.watter", "baselines.gdp", "baselines.gas"})
_GENERATORS = frozenset({"TemporalShareabilityGraph.cliques_containing"})

#: Set-up side: metric name -> (module, owner or None, attribute).  A
#: ``None`` owner is a module-level function, patched in the namespace
#: of the module that imported it by name.
_SETUP_TARGETS = (
    ("api.session.prepare_s", "repro.api.session", "Session", "prepare"),
    ("core.threshold.bootstrap_s", "repro.api.session", "Session", "expect_provider"),
    ("datasets.synthetic.generate_s", "repro.datasets.synthetic", "CityModel", "generate"),
    ("core.gmm.fit_s", "repro.core.gmm", "GaussianMixture", "fit"),
    ("network.generators.build_s", "repro.api.session", None, "grid_city"),
    ("network.generators.build_s", "repro.datasets.workloads", None, "grid_city"),
    ("network.oracle.build_s", "repro.api.session", None, "configure_oracle"),
)

SETUP_METRICS = tuple(dict.fromkeys(target[0] for target in _SETUP_TARGETS))

#: Spans written to the trace file; a dense run records several 10^5.
_MAX_SPANS_WRITTEN = 200_000


def _observe_plan(counters, args, result) -> None:
    counters["planner.feasible"] += 1
    counters["planner.group_members"] += len(args[1])


def _observe_expire(counters, args, result) -> None:
    counters["shareability.expired_edges"] += len(result)


def _observe_insert_order(counters, args, result) -> None:
    edges = args[0].number_of_edges()
    if edges > counters["shareability.edges_peak"]:
        counters["shareability.edges_peak"] = edges


def _observe_check(counters, args, result) -> None:
    size = len(args[0].graph)
    counters["pool.checks"] += 1
    counters["pool.size_sum"] += size
    if size > counters["pool.size_peak"]:
        counters["pool.size_peak"] = size
    for decision in result:
        counters["pool.decisions"] += 1
        if decision.hold:
            counters["pool.held"] += 1
        elif decision.dispatch and decision.group is not None:
            counters["pool.groups"] += 1
            counters["pool.group_members"] += len(decision.group)


def _observe_should_dispatch(counters, args, result) -> None:
    counters["strategies.decisions"] += 1
    if result:
        counters["strategies.dispatch"] += 1


def _observe_find_worker(counters, args, result) -> None:
    counters["fleet.searches"] += 1
    if result is not None:
        counters["fleet.found"] += 1


#: Counters read off a call's arguments and result, after its span closed.
_OBSERVERS: dict[str, Callable[[dict, tuple, Any], None]] = {
    "RoutePlanner.plan": _observe_plan,
    "TemporalShareabilityGraph.expire_edges": _observe_expire,
    "TemporalShareabilityGraph.insert_order": _observe_insert_order,
    "OrderPool.check": _observe_check,
    "OnlineStrategy.should_dispatch": _observe_should_dispatch,
    "TimeoutStrategy.should_dispatch": _observe_should_dispatch,
    "ThresholdStrategy.should_dispatch": _observe_should_dispatch,
    "WorkerFleet.find_worker_for": _observe_find_worker,
}


class Tracer:
    """Span store plus the wrappers that fill it.

    ``phase`` selects which wrappers record: the run-side wrappers only
    while it is ``RUN``, the set-up wrappers only while it is ``SETUP``
    (the WATTER-expect bootstrap replays a whole simulation during
    set-up, which must not count as run-side layer time).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.phase: str | None = None
        self.op_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, module, owner, methods in _RUN_TARGETS:
            cls = getattr(importlib.import_module(module), owner)
            for method in methods:
                name = f"{owner}.{method}"
                wrap = self._resumed if name in _GENERATORS else self._timed
                self._patch(
                    cls, method,
                    partial(wrap, name, layer, RUN, layer in _OP_LAYERS, _OBSERVERS.get(name)),
                )
        for metric, module, owner, attribute in _SETUP_TARGETS:
            holder = importlib.import_module(module)
            if owner is not None:
                holder = getattr(holder, owner)
            self._patch(
                holder, attribute, partial(self._timed, metric, "setup", SETUP, False, None)
            )
        spatial = importlib.import_module("repro.simulation.spatial").WorkerSpatialIndex
        self._patch(spatial, "rings", self._counted_rings)

    def uninstall(self) -> None:
        while self._undo:
            holder, attribute, original = self._undo.pop()
            setattr(holder, attribute, original)

    def _patch(self, holder: Any, attribute: str, make: Callable[[Any], Any]) -> None:
        original = holder.__dict__[attribute]
        self._undo.append((holder, attribute, original))
        setattr(holder, attribute, make(original))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, name, layer, phase, opens_op, observe, fn):
        tracer, spans, stack, clock = self, self.spans, self._stack, perf_counter

        def wrapper(*args, **kwargs):
            if tracer.phase != phase:
                return fn(*args, **kwargs)
            if opens_op:
                tracer.op_id += 1
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return wrapper

    def _resumed(self, name, layer, phase, opens_op, observe, fn):
        """``_timed`` for a generator method: one span per resumption.

        The consumer's own work between two items (it plans a route for
        every clique it is handed) then falls outside the generator's
        spans instead of inside one long one.
        """
        tracer, spans, stack, clock = self, self.spans, self._stack, perf_counter

        def resumed(iterator):
            while True:
                span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
                stack.append(len(spans))
                spans.append(span)
                span[2] = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    span[3] = clock()
                    stack.pop()
                yield item

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            return resumed(iterator) if tracer.phase == phase else iterator

        return wrapper

    def _counted_rings(self, fn):
        """Count ring searches and their candidates; time stays in the fleet."""
        tracer = self

        def counted(iterator):
            counters = tracer.counters
            counters["spatial.searches"] += 1
            for bound, worker_ids in iterator:
                counters["spatial.candidates"] += len(worker_ids)
                yield bound, worker_ids

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            return counted(iterator) if tracer.phase == RUN else iterator

        return wrapper

    # ------------------------------------------------------------------
    # reading the spans
    # ------------------------------------------------------------------
    def attribute(self) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
        """Self time by layer and by span name.

        A span's self time is its duration minus the durations of its
        child spans.  Returns ``layer -> {calls, self_s}`` over the
        run-side layers, where ``calls`` counts entries into the layer
        from outside it (``try_plan -> plan`` is one planner call), and
        ``span name -> self seconds``.
        """
        spans = self.spans
        own = [span[3] - span[2] for span in spans]
        for span in spans:
            if span[4] >= 0:
                own[span[4]] -= span[3] - span[2]
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in RUN_LAYERS}
        by_name: dict[str, float] = defaultdict(float)
        for span, self_s in zip(spans, own):
            by_name[span[0]] += self_s
            row = table.get(span[1])
            if row is None:
                continue
            row["self_s"] += self_s
            if span[4] < 0 or spans[span[4]][1] != span[1]:
                row["calls"] += 1
        return table, by_name

    def setup_durations(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total duration and call count per set-up metric name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            if span[1] == "setup":
                seconds[span[0]] += span[3] - span[2]
                calls[span[0]] += 1
        return seconds, calls

    def write(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            **header,
            "span_fields": ["name", "layer", "start", "end", "parent", "op_id"],
            "spans_total": len(self.spans),
            "spans": self.spans[:_MAX_SPANS_WRITTEN],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def format_layer_table(table: dict[str, dict[str, float]], wall: float) -> str:
    """The printed layer table: calls, self time and share of the traced wall."""
    lines = [f"{'layer':<22}{'calls':>10}{'self_s':>11}{'share':>8}"]
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / wall if wall else 0.0
        lines.append(f"{layer:<22}{row['calls']:>10}{row['self_s']:>11.4f}{share:>8.3f}")
    total = sum(row["self_s"] for row in table.values())
    lines.append(f"{'sum of layers':<22}{'':>10}{total:>11.4f}{(total / wall if wall else 0.0):>8.3f}")
    return "\n".join(lines)
