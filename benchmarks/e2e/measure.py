"""Measurement protocol of the direct workloads.

The reference host's speed changes in bursts of seconds to minutes (a
fixed pure-Python loop swings 0.142 to 0.209 s), and a single-shot
benchmark was rejected for it: ``setup_s`` moved 14 % between two runs
of identical code.  The bursts are shorter than a run, so even the
fastest of five whole runs swung 2.15 to 3.29 s on ``grid32_gdp_ch``.
So one invocation repeats *fresh session -> timed set-up -> timed run*
for the whole measurement window, and because the repeats replay the
same dispatcher operations, it takes each operation's fastest sample
across the repeats: the sum of those is the run wall no burst hit (the
"quiet" wall; the same data gave 2.10 to 2.52 s, and 2.10 to 2.30 s
with ten repeats).  Every repeat starts from a fresh ``Session``
because a second run on a warm session was measured about 22 % faster
(the lazy oracle's SSSP cache) and a one-shot ``repro run`` never sees
that.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import repro.api.session as session_module
from repro.api import RunResult, ScenarioSpec, Session
from repro.datasets.synthetic import Workload

from .trace import RUN, RUN_LAYERS, SETUP, SETUP_METRICS, Tracer, format_layer_table
from .workloads import direct_spec, jittered

OUT_DIR = Path(__file__).resolve().parent / "out"

#: ``setup_s`` is the median of this many fastest set-ups.
QUIET = 3
#: A traced run costs about this many untraced repeats; the window of a
#: ``--trace 1`` invocation keeps that much room for it.
_TRACED_REPEAT_COST = 2.0
#: Tolerance of the "layer self times add up to the traced wall" check:
#: a share of the wall, and a floor for what ``Session.run`` does once
#: per run outside the layers (graph hash, fleet and grid index).
_SELF_TIME_TOLERANCE = 0.02
_SELF_TIME_FLOOR_S = 0.02


@dataclass
class Outcome:
    """What one workload's invocation reports."""

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


@dataclass
class Repeat:
    """Timings and checks of one repeat.

    The run's result and workload are checked on the spot and dropped:
    kept alive, each repeat's network and oracle caches would make
    ``peak_rss_mb`` grow with the number of repeats.
    """

    setup_s: float
    run_s: float
    ops: list[tuple[str, float]]
    orders: int
    quality: tuple[float, float, float]
    oracle_stats: dict[str, Any]
    problems: list[str]


class TimedDispatcher:
    """Two clock reads around each dispatcher operation.

    Wrapped around the dispatcher the facade builds, in traced and
    untraced runs alike, so it is on both sides of every comparison.
    """

    def __init__(self, inner: Any, ops: list[tuple[str, float]]) -> None:
        self._inner = inner
        self._ops = ops

    def submit(self, order, now):
        started = perf_counter()
        result = self._inner.submit(order, now)
        self._ops.append(("submit", perf_counter() - started))
        return result

    def tick(self, now):
        started = perf_counter()
        result = self._inner.tick(now)
        self._ops.append(("tick", perf_counter() - started))
        return result

    def flush(self, now):
        started = perf_counter()
        result = self._inner.flush(now)
        self._ops.append(("flush", perf_counter() - started))
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


@contextmanager
def timed_dispatch() -> Iterator[list[tuple[str, float]]]:
    """Have ``Session.run`` wrap its dispatcher; yields the op samples."""
    ops: list[tuple[str, float]] = []
    original = session_module.make_dispatcher

    def make_timed(*args, **kwargs):
        return TimedDispatcher(original(*args, **kwargs), ops)

    session_module.make_dispatcher = make_timed
    try:
        yield ops
    finally:
        session_module.make_dispatcher = original


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes (fastest of three)."""
    best = math.inf
    for _ in range(3):
        started = perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        best = min(best, perf_counter() - started)
    return best * 1000.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def fastest(values: list[float], count: int = QUIET) -> list[float]:
    return sorted(values)[:count]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_repeat(
    spec: ScenarioSpec, seed: int | None, tracer: Tracer | None = None
) -> Repeat:
    """Fresh session, timed set-up, timed run.

    ``seed=None`` replays the pinned input itself, any other seed its
    jittered order stream.
    """
    gc.collect()
    session = Session()
    if tracer is not None:
        tracer.phase = SETUP
    started = perf_counter()
    base = session.prepare(spec)
    provider = (
        session.expect_provider(spec)
        if spec.algorithm.lower() == "watter-expect"
        else None
    )
    setup_s = perf_counter() - started
    workload = base if seed is None else jittered(base, seed, spec.config().horizon)
    with timed_dispatch() as ops:
        if tracer is not None:
            tracer.phase = RUN
        started = perf_counter()
        try:
            result = session.run(spec, workload=workload, provider=provider)
        finally:
            run_s = perf_counter() - started
            if tracer is not None:
                tracer.phase = None
    metrics = result.metrics
    return Repeat(
        setup_s,
        run_s,
        ops,
        orders=len(workload.orders),
        quality=(metrics.service_rate, metrics.unified_cost, metrics.average_extra_time),
        oracle_stats=dict(result.oracle_stats or {}),
        problems=run_problems(result, workload),
    )


def run_problems(result: RunResult, workload: Workload) -> list[str]:
    """Invariants every finished run must satisfy."""
    problems = []
    orders = {order.order_id: order for order in workload.orders}
    decided = [outcome.order_id for outcome in result.outcomes]
    if len(decided) != len(orders) or set(decided) != set(orders):
        problems.append(
            f"{len(decided)} outcomes ({len(set(decided))} distinct) for "
            f"{len(orders)} orders"
        )
    metrics = result.metrics
    if metrics.served_orders + metrics.rejected_orders != len(orders):
        problems.append("served + rejected does not equal the order count")
    for outcome in result.outcomes:
        order = orders.get(outcome.order_id)
        if order is None or not outcome.served:
            continue
        dropoff = (
            order.release_time
            + outcome.response_time
            + order.shortest_time
            + outcome.detour_time
        )
        if dropoff > order.deadline + 1e-6:
            problems.append(
                f"order {order.order_id} dropped off {dropoff - order.deadline:.3f} s "
                f"past its deadline"
            )
    return problems


def op_seconds(ops: list[tuple[str, float]], *kinds: str) -> list[float]:
    return [seconds for kind, seconds in ops if kind in kinds]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def quiet_profile(samples: list[list[float]]) -> list[float]:
    """Per position, the fastest of the repeats' samples."""
    return [min(column) for column in zip(*samples)]


def measure_direct(
    name: str, seed: int, seconds: float, scale: float, trace: bool
) -> Outcome:
    """Measure one direct workload for ``seconds`` seconds, warm-up included."""
    window_started = perf_counter()
    outcome = Outcome()
    spec = direct_spec(name, scale)
    calibration_ms = calibrate()
    repeats: list[Repeat] = []
    reserve = _TRACED_REPEAT_COST if trace else 0.0
    cpus = sorted(os.sched_getaffinity(0))
    try:
        # Untimed warm-up on the pinned input: absorbs imports and lazy
        # initialisation, and its quality metrics are the ones reported
        # (they do not depend on --seed, so any drift is the program's).
        reference = run_repeat(spec, None)
        outcome.attempted += len(reference.ops)
        outcome.problems += reference.problems
        while True:
            # The host slows one core at a time as often as both, for up
            # to a minute: repeats take the cores in turn, so that the
            # quiet profile can draw on whichever was fast.
            os.sched_setaffinity(0, {cpus[len(repeats) % len(cpus)]})
            repeat = run_repeat(spec, seed)
            repeats.append(repeat)
            outcome.attempted += len(repeat.ops)
            outcome.problems += repeat.problems
            if repeat.quality != repeats[0].quality or len(repeat.ops) != len(repeats[0].ops):
                outcome.problems.append("repeats of one input differ in outcome")
            longest = max(each.setup_s + each.run_s for each in repeats)
            elapsed = perf_counter() - window_started
            if elapsed + longest * (1.0 + reserve) > seconds:
                break
    except Exception:  # noqa: BLE001 - a failed operation is a result, not a crash
        outcome.failed += 1
        outcome.attempted += 1
        outcome.problems.append(traceback.format_exc())
        return outcome
    finally:
        os.sched_setaffinity(0, cpus)

    # Repeats replay the same operations, so operation i is the same
    # work every time: its fastest sample is the one no burst hit.
    kinds = [kind for kind, _ in repeats[0].ops]
    quiet_ops = list(
        zip(kinds, quiet_profile([[took for _, took in each.ops] for each in repeats]))
    )
    outside_ops = min(each.run_s - sum(took for _, took in each.ops) for each in repeats)
    quiet_run_s = sum(took for _, took in quiet_ops) + outside_ops
    service_rate, unified_cost, extra_time = reference.quality
    outcome.metrics = {
        "setup_s": statistics.median(
            fastest([reference.setup_s] + [each.setup_s for each in repeats])
        ),
        "orders_per_s": reference.orders / quiet_run_s,
        "op_p90_ms": 1000.0 * percentile(op_seconds(quiet_ops, "submit", "tick"), 0.90),
        "peak_rss_mb": peak_rss_mb(),
        "service_rate": service_rate,
        "unified_cost": unified_cost,
        "extra_time_s": extra_time,
    }
    median_run_s = statistics.median(each.run_s for each in repeats)
    outcome.notes.append(
        f"{len(repeats)} repeats of {len(kinds)} ops over {reference.orders} orders; "
        f"run wall {quiet_run_s:.3f} s quiet, {median_run_s:.3f} s median"
    )
    if trace:
        try:
            outcome.layers = _traced_layers(
                name, spec, seed, repeats[0], quiet_ops, quiet_run_s, outcome
            )
        except Exception:  # noqa: BLE001
            outcome.failed += 1
            outcome.problems.append(traceback.format_exc())
            return outcome
        outcome.layers.update(
            host_metrics(calibration_ms, median_run_s, quiet_run_s, len(repeats))
        )
    return outcome


def host_metrics(
    calibration_ms: float, median_wall_s: float, quiet_wall_s: float, repeats: int
) -> dict[str, float]:
    """The per-layer metrics that explain a noisy reading."""
    return {
        "host.calibration_ms": calibration_ms,
        "bench.run_spread": (median_wall_s - quiet_wall_s) / quiet_wall_s,
        "bench.repeats_used": repeats,
    }


def _traced_layers(
    name: str,
    spec: ScenarioSpec,
    seed: int,
    untraced: Repeat,
    quiet_ops: list[tuple[str, float]],
    quiet_run_s: float,
    outcome: Outcome,
) -> dict[str, float]:
    """One traced repeat of the same input; returns the per-layer metrics."""
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_repeat(spec, seed, tracer)
    finally:
        tracer.uninstall()
    outcome.attempted += len(traced.ops)
    outcome.problems += traced.problems
    if traced.quality != untraced.quality or len(traced.ops) != len(untraced.ops):
        outcome.problems.append("tracing changed the run's outcome")
    layers, table = layer_metrics(
        tracer,
        traced_wall=traced.run_s,
        untraced_wall=quiet_run_s,
        orders=traced.orders,
        oracle_stats=traced.oracle_stats,
        ops=quiet_ops,
        outcome=outcome,
    )
    print(f"-- layer table: {name} (traced run {traced.run_s:.3f} s)")
    print(format_layer_table(table, traced.run_s))
    tracer.write(
        OUT_DIR / f"trace-{name}.json",
        {"workload": name, "seed": seed, "traced_wall_s": traced.run_s, "layers": table},
    )
    return layers


def layer_metrics(
    tracer: Tracer,
    *,
    traced_wall: float,
    untraced_wall: float,
    orders: int,
    oracle_stats: Any,
    ops: list[tuple[str, float]],
    outcome: Outcome,
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics of a traced run (no ``serve.*``) and its layer table."""
    table, by_name = tracer.attribute()
    covered = sum(row["self_s"] for row in table.values())
    if abs(covered - traced_wall) > max(_SELF_TIME_TOLERANCE * traced_wall, _SELF_TIME_FLOOR_S):
        outcome.problems.append(
            f"layer self times sum to {covered:.4f} s, traced wall is {traced_wall:.4f} s"
        )
    layers: dict[str, float] = {}
    for layer in RUN_LAYERS:
        row = table[layer]
        layers[f"{layer}.calls"] = row["calls"]
        layers[f"{layer}.self_s"] = row["self_s"]
        layers[f"{layer}.share"] = ratio(row["self_s"], traced_wall)
    counters = tracer.counters
    plans = sum(1 for span in tracer.spans if span[0] == "RoutePlanner.plan")
    graph = "TemporalShareabilityGraph."
    setup_seconds, setup_calls = tracer.setup_durations()
    submit_tick = op_seconds(ops, "submit", "tick")
    layers.update(
        {
            "routing.planner.feasible_ratio": ratio(counters["planner.feasible"], plans),
            "routing.planner.calls_per_order": ratio(
                table["routing.planner"]["calls"], orders
            ),
            "routing.planner.mean_group_size": ratio(
                counters["planner.group_members"], counters["planner.feasible"]
            ),
            "core.shareability.insert_self_s": by_name[graph + "insert_order"],
            "core.shareability.expire_self_s": by_name[graph + "expire_edges"],
            "core.shareability.remove_self_s": (
                by_name[graph + "remove_order"] + by_name[graph + "remove_orders"]
            ),
            "core.shareability.expired_edges": counters["shareability.expired_edges"],
            "core.shareability.edges_peak": counters["shareability.edges_peak"],
            "core.pool.size_peak": counters["pool.size_peak"],
            "core.pool.size_mean": ratio(counters["pool.size_sum"], counters["pool.checks"]),
            "core.pool.held_ratio": ratio(counters["pool.held"], counters["pool.decisions"]),
            "core.pool.mean_group_size": ratio(
                counters["pool.group_members"], counters["pool.groups"]
            ),
            "core.strategies.dispatch_ratio": ratio(
                counters["strategies.dispatch"], counters["strategies.decisions"]
            ),
            "simulation.fleet.found_ratio": ratio(
                counters["fleet.found"], counters["fleet.searches"]
            ),
            "simulation.spatial.searches": counters["spatial.searches"],
            "simulation.spatial.candidates_per_search": ratio(
                counters["spatial.candidates"], counters["spatial.searches"]
            ),
            "network.oracle.pairs": oracle_stats.get("queries", 0),
            "network.oracle.hit_rate": oracle_stats.get("hit_rate", 0.0),
            "network.oracle.sssp_runs": oracle_stats.get("sssp_runs", 0),
            "network.oracle.reverse_sssp_runs": oracle_stats.get("reverse_sssp_runs", 0),
            "network.oracle.evictions": oracle_stats.get("evictions", 0),
            "simulation.engine.ops": len(ops),
            "simulation.engine.op_p50_ms": 1000.0 * percentile(submit_tick, 0.50),
            "simulation.engine.op_p99_ms": 1000.0 * percentile(submit_tick, 0.99),
            "simulation.engine.op_max_ms": 1000.0 * max(submit_tick, default=0.0),
            "simulation.engine.submit_p90_ms": 1000.0 * percentile(
                op_seconds(ops, "submit"), 0.90
            ),
            "simulation.engine.tick_p90_ms": 1000.0 * percentile(
                op_seconds(ops, "tick"), 0.90
            ),
            "core.gmm.fit_calls": setup_calls["core.gmm.fit_s"],
            "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
            "trace.spans": len(tracer.spans),
        }
    )
    layers.update({metric: setup_seconds[metric] for metric in SETUP_METRICS})
    return layers, table
