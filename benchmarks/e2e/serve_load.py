"""Load generator of the served workload (``serve_grid8_mixed``).

Closed loop: ``SERVED_CLIENTS`` client threads each post the next spec
of a shared schedule to ``POST /runs?wait=1`` as soon as their previous
request completed, against ``repro serve --max-runs 2`` running as a
child process.  The server answers ``Connection: close``, so every
request opens its own connection.  One cycle is a fresh server (spawn
plus a warm-up pass over every spec: the set-up) and one timed round of
the seeded schedule; after the warm-up pass every pooled session and
oracle is built, so the rounds of all cycles see the same server state.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.api import ScenarioSpec, Session
from repro.serve.protocol import parse_submission

from .measure import (
    OUT_DIR,
    Outcome,
    calibrate,
    fastest,
    host_metrics,
    layer_metrics,
    peak_rss_mb,
    percentile,
    quiet_profile,
    ratio,
    timed_dispatch,
)
from .trace import RUN, Tracer, format_layer_table
from .workloads import (
    SERVED,
    SERVED_CLIENTS,
    SERVED_MAX_RUNS,
    request_schedule,
    served_specs,
)

ROOT = Path(__file__).resolve().parents[2]
_REQUEST_TIMEOUT = 120.0
#: The traced invocation keeps room (in server cycles) for tracing a
#: direct run of every spec.
_TRACED_CYCLE_COST = 0.5
#: Summary fields a served run must share with a direct run of its spec.
_COMPARED = ("orders", "served", "extra_time", "unified_cost", "service_rate")


@dataclass
class Request:
    index: int
    started: float
    seconds: float
    status: int
    body: dict[str, Any]

    @property
    def completed(self) -> bool:
        return self.status == 200 and self.body.get("status") == "completed"


@dataclass
class Cycle:
    """One server's life: its set-up, then the timed round it answered."""

    setup_s: float
    spawn_s: float
    total_s: float
    warmup: list[Request]
    round: list[Request]
    round_wall_s: float
    server_metrics: dict[str, Any]


class Server:
    """``repro serve`` as a child process, pinned to ``cpu`` if one is given."""

    def __init__(self, cpu: int | None) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.port = 0
        started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--max-runs", str(SERVED_MAX_RUNS)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            if cpu is not None:
                os.sched_setaffinity(self.process.pid, {cpu})
            assert self.process.stdout is not None
            banner = self.process.stdout.readline()
            match = re.search(r":(\d+)\s*$", banner)
            if match is None:
                raise RuntimeError(f"server did not announce a port: {banner!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.close()
            raise
        self.spawn_s = perf_counter() - started

    def call(self, method: str, path: str, document: Any = None) -> tuple[int, Any]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=_REQUEST_TIMEOUT
        )
        try:
            body = None if document is None else json.dumps(document)
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def post_run(self, index: int, document: dict[str, Any]) -> Request:
        started = perf_counter()
        try:
            status, body = self.call("POST", "/runs?wait=1", document)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, body = 0, {"error": repr(exc)}
        return Request(index, started, perf_counter() - started, status, body)

    def close(self) -> None:
        """Ask the server to stop, then make sure it has."""
        if self.process.poll() is None:
            stopped = False
            if self.port:
                try:
                    self.call("POST", "/shutdown")
                    self.process.wait(timeout=20)
                    stopped = True
                except (OSError, http.client.HTTPException, ValueError,
                        subprocess.TimeoutExpired):
                    pass
            if not stopped:
                self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def drive(
    server: Server, specs: list[dict[str, Any]], schedule: list[int]
) -> tuple[float, list[Request]]:
    """Closed loop over ``schedule``; returns the wall and the requests by slot."""
    queue = collections.deque(enumerate(schedule))
    done: dict[int, Request] = {}

    def client() -> None:
        while True:
            try:
                slot, index = queue.popleft()
            except IndexError:
                return
            done[slot] = server.post_run(index, specs[index])

    threads = [threading.Thread(target=client) for _ in range(SERVED_CLIENTS)]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return perf_counter() - started, [done[slot] for slot in range(len(schedule))]


def run_cycle(
    specs: list[dict[str, Any]], schedule: list[int], cpu: int | None
) -> Cycle:
    """Fresh server, warm-up pass over every spec (the set-up), one timed round."""
    started = perf_counter()
    server = Server(cpu)
    try:
        _, warmup = drive(server, specs, list(range(len(specs))))
        setup_s = perf_counter() - started
        wall_s, requests = drive(server, specs, schedule)
        _, server_metrics = server.call("GET", "/metrics")
    finally:
        server.close()
    return Cycle(
        setup_s, server.spawn_s, perf_counter() - started, warmup, requests, wall_s,
        server_metrics,
    )


def _orders(requests: list[Request]) -> int:
    return sum(
        request.body["result"]["metrics"]["orders"]
        for request in requests
        if request.completed
    )


def direct_runs(
    specs: list[dict[str, Any]], tracer: Tracer | None = None
) -> tuple[list[Any], list[tuple[str, float]], float]:
    """Each spec once through one in-process ``Session``.

    Returns the results, the dispatcher op samples and the summed run
    wall.  One session serves all specs, as the server's pool does.
    """
    session = Session()
    results = []
    wall = 0.0
    with timed_dispatch() as ops:
        for document in specs:
            spec = ScenarioSpec.from_dict(document)
            session.prepare(spec)
            if spec.algorithm.lower() == "watter-expect":
                session.expect_provider(spec)
            if tracer is not None:
                tracer.phase = RUN
            started = perf_counter()
            try:
                results.append(session.run(spec))
            finally:
                wall += perf_counter() - started
                if tracer is not None:
                    tracer.phase = None
    return results, ops, wall


def _close(served: float, direct: float) -> bool:
    return abs(served - direct) <= 1e-9 * max(abs(served), abs(direct), 1.0)


def measure_served(seed: int, seconds: float, scale: float, trace: bool) -> Outcome:
    """Measure the served workload for ``seconds`` seconds, direct runs included."""
    window_started = perf_counter()
    outcome = Outcome()
    specs = served_specs(scale)
    schedule = request_schedule(specs, seed, scale)
    calibration_ms = calibrate()
    cpus = sorted(os.sched_getaffinity(0))
    cycles: list[Cycle] = []
    answered: list[Request] = []
    reserve = _TRACED_CYCLE_COST if trace else 0.0
    try:
        # Each spec once in this process, for the served-equals-direct
        # check; done first so that the window pays for it.
        direct, ops, direct_wall = direct_runs(specs)
        while True:
            # The server on one core and the clients on another when the
            # box has two, and the cores swapped from cycle to cycle: the
            # host slows one core at a time as often as both.
            server_cpu = None
            if len(cpus) >= 2:
                server_cpu = cpus[len(cycles) % len(cpus)]
                os.sched_setaffinity(0, {cpus[(len(cycles) + 1) % len(cpus)]})
            current = run_cycle(specs, schedule, server_cpu)
            cycles.append(current)
            answered += current.warmup + current.round
            if not all(request.completed for request in answered):
                break
            longest = max(each.total_s for each in cycles)
            if perf_counter() - window_started + longest * (1.0 + reserve) > seconds:
                break
        outcome.attempted = len(answered)
        for request in answered:
            if not request.completed:
                outcome.failed += 1
                outcome.problems.append(
                    f"spec {request.index}: HTTP {request.status} {request.body}"
                )
        if outcome.failed:
            return outcome
    except Exception:  # noqa: BLE001 - a failed operation is a result, not a crash
        outcome.failed += 1
        outcome.attempted += 1
        outcome.problems.append(traceback.format_exc())
        return outcome
    finally:
        os.sched_setaffinity(0, cpus)

    summaries = [result.metrics.summary_row() for result in direct]
    for request in answered:
        served = request.body["result"]["metrics"]
        for key in _COMPARED:
            if not _close(served[key], summaries[request.index][key]):
                outcome.problems.append(
                    f"spec {request.index}: served {key}={served[key]!r}, "
                    f"direct {summaries[request.index][key]!r}"
                )

    # Every round sends the same schedule, so slot j is the same request
    # each time: its fastest latency is the one no burst hit, and two
    # always-busy clients finish the round in half the summed latency.
    latencies = quiet_profile(
        [[request.seconds for request in current.round] for current in cycles]
    )
    quiet_wall_s = sum(latencies) / SERVED_CLIENTS
    median_wall_s = statistics.median(current.round_wall_s for current in cycles)
    total_orders = sum(row["orders"] for row in summaries)
    outcome.metrics = {
        "setup_s": statistics.median(fastest([each.setup_s for each in cycles])),
        "orders_per_s": _orders(cycles[0].round) / quiet_wall_s,
        "op_p90_ms": 1000.0 * percentile(latencies, 0.90),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "service_rate": sum(row["served"] for row in summaries) / total_orders,
        "unified_cost": sum(row["unified_cost"] for row in summaries),
        "extra_time_s": sum(row["extra_time"] for row in summaries) / total_orders,
    }
    outcome.notes.append(
        f"{len(cycles)} servers, each one round of {len(schedule)} requests by "
        f"{SERVED_CLIENTS} clients; "
        f"round wall {quiet_wall_s:.3f} s quiet, {median_wall_s:.3f} s median"
    )
    if trace:
        try:
            outcome.layers = _traced_layers(
                specs, seed, cycles[0], ops, direct_wall, outcome
            )
        except Exception:  # noqa: BLE001
            outcome.failed += 1
            outcome.problems.append(traceback.format_exc())
            return outcome
        outcome.layers.update(
            host_metrics(calibration_ms, median_wall_s, quiet_wall_s, len(cycles))
        )
    return outcome


def _traced_layers(
    specs: list[dict[str, Any]],
    seed: int,
    current: Cycle,
    ops: list[tuple[str, float]],
    direct_wall: float,
    outcome: Outcome,
) -> dict[str, float]:
    """Per-layer metrics: the direct runs of the specs traced, plus ``serve.*``.

    The server is another process, so its layers are read from its
    ``/metrics`` document, its run records and the client clocks; the
    run-side layers come from tracing a direct run of every spec.
    """
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, traced_wall = direct_runs(specs, tracer)
    finally:
        tracer.uninstall()
    oracle_stats: dict[str, float] = collections.defaultdict(float)
    for result in traced:
        for key, value in (result.oracle_stats or {}).items():
            if isinstance(value, (int, float)) and key != "hit_rate":
                oracle_stats[key] += value
    answered = oracle_stats["cache_hits"] + oracle_stats["cache_misses"]
    oracle_stats["hit_rate"] = oracle_stats["cache_hits"] / answered if answered else 0.0
    layers, table = layer_metrics(
        tracer,
        traced_wall=traced_wall,
        untraced_wall=direct_wall,
        orders=sum(len(result.outcomes) for result in traced),
        oracle_stats=oracle_stats,
        ops=ops,
        outcome=outcome,
    )
    print(f"-- layer table: {SERVED} (direct runs of its specs, traced {traced_wall:.3f} s)")
    print(format_layer_table(table, traced_wall))

    requests = current.round
    direct_seconds = [result.timings["run_seconds"] for result in traced]
    parse_started = perf_counter()
    for document in specs:
        parse_submission(document)
    parse_ms = 1000.0 * (perf_counter() - parse_started) / len(specs)
    pool = current.server_metrics["pool"]
    batcher = current.server_metrics["batcher"]

    layers.update(
        {
            "serve.server.spawn_s": current.spawn_s,
            "serve.server.http_overhead_ms": 1000.0 * statistics.mean(
                request.seconds - request.body["latency_seconds"] for request in requests
            ),
            "serve.service.queue_wait_ms": 1000.0 * statistics.mean(
                request.body["started_at"] - request.body["submitted_at"]
                for request in requests
            ),
            "serve.service.prepare_s": sum(
                request.body["result"]["timings"]["prepare_seconds"] for request in requests
            ),
            "serve.service.run_s": sum(
                request.body["result"]["timings"]["run_seconds"] for request in requests
            ),
            "serve.service.overhead_ratio": ratio(
                sum(request.seconds for request in requests),
                sum(direct_seconds[request.index] for request in requests),
            ),
            "serve.pool.hits": pool["hits"],
            "serve.pool.misses": pool["misses"],
            "serve.pool.oracle_builds": pool["oracle_builds"],
            "serve.batcher.requests": batcher.get("requests", 0),
            "serve.batcher.batches": batcher.get("batches", 0),
            "serve.batcher.coalesced_ratio": ratio(
                batcher.get("coalesced_requests", 0), batcher.get("requests", 0)
            ),
            "serve.batcher.overcompute_ratio": ratio(
                batcher.get("pairs_computed", 0), batcher.get("pairs_requested", 0)
            ),
            "serve.batcher.serial_queries": batcher.get("serial_queries", 0),
            "serve.protocol.parse_ms": parse_ms,
        }
    )
    first = min(request.started for request in requests)
    tracer.write(
        OUT_DIR / f"trace-{SERVED}.json",
        {
            "workload": SERVED,
            "seed": seed,
            "traced_wall_s": traced_wall,
            "layers": table,
            "request_fields": ["op_id", "spec", "start", "end", "queue_wait_s", "run_s"],
            "requests": [
                [
                    op_id,
                    request.index,
                    request.started - first,
                    request.started - first + request.seconds,
                    request.body["started_at"] - request.body["submitted_at"],
                    request.body["finished_at"] - request.body["started_at"],
                ]
                for op_id, request in enumerate(requests, start=1)
            ],
        },
    )
    return layers
