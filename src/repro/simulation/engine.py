"""The simulation engine that drives any dispatcher over a workload.

The engine replays the workload's orders in release order, interleaving
periodic checks every ``check_period`` seconds (the asynchronous check
of Algorithm 1), feeds everything to the dispatcher, collects outcomes
into the metrics collector and measures the dispatcher's wall-clock
running time (the paper's fourth metric).

The engine is deliberately algorithm-agnostic: WATTER, GDP, GAS and the
non-sharing baseline all run under exactly the same loop, so measured
differences come from the dispatching logic alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..config import SimulationConfig
from ..datasets.synthetic import Workload
from ..durability.checkpoint import LoadedCheckpoint, RunCheckpoint, RunCursor
from ..resilience.cancellation import CancellationToken, RunCancelled
from .dispatcher import Dispatcher, DispatchResult
from .hooks import SimulationHooks
from .metrics import MetricsCollector, SimulationMetrics


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished run produced."""

    metrics: SimulationMetrics
    collector: MetricsCollector
    config: SimulationConfig

    @property
    def service_rate(self) -> float:
        """Convenience accessor mirroring the headline metric."""
        return self.metrics.service_rate


class Simulator:
    """Replays a workload against a dispatcher.

    Parameters
    ----------
    workload:
        Orders, workers and the road network of one simulated period.
        The run asks the network's own oracle, fixed when the network
        was built (``RoadNetwork(graph, create_oracle("ch", graph))``
        for a non-default backend); the engine never changes it.
    dispatcher:
        The algorithm under test.
    config:
        Simulation parameters (check period, metric weights, ...).
    hooks:
        Optional :class:`SimulationHooks` observer notified of order
        arrivals, periodic checks and final assignments.  Hook calls
        run outside the algorithm timer, so a slow observer never
        distorts the Running Time metric.
    cancellation:
        Optional :class:`~repro.resilience.cancellation.
        CancellationToken` checked cooperatively at every tick boundary
        and before every order submission; a cancelled token (explicit
        or deadline expiry) raises
        :class:`~repro.resilience.cancellation.RunCancelled`.
    resume:
        Optional :class:`~repro.durability.checkpoint.LoadedCheckpoint`
        to continue from.  The caller passes the checkpoint's restored
        dispatcher as ``dispatcher``; the engine adopts the restored
        metrics collector and re-enters the replay loop at the
        checkpoint's cursor.  The loop is deterministic after provider
        bootstrap, so the finished run's metrics match an uninterrupted
        run exactly (wall-clock ``running_time`` and per-run oracle
        deltas aside).
    """

    def __init__(
        self,
        workload: Workload,
        dispatcher: Dispatcher,
        config: SimulationConfig,
        hooks: SimulationHooks | None = None,
        *,
        cancellation: CancellationToken | None = None,
        resume: LoadedCheckpoint | None = None,
    ) -> None:
        self._workload = workload
        self._dispatcher = dispatcher
        self._config = config
        self._hooks = hooks
        self._cancellation = cancellation
        self._resume = resume
        self._collector = (
            resume.collector
            if resume is not None
            else MetricsCollector(
                weights=config.weights, penalty_factor=config.penalty_factor
            )
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Replay the whole workload and return the aggregated metrics."""
        if self._cancellation is not None:
            # The deadline clock starts when the run starts executing —
            # queue time never eats a run's budget (idempotent: the
            # serving layer may have started it already).
            self._cancellation.start()
        check_period = self._config.check_period
        orders = self._workload.orders
        # The cursor is the loop position; a checkpoint freezes it at a
        # tick boundary, a resume re-enters the loop at it.  The loop
        # itself is deterministic in the cursor + dispatcher state, so
        # both halves of an interrupted run replay the same decisions
        # an uninterrupted run makes.
        cursor = (
            self._resume.cursor
            if self._resume is not None
            else RunCursor(
                order_index=0, next_check=check_period, ticks=0, algorithm_time=0.0
            )
        )
        order_index = cursor.order_index
        next_check = cursor.next_check
        ticks = cursor.ticks
        algorithm_time = cursor.algorithm_time
        interval = (
            self._hooks.checkpoint_interval() if self._hooks is not None else None
        )
        oracle_before = self._oracle_snapshot()

        def offer_checkpoint(forced: bool = False) -> None:
            if interval is None or self._hooks is None:
                return
            if not forced and ticks % interval != 0:
                return
            self._hooks.on_checkpoint(
                RunCheckpoint(
                    cursor=RunCursor(
                        order_index=order_index,
                        next_check=next_check,
                        ticks=ticks,
                        algorithm_time=algorithm_time,
                    ),
                    dispatcher=self._dispatcher,
                    collector=self._collector,
                    network=self._workload.network,
                    forced=forced,
                )
            )

        try:
            while order_index < len(orders):
                order = orders[order_index]
                release = order.release_time
                # Run any periodic checks falling before this release.
                while next_check <= release:
                    self._check_cancelled()
                    algorithm_time += self._timed_tick(next_check)
                    next_check += check_period
                    ticks += 1
                    offer_checkpoint()
                self._check_cancelled()
                if self._hooks is not None:
                    self._hooks.on_order_arrival(order, release)
                started = time.perf_counter()
                result = self._dispatcher.submit(order, release)
                algorithm_time += time.perf_counter() - started
                self._record(result)
                order_index += 1
            # Drain the remaining checks up to the end of the horizon plus
            # the longest possible wait so pooled orders get their final
            # decisions.  (Recomputed from the workload, so a resumed run
            # drains to the same instant.)
            end_time = self._end_of_activity()
            while next_check <= end_time:
                self._check_cancelled()
                algorithm_time += self._timed_tick(next_check)
                next_check += check_period
                ticks += 1
                offer_checkpoint()
        except RunCancelled:
            # Leave one final resumable snapshot behind — this is what
            # turns a drain-deadline cancellation into an *interruption*
            # a restarted process can continue from.
            offer_checkpoint(forced=True)
            raise
        started = time.perf_counter()
        final = self._dispatcher.flush(end_time)
        algorithm_time += time.perf_counter() - started
        self._record(final)
        metrics = self._collector.finalize(
            algorithm=self._dispatcher.describe(),
            dataset=self._workload.name,
            worker_travel_time=self._worker_travel_time(),
            running_time_total=algorithm_time,
            oracle_stats=self._oracle_delta(oracle_before),
        )
        return SimulationResult(
            metrics=metrics, collector=self._collector, config=self._config
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_cancelled(self) -> None:
        """The cooperative cancellation checkpoint (tick boundaries)."""
        if self._cancellation is not None:
            self._cancellation.check()

    def _timed_tick(self, now: float) -> float:
        started = time.perf_counter()
        result = self._dispatcher.tick(now)
        elapsed = time.perf_counter() - started
        if self._hooks is not None:
            self._hooks.on_periodic_check(now)
        self._record(result)
        return elapsed

    def _record(self, result: DispatchResult) -> None:
        for served in result.served:
            self._collector.record_served(served)
            if self._hooks is not None:
                self._hooks.on_assign(served)
        for order in result.rejected:
            self._collector.record_rejected(order)

    def _end_of_activity(self) -> float:
        if not self._workload.orders:
            return self._config.horizon
        last_release = self._workload.orders[-1].release_time
        longest_wait = max(
            (order.max_response_time for order in self._workload.orders), default=0.0
        )
        return max(self._config.horizon, last_release + longest_wait + self._config.check_period)

    def _worker_travel_time(self) -> float:
        fleet = getattr(self._dispatcher, "fleet", None)
        if fleet is None:
            return 0.0
        return fleet.total_travel_time

    def _oracle_snapshot(self):
        stats_fn = getattr(self._workload.network, "oracle_stats", None)
        return stats_fn() if callable(stats_fn) else None

    def _oracle_delta(self, before):
        """Per-run oracle counters (caches persist across runs on one network)."""
        after = self._oracle_snapshot()
        if before is None or after is None:
            return None
        return (after - before).as_dict()
