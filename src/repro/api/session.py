"""Reusable execution context: prepare once, run many scenarios.

A :class:`Session` owns everything that is expensive to stand up and
cheap to reuse:

* **networks** — dataset-preset cities and generated grids are built
  once per distinct source signature and shared by every scenario that
  names the same source;
* **oracles** — the configured distance-oracle backend is attached to
  the shared network once and kept while the oracle spec matches, so
  two scenarios on the same network construct the CH hierarchy exactly
  once.  With an ``oracle_cache_dir`` the CH contraction products are
  additionally persisted to disk keyed by a stable graph hash, so even
  a *fresh process* skips preprocessing;
* **workloads** — generation is deterministic per configuration, so
  identical scenario shapes replay the same memoised workload (LRU
  bounded);
* **threshold providers** — the WATTER-expect bootstrap (training
  workload, GMM fit, optional value-network training) is memoised per
  scenario signature.

``Session.run`` returns a structured :class:`RunResult` — metrics,
per-order outcomes, oracle statistics, wall-clock timings and the spec
echo — and accepts a :class:`~repro.simulation.hooks.SimulationHooks`
observer for streaming state out of the engine.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from pathlib import Path
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from ..config import LearningConfig, SimulationConfig
from ..core.strategies import ThresholdProvider
from ..datasets.io import orders_from_csv, workers_from_csv
from ..datasets.synthetic import CityModel, DemandHotspot, Workload
from ..datasets.workloads import DATASETS
from ..durability.checkpoint import (
    CheckpointError,
    Checkpointer,
    LoadedCheckpoint,
    load_checkpoint,
)
from ..exceptions import ConfigurationError
from ..experiments.runner import (
    ALGORITHMS,
    _build_expect_provider,
    make_dispatcher,
)
from ..model.order import OrderOutcome
from ..model.worker import Worker
from ..network.generators import grid_city
from ..network.graph import RoadGraph, RoadNetwork
from ..network.oracle import (
    ORACLE_BACKENDS,
    OracleSpec,
    configure_oracle,
    graph_signature,
)
from ..resilience.cancellation import CancellationToken, RunCancelled
from ..resilience.degradation import DegradationLog
from ..simulation.engine import Simulator
from ..simulation.hooks import SimulationHooks
from ..simulation.metrics import SimulationMetrics
from .spec import ScenarioSpec

#: Workloads kept alive by one session (LRU): a sweep touches a handful
#: of shapes, and regeneration is deterministic anyway.
_WORKLOAD_CACHE_SIZE = 8


@dataclass(frozen=True)
class RunResult:
    """Everything one facade run produced.

    Attributes
    ----------
    spec:
        The *effective* spec that ran (session defaults applied,
        algorithm canonicalised) — the self-describing echo to attach
        to artifacts.
    algorithm:
        Canonical algorithm name.
    metrics:
        The paper's aggregate metrics (includes ``oracle_stats``).
    outcomes:
        Per-order accounting records, in the order they were decided.
    timings:
        Wall-clock breakdown: ``prepare_seconds`` (workload + oracle +
        provider), ``run_seconds`` (the simulation), ``total_seconds``.
    graph_hash:
        Stable content hash of the road network the run used; makes
        results and benchmark artifacts self-describing.
    degradations:
        Fallbacks the run survived (corrupt-cache rebuild, oracle
        backend fallback, dispatch-mode downgrades, ...), each a dict
        with ``site``/``from``/``to``/``reason`` keys.  Empty for a
        clean run.
    """

    spec: ScenarioSpec
    algorithm: str
    metrics: SimulationMetrics
    outcomes: tuple[OrderOutcome, ...]
    timings: Mapping[str, float]
    graph_hash: str
    degradations: tuple[dict[str, str], ...] = ()

    @property
    def service_rate(self) -> float:
        """Convenience accessor mirroring the headline metric."""
        return self.metrics.service_rate

    @property
    def oracle_stats(self) -> Mapping[str, float | str] | None:
        """Distance-oracle counters accumulated during this run.

        A before/after delta of the network's oracle, so a served run's
        delta also counts the answers runs overlapping it on the same
        pooled oracle took.
        """
        return self.metrics.oracle_stats

    def summary(self) -> dict[str, Any]:
        """Flat dictionary convenient for tabular reports and JSON."""
        row: dict[str, Any] = dict(self.metrics.summary_row())
        row["scenario"] = self.spec.describe()
        row["graph_hash"] = self.graph_hash
        return row


class Session:
    """Prepares networks and oracles once, then runs many scenarios.

    Preparation is thread-safe: every memoisation cache and the oracle
    attach sit behind one session lock, so concurrent ``prepare``/
    ``run`` calls (the ``repro.serve`` executor submits them from a
    thread pool) build each network, workload and oracle exactly once.
    The simulations themselves execute outside the lock.  Simultaneous
    runs — and preparations — over one network share its oracle; every
    query reaches it through :class:`~repro.network.graph.RoadNetwork`,
    which takes the oracle's one lock, so they take turns at it.  Each
    concurrent run still needs its own order objects (``repro.serve``
    clones them per run).

    Parameters
    ----------
    oracle_cache_dir:
        Default on-disk oracle-preprocessing cache applied to every
        scenario whose oracle backend persists its preprocessing
        (``ch``) and whose spec does not set its own
        ``oracle.cache_dir``.  With a warm directory, a brand-new
        process constructing the ``ch`` backend loads the persisted
        contraction order instead of re-contracting the graph.
    """

    def __init__(self, *, oracle_cache_dir: str | None = None) -> None:
        self._oracle_cache_dir = oracle_cache_dir
        self._networks: dict[tuple, RoadNetwork] = {}
        self._cities: dict[tuple, CityModel] = {}
        self._workloads: OrderedDict[tuple, Workload] = OrderedDict()
        self._providers: dict[tuple, ThresholdProvider] = {}
        self._graph_hashes: dict[RoadGraph, str] = {}
        # One reentrant lock guards every memoisation dict *and* the
        # oracle attach, so concurrent ``prepare``/``run`` calls (the
        # repro.serve layer submits them from a thread pool) build each
        # network, workload, provider and oracle exactly once — the
        # second caller blocks until the first finished building and
        # then reuses the cached object.  Preparation is serialised;
        # the simulations themselves run outside the lock.
        self._lock = threading.RLock()
        #: How many times a run actually (re)built an oracle — two runs
        #: over one network with the same oracle settings count once
        #: (asserted by the concurrency tests and the serve pool).
        self.oracle_builds = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        spec: ScenarioSpec,
        *,
        hooks: SimulationHooks | None = None,
        workload: Workload | None = None,
        provider: ThresholdProvider | None = None,
        cancellation: CancellationToken | None = None,
        degradations: DegradationLog | None = None,
        resume_from: str | Path | LoadedCheckpoint | None = None,
    ) -> RunResult:
        """Execute one scenario and return its structured result.

        Parameters
        ----------
        spec:
            The scenario to run.
        hooks:
            Optional engine observer (``on_order_arrival`` /
            ``on_periodic_check`` / ``on_assign``).
        workload:
            Escape hatch for custom demand models: run the spec's
            dispatcher and settings over a caller-built workload
            instead of the spec's source.
        provider:
            Pre-built threshold provider for ``WATTER-expect`` (one is
            bootstrapped and memoised automatically when omitted).
        cancellation:
            Caller-owned token checked at every tick boundary; omitted,
            one is created from ``spec.deadline_seconds`` when the spec
            sets a deadline.  Deadline expiry or an explicit ``cancel``
            raises :class:`~repro.resilience.cancellation.RunCancelled`
            whose ``partial`` attribute carries the timings measured so
            far and the degradations recorded up to the cut.
        degradations:
            Caller-owned log continued across :meth:`prepare` and the
            run, so preparation-time fallbacks survive into the result;
            a fresh log is created when omitted.
        resume_from:
            Continue an interrupted run from a checkpoint: a path to a
            checkpoint file written by a
            :class:`~repro.durability.Checkpointer` (or an
            already-loaded checkpoint).  The scenario is prepared as
            usual — same workload, same oracle — then the checkpoint's
            dispatcher and collector take over from its cursor instead
            of a fresh ``make_dispatcher``.  The checkpoint's recorded
            identity (graph hash, algorithm, order count) must match
            the spec's scenario; a mismatch, torn file or CRC failure
            raises :class:`~repro.durability.CheckpointError`.  Final
            metrics are identical to an uninterrupted run (wall-clock
            timings and per-run oracle deltas aside).
        """
        spec = self._effective(spec)
        config = spec.config()
        if cancellation is None and spec.deadline_seconds is not None:
            cancellation = CancellationToken(spec.deadline_seconds)
        if degradations is None:
            degradations = DegradationLog()
        started = time.perf_counter()
        if cancellation is not None:
            # The budget covers preparation too: a spec whose oracle
            # build alone exceeds the deadline must not start simulating.
            cancellation.start()
        custom_workload = workload is not None
        if workload is None:
            workload = self.workload(spec)
        self._attach_oracle(workload, config, degradations=degradations)
        if (
            provider is None
            and resume_from is None
            and spec.algorithm == "WATTER-expect"
        ):
            # A caller-supplied workload must also drive the threshold
            # bootstrap, otherwise the thresholds would be fitted to
            # the spec's source while evaluation runs different demand.
            # (A resumed dispatcher carries its bound provider inside
            # the checkpoint, so the bootstrap is skipped entirely.)
            provider = self.expect_provider(
                spec, workload=workload if custom_workload else None
            )
        graph_hash = self.graph_hash(workload.network)
        resume = self._load_resume(resume_from, spec, workload, graph_hash)
        if resume is not None:
            # The first half's recorded fallbacks travel with the
            # checkpoint; replay them so the finished result reports
            # the whole run's degradations, not just the resumed tail.
            for event in resume.degradations:
                degradations.record(
                    event.get("site", "unknown"),
                    event.get("from", ""),
                    event.get("to", ""),
                    event.get("reason", "recorded before interruption"),
                )
        self._stamp_checkpoint_meta(
            hooks,
            {
                "graph_hash": graph_hash,
                "algorithm": spec.algorithm,
                "total_orders": len(workload.orders),
                "scenario": spec.describe(),
                "spec": spec.to_dict(),
            },
        )
        prepare_seconds = time.perf_counter() - started
        if cancellation is not None:
            self._check_cancelled(
                cancellation, degradations, prepare_seconds, graph_hash
            )
        if hooks is not None:
            start_info: dict[str, Any] = {
                "spec": spec.to_dict(),
                "scenario": spec.describe(),
                "algorithm": spec.algorithm,
                "graph_hash": graph_hash,
            }
            if resume is not None:
                start_info["resumed_from"] = resume.cursor.as_dict()
            hooks.on_run_start(start_info)
        run_started = time.perf_counter()
        dispatcher = (
            resume.dispatcher
            if resume is not None
            else make_dispatcher(spec.algorithm, workload, config, provider)
        )
        try:
            result = Simulator(
                workload,
                dispatcher,
                config,
                hooks=hooks,
                cancellation=cancellation,
                degradations=degradations,
                resume=resume,
            ).run()
        except RunCancelled as exc:
            exc.partial = _partial_snapshot(
                prepare_seconds,
                time.perf_counter() - run_started,
                graph_hash,
                degradations,
            )
            raise
        run_seconds = time.perf_counter() - run_started
        timings = {
            "prepare_seconds": prepare_seconds,
            "run_seconds": run_seconds,
            "total_seconds": prepare_seconds + run_seconds,
        }
        run_result = RunResult(
            spec=spec,
            algorithm=spec.algorithm,
            metrics=result.metrics,
            outcomes=tuple(result.collector.outcomes),
            timings=timings,
            graph_hash=graph_hash,
            degradations=tuple(degradations.as_dicts()),
        )
        if hooks is not None:
            hooks.on_run_end(
                {
                    "spec": spec.to_dict(),
                    "scenario": spec.describe(),
                    "algorithm": spec.algorithm,
                    "graph_hash": graph_hash,
                    "timings": dict(timings),
                    "metrics": run_result.metrics.summary_row(),
                }
            )
        return run_result

    def compare(
        self,
        spec: ScenarioSpec,
        algorithms: Sequence[str] = ALGORITHMS,
        *,
        use_rl: bool | None = None,
        hooks: SimulationHooks | None = None,
        workload: Workload | None = None,
    ) -> list[RunResult]:
        """Run several algorithms over the *same* workload.

        The workload, the warmed oracle and (when ``WATTER-expect`` is
        among the algorithms) the threshold provider are shared, so the
        compared runs differ in dispatching logic alone.
        """
        spec = self._effective(spec)
        if use_rl is not None and use_rl != spec.use_rl:
            spec = spec.with_overrides(use_rl=use_rl)
        runs = [spec.with_overrides(algorithm=algorithm) for algorithm in algorithms]
        provider: ThresholdProvider | None = None
        if any(run.algorithm == "WATTER-expect" for run in runs):
            provider = self.expect_provider(spec, workload=workload)
        return [
            self.run(run, hooks=hooks, workload=workload, provider=provider)
            for run in runs
        ]

    # ------------------------------------------------------------------
    # prepared state
    # ------------------------------------------------------------------
    def network(self, spec: ScenarioSpec) -> RoadNetwork:
        """The (shared) road network the spec's scenarios run on."""
        spec = self._effective(spec)
        return self._network_for(spec, spec.config())

    def workload(self, spec: ScenarioSpec) -> Workload:
        """Generate — or replay from the session cache — the spec's workload."""
        spec = self._effective(spec)
        config = spec.config()
        key = self._workload_key(spec, config)
        with self._lock:
            cached = self._workloads.get(key)
            if cached is not None:
                self._workloads.move_to_end(key)
                return cached
            workload = self._build_workload(spec, config)
            self._workloads[key] = workload
            if len(self._workloads) > _WORKLOAD_CACHE_SIZE:
                self._workloads.popitem(last=False)
            return workload

    def prepare(
        self,
        spec: ScenarioSpec,
        *,
        degradations: DegradationLog | None = None,
    ) -> Workload:
        """Stand the scenario's workload and oracle up without running it.

        ``degradations`` lets the caller capture preparation-time
        fallbacks (corrupt cache rebuilds, CH build failures demoted to
        the lazy oracle); pass the same log to :meth:`run` so those
        events surface in the :class:`RunResult`.  The network's graph
        hash is memoised here too, so a later :meth:`run` on the same
        graph only reads it.
        """
        spec = self._effective(spec)
        config = spec.config()
        workload = self.workload(spec)
        self._attach_oracle(workload, config, degradations=degradations)
        self.graph_hash(workload.network)
        return workload

    def expect_provider(
        self, spec: ScenarioSpec, workload: Workload | None = None
    ) -> ThresholdProvider:
        """The memoised WATTER-expect threshold provider for this scenario.

        Bootstrapped by
        :func:`~repro.experiments.runner._build_expect_provider` — a
        training workload with a shifted seed and half the orders, a
        WATTER-timeout bootstrap run, the Section V GMM fit, optionally
        the Section VI value network — sourcing the training workload
        from whatever the spec describes (dataset preset, grid city or
        CSV replay).  Networks are keyed by seed, so for a dataset
        preset or a jittered grid the shifted seed also draws another
        road network: the GMM is fitted on a different graph than the
        one the run is evaluated on (CDC seed 7 evaluates on graph
        ``5216e16f...`` and trains on ``bfe56b2b...``).  ``workload`` substitutes for the spec's
        source when the caller runs a custom workload — those providers
        are *not* memoised (the session cannot tell two caller-built
        workloads apart by spec alone, and a provider fitted to one
        demand model must never silently serve another).

        Replayed logs and caller-built workloads have no shifted-seed
        sibling to train on, so their bootstrap runs over a *thinned
        subsample* (every other order, capped at the derived training
        size) instead of the exact evaluation set — reducing, though
        not eliminating, the train/test overlap the synthetic path
        avoids entirely.
        """
        spec = self._effective(spec)
        config = spec.config()
        if workload is not None:
            return _build_expect_provider(
                lambda training_config: _training_subsample(
                    workload, training_config
                ),
                config,
                _learning_config(spec),
            )
        key = self._provider_key(spec, config)
        with self._lock:
            cached = self._providers.get(key)
            if cached is not None:
                return cached
            return self._build_provider(spec, config, key)

    def _build_provider(
        self, spec: ScenarioSpec, config: SimulationConfig, key: tuple
    ) -> ThresholdProvider:
        """Bootstrap + memoise a provider (caller holds the session lock)."""

        def workload_for(training_config: SimulationConfig) -> Workload:
            training_spec = spec.with_overrides(
                num_orders=training_config.num_orders,
                seed=training_config.seed,
            )
            training = self.workload(training_spec)
            if spec.workload == "csv":
                # The overrides cannot change a replayed log; thin it
                # instead of training on the evaluation orders.
                return _training_subsample(training, training_config)
            return training

        provider = _build_expect_provider(
            workload_for, config, _learning_config(spec)
        )
        self._providers[key] = provider
        return provider

    def graph_hash(self, network: RoadNetwork) -> str:
        """Stable content hash of a network's graph (memoised per graph).

        Keyed by the graph object, so the per-run views a served run
        wraps around a pooled network share its entry.  :meth:`prepare`
        fills it; a run over a caller-built network hashes on a miss.
        """
        with self._lock:
            cached = self._graph_hashes.get(network.graph)
            if cached is None:
                cached = graph_signature(network.graph)
                self._graph_hashes[network.graph] = cached
            return cached

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _effective(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Apply session-level defaults (today: the oracle cache dir)."""
        if not self._oracle_cache_dir:
            return spec
        oracle = spec.oracle or OracleSpec()
        _, options = ORACLE_BACKENDS[oracle.backend]
        if oracle.cache_dir is not None or "cache_dir" not in options:
            return spec
        return spec.with_overrides(
            oracle=replace(oracle, cache_dir=self._oracle_cache_dir)
        )

    def _attach_oracle(
        self,
        workload: Workload,
        config: SimulationConfig,
        *,
        degradations: DegradationLog | None = None,
    ) -> None:
        with self._lock:
            before = workload.network.oracle
            oracle = configure_oracle(
                workload.network, config, degradations=degradations
            )
            if oracle is not before:
                self.oracle_builds += 1

    @staticmethod
    def _load_resume(
        resume_from: "str | Path | LoadedCheckpoint | None",
        spec: ScenarioSpec,
        workload: Workload,
        graph_hash: str,
    ) -> LoadedCheckpoint | None:
        """Load (if a path) and validate a resume checkpoint for this run.

        Identity checks are what keep a resume honest: the checkpoint's
        recorded graph hash, algorithm and order count must match the
        scenario being resumed, and its cursor must lie inside the
        workload.  Spec fields that do not shape the replay (deadlines,
        cache directories) may differ freely.
        """
        if resume_from is None:
            return None
        loaded = (
            resume_from
            if isinstance(resume_from, LoadedCheckpoint)
            else load_checkpoint(resume_from, network=workload.network)
        )
        meta = loaded.meta
        recorded_hash = meta.get("graph_hash")
        if recorded_hash is not None and recorded_hash != graph_hash:
            raise CheckpointError(
                f"checkpoint was taken on graph {recorded_hash[:12]}… but this "
                f"scenario runs on {graph_hash[:12]}… — resume the spec that "
                f"produced it"
            )
        recorded_algorithm = meta.get("algorithm")
        if (
            recorded_algorithm is not None
            and str(recorded_algorithm).lower() != spec.algorithm.lower()
        ):
            raise CheckpointError(
                f"checkpoint holds {recorded_algorithm!r} state but the spec "
                f"asks for {spec.algorithm!r}"
            )
        recorded_orders = meta.get("total_orders")
        if recorded_orders is not None and recorded_orders != len(workload.orders):
            raise CheckpointError(
                f"checkpoint was taken over {recorded_orders} orders but the "
                f"prepared workload has {len(workload.orders)}"
            )
        if loaded.cursor.order_index > len(workload.orders):
            raise CheckpointError(
                f"checkpoint cursor points past the workload "
                f"({loaded.cursor.order_index} > {len(workload.orders)} orders)"
            )
        return loaded

    @staticmethod
    def _stamp_checkpoint_meta(
        hooks: SimulationHooks | None, meta: Mapping[str, Any]
    ) -> None:
        """Give every attached :class:`Checkpointer` the run's identity.

        Callers attach a bare ``Checkpointer(path)``; the session knows
        the prepared run's graph hash and order count, so it stamps
        them here — that is what :meth:`_load_resume` validates against
        later.  Caller-set meta keys win.
        """
        if hooks is None:
            return
        stack: list[SimulationHooks] = [hooks]
        while stack:
            hook = stack.pop()
            if isinstance(hook, Checkpointer):
                hook.meta = {**meta, **hook.meta}
            children = getattr(hook, "children", None)
            if children:
                stack.extend(children)

    @staticmethod
    def _check_cancelled(
        cancellation: CancellationToken,
        degradations: DegradationLog,
        prepare_seconds: float,
        graph_hash: str,
    ) -> None:
        """Post-preparation checkpoint — enriches the failure with a partial."""
        try:
            cancellation.check()
        except RunCancelled as exc:
            exc.partial = _partial_snapshot(
                prepare_seconds, 0.0, graph_hash, degradations
            )
            raise

    def _network_key(self, spec: ScenarioSpec, config: SimulationConfig) -> tuple:
        if spec.network == "dataset":
            return ("dataset", spec.dataset, config.seed)
        return (
            "grid",
            spec.grid_rows,
            spec.grid_cols,
            spec.grid_edge_travel_time,
            spec.grid_jitter,
            config.seed,
        )

    def _workload_key(self, spec: ScenarioSpec, config: SimulationConfig) -> tuple:
        return (
            self._network_key(spec, config),
            spec.workload,
            spec.orders_csv,
            spec.workers_csv,
            config,
        )

    def _provider_key(self, spec: ScenarioSpec, config: SimulationConfig) -> tuple:
        return (*self._workload_key(spec, config), spec.use_rl, spec.loss_weight)

    def _network_for(
        self, spec: ScenarioSpec, config: SimulationConfig
    ) -> RoadNetwork:
        key = self._network_key(spec, config)
        with self._lock:
            network = self._networks.get(key)
            if network is not None:
                return network
            if spec.network == "dataset":
                build_city, _, _ = DATASETS[spec.dataset]
                city = build_city(seed=config.seed)
                self._cities[key] = city
                network = city.network
            else:
                network = grid_city(
                    rows=spec.grid_rows,
                    cols=spec.grid_cols,
                    edge_travel_time=spec.grid_edge_travel_time,
                    jitter=spec.grid_jitter,
                    seed=config.seed,
                )
            self._networks[key] = network
            return network

    def _city_for(self, spec: ScenarioSpec, config: SimulationConfig) -> CityModel:
        key = self._network_key(spec, config)
        with self._lock:
            network = self._network_for(spec, config)
            city = self._cities.get(key)
            if city is None:
                city = _grid_city_model(spec, network)
                self._cities[key] = city
            return city

    def _build_workload(
        self, spec: ScenarioSpec, config: SimulationConfig
    ) -> Workload:
        if spec.workload == "synthetic":
            return self._city_for(spec, config).generate(config)
        return self._csv_workload(spec, config)

    def _csv_workload(
        self, spec: ScenarioSpec, config: SimulationConfig
    ) -> Workload:
        network = self._network_for(spec, config)
        assert spec.orders_csv is not None  # enforced by the spec
        orders = orders_from_csv(spec.orders_csv)
        for order in orders:
            if order.pickup not in network or order.dropoff not in network:
                raise ConfigurationError(
                    f"replayed order {order.order_id} references node "
                    f"{order.pickup if order.pickup not in network else order.dropoff}"
                    f" absent from the scenario's {spec.network!r} network — "
                    f"the spec must describe the network the log was recorded on"
                )
        if spec.workers_csv is not None:
            workers = workers_from_csv(spec.workers_csv)
            for worker in workers:
                if worker.location not in network:
                    raise ConfigurationError(
                        f"replayed worker {worker.worker_id} parks on node "
                        f"{worker.location} absent from the scenario's network"
                    )
        else:
            # No fleet log: sample start locations from the observed
            # pickups, the same choice the synthetic generator makes.
            rng = random.Random(config.seed)
            pickups = [order.pickup for order in orders]
            workers = [
                Worker(
                    location=rng.choice(pickups),
                    capacity=rng.randint(2, config.max_capacity),
                )
                for _ in range(config.num_workers)
            ]
        return Workload(
            orders=orders,
            workers=workers,
            network=network,
            name=spec.name or "csv-replay",
        )


def _learning_config(spec: ScenarioSpec) -> LearningConfig | None:
    """The value-network training ``spec`` asks for (``None``: GMM only)."""
    if not spec.use_rl:
        return None
    if spec.loss_weight is None:
        return LearningConfig()
    return LearningConfig(loss_weight=spec.loss_weight)


def _partial_snapshot(
    prepare_seconds: float,
    run_seconds: float,
    graph_hash: str,
    degradations: DegradationLog,
) -> dict[str, Any]:
    """What a cancelled run can still report: timings and degradations."""
    return {
        "timings": {
            "prepare_seconds": prepare_seconds,
            "run_seconds": run_seconds,
            "total_seconds": prepare_seconds + run_seconds,
        },
        "graph_hash": graph_hash,
        "degradations": degradations.as_dicts(),
    }


def _training_subsample(
    workload: Workload, training_config: SimulationConfig
) -> Workload:
    """Thinned copy of a fixed workload for threshold training.

    Every other order, capped at the derived training size — the
    closest available stand-in for the synthetic path's disjoint
    shifted-seed training workload when the orders are a replayed log
    that cannot be regenerated.
    """
    orders = list(workload.orders[::2][: max(training_config.num_orders, 1)])
    if not orders:
        orders = list(workload.orders)
    return Workload(
        orders=orders,
        workers=list(workload.workers),
        network=workload.network,
        name=f"{workload.name}-train",
    )


def _grid_city_model(spec: ScenarioSpec, network: RoadNetwork) -> CityModel:
    """Default demand model for generated grid networks.

    A centre-weighted hotspot mix over the lattice's bounding box:
    demand concentrates downtown with two satellite clusters, plus a
    uniform background — enough spatial clustering to make pooling
    meaningful without requiring the user to hand-build a
    :class:`CityModel` for every quick grid experiment.
    """
    min_x, min_y, max_x, max_y = network.bounding_box()
    cx, cy = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
    spread = max(max_x - min_x, max_y - min_y, 1.0) / 6.0
    quarter_x, quarter_y = (max_x - min_x) / 4.0, (max_y - min_y) / 4.0
    pickup_hotspots = [
        DemandHotspot(x=cx, y=cy, spread=spread, weight=2.0),
        DemandHotspot(x=cx - quarter_x, y=cy + quarter_y, spread=spread, weight=1.0),
        DemandHotspot(x=cx + quarter_x, y=cy - quarter_y, spread=spread, weight=1.0),
    ]
    dropoff_hotspots = [
        DemandHotspot(x=cx, y=cy, spread=1.5 * spread, weight=1.5),
        DemandHotspot(x=cx + quarter_x, y=cy + quarter_y, spread=spread, weight=1.0),
    ]
    return CityModel(
        name=spec.name or f"GRID-{spec.grid_rows}x{spec.grid_cols}",
        network=network,
        pickup_hotspots=pickup_hotspots,
        dropoff_hotspots=dropoff_hotspots,
        uniform_fraction=0.3,
        min_trip_time=2.0 * spec.grid_edge_travel_time,
    )
