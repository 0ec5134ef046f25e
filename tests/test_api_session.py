"""Tests for the Session facade: legacy equivalence, oracle reuse and
persistence, event hooks and CSV replay."""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    ALGORITHMS,
    ScenarioSpec,
    Session,
    SimulationHooks,
    orders_to_csv,
    workers_to_csv,
)
from repro.datasets.workloads import build_workload
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.sweeps import run_sweep
from repro.experiments.runner import DISPATCHERS, make_dispatcher
from repro.network.oracle import ORACLE_BACKENDS, create_oracle
from repro.network.oracle.cache import (
    ch_cache_path,
    graph_signature,
    load_ch_preprocessing,
)
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.simulation.engine import Simulator


def _small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        dataset="CDC",
        num_orders=24,
        num_workers=6,
        horizon=900.0,
        seed=3,
        algorithm="WATTER-timeout",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _strip_ids(outcomes) -> list:
    return [
        dataclasses.replace(outcome, order_id=0, worker_id=None)
        for outcome in outcomes
    ]


def _deterministic(metrics) -> dict:
    """Metric fields that must agree between execution paths.

    Wall-clock timings differ between any two runs and the oracle
    counters depend on cache warmth; everything decision-derived must
    be identical.
    """
    data = dataclasses.asdict(metrics)
    for key in ("running_time_total", "running_time_per_order", "oracle_stats"):
        data.pop(key)
    return data


class TestLegacyEquivalence:
    """The ISSUE's acceptance bar: legacy path == facade path, on every
    backend."""

    @pytest.mark.parametrize("backend", sorted(ORACLE_BACKENDS))
    def test_run_on_workload_matches_session_run(self, backend):
        spec = _small_spec(oracle={"backend": backend})
        config = spec.config()
        drawn = build_workload("CDC", config)
        graph = drawn.network.graph
        workload = dataclasses.replace(
            drawn, network=RoadNetwork(graph, create_oracle(backend, graph))
        )
        legacy = Simulator(
            workload, make_dispatcher("WATTER-timeout", workload, config), config
        ).run()
        facade = Session().run(spec)
        assert _deterministic(facade.metrics) == _deterministic(legacy.metrics)
        # The per-order accounting agrees too, not just the aggregates.
        # Order/worker ids are process-global counters, so two
        # separately generated (but identical) workloads shift them by
        # a constant; everything decision-derived must match exactly.
        assert _strip_ids(facade.outcomes) == _strip_ids(legacy.collector.outcomes)


class TestCallerWorkloads:
    """A caller-built workload runs on its own network, as given."""

    @pytest.mark.parametrize("backend", sorted(ORACLE_BACKENDS))
    @pytest.mark.parametrize("algorithm", sorted(DISPATCHERS))
    def test_a_run_never_touches_its_workloads_network(self, algorithm, backend):
        session = Session()
        spec = ScenarioSpec(
            network="grid",
            grid_rows=6,
            grid_cols=6,
            num_orders=16,
            num_workers=4,
            horizon=600.0,
            seed=3,
            algorithm=algorithm,
            oracle={"backend": backend},
        )
        # The workload is bound to the *other* backend's view.
        other = "ch" if backend == "lazy" else "lazy"
        workload = session.workload(spec.with_overrides(oracle={"backend": other}))
        network, oracle = workload.network, workload.network.oracle
        result = session.run(spec, workload=workload)
        assert workload.network is network
        assert network.oracle is oracle
        assert result.metrics.oracle_stats["backend"] == other
        assert result.metrics.total_orders == 16


class TestSessionReuse:
    def test_ch_oracle_built_once_for_two_scenarios(self):
        session = Session()
        spec = _small_spec(oracle={"backend": "ch"}, num_orders=16)
        first = session.run(spec)
        oracle_after_first = session.network(spec).oracle
        second = session.run(spec.with_overrides(num_orders=20))
        assert session.network(spec).oracle is oracle_after_first
        assert session.oracle_builds == 1
        assert first.metrics.total_orders != second.metrics.total_orders

    def test_workloads_are_memoised_per_shape(self):
        session = Session()
        spec = _small_spec()
        assert session.workload(spec) is session.workload(spec)
        assert session.workload(spec) is not session.workload(
            spec.with_overrides(num_orders=30)
        )

    def test_custom_workload_providers_are_not_shared(self):
        session = Session()
        spec = _small_spec(algorithm="WATTER-expect")
        first = session.workload(spec.with_overrides(seed=100))
        second = session.workload(spec.with_overrides(seed=200))
        # a provider fitted to one demand model must never silently
        # serve another caller-built workload
        assert session.expect_provider(spec, workload=first) is not (
            session.expect_provider(spec, workload=second)
        )

    def test_expect_providers_are_memoised_per_loss_weight(self):
        session = Session()
        spec = _small_spec(algorithm="WATTER-expect", use_rl=True, loss_weight=0.25)
        first = session.expect_provider(spec)
        second = session.expect_provider(spec.with_overrides(loss_weight=0.75))
        assert session.expect_provider(spec) is first
        assert second is not first
        # omega reaches the value network's training configuration
        assert first._network.config.loss_weight == 0.25
        assert second._network.config.loss_weight == 0.75

    def test_compare_preserves_the_specs_use_rl(self):
        # compare must not clobber spec.use_rl with a False default;
        # None means "keep the spec's setting"
        spec = _small_spec(algorithm="NonSharing", use_rl=True)
        result = Session().compare(spec, algorithms=("NonSharing",))[0]
        assert result.spec.use_rl is True

    def test_compare_shares_one_workload(self):
        session = Session()
        spec = _small_spec()
        results = session.compare(spec, algorithms=("WATTER-online", "NonSharing"))
        assert [run.algorithm for run in results] == ["WATTER-online", "NonSharing"]
        assert len({run.graph_hash for run in results}) == 1
        assert all(
            run.metrics.total_orders == results[0].metrics.total_orders
            for run in results
        )

    def test_training_subsample_thins_a_fixed_workload(self):
        from repro.api.session import _training_subsample

        session = Session()
        spec = _small_spec(num_orders=20)
        workload = session.workload(spec)
        training = _training_subsample(workload, spec.config())
        assert 0 < len(training.orders) < len(workload.orders)
        assert set(o.order_id for o in training.orders) <= set(
            o.order_id for o in workload.orders
        )
        assert training.network is workload.network


#: The served benchmark mix: an 8x8 grid, three seeds, two dispatchers
#: on each backend.
_SERVED_MIX = [
    {
        "network": "grid",
        "grid_rows": 8,
        "grid_cols": 8,
        "num_orders": 40,
        "num_workers": 8,
        "horizon": 1800.0,
        "seed": seed,
        "algorithm": algorithm,
        "oracle": {"backend": backend},
    }
    for seed in (1, 2, 3)
    for algorithm, backend in (
        ("WATTER-online", "lazy"),
        ("GDP", "lazy"),
        ("GAS", "ch"),
        ("WATTER-expect", "ch"),
    )
]


def _order_fields(workload) -> list:
    return [
        (
            order.pickup,
            order.dropoff,
            order.release_time,
            order.shortest_time,
            order.deadline,
            order.wait_limit,
        )
        for order in workload.orders
    ]


class TestPreparedViews:
    """One ``RoadNetwork`` view per (network, oracle spec), drawn on the
    default one."""

    @pytest.mark.parametrize("backend", sorted(ORACLE_BACKENDS))
    def test_a_draw_does_not_depend_on_what_was_prepared_before(self, backend):
        spec = ScenarioSpec(
            dataset="CDC",
            num_orders=41,
            num_workers=5,
            seed=29,
            oracle={"backend": backend},
        )
        fresh = Session().workload(spec)
        session = Session()
        session.prepare(spec.with_overrides(num_orders=30, oracle={"backend": "ch"}))
        assert _order_fields(session.workload(spec)) == _order_fields(fresh)

    def test_specs_differing_in_oracle_share_one_draw(self):
        session = Session()
        lazy = session.workload(_small_spec())
        ch = session.workload(_small_spec(oracle={"backend": "ch"}))
        assert all(a is b for a, b in zip(ch.orders, lazy.orders, strict=True))
        assert ch.network is not lazy.network
        assert ch.network.graph is lazy.network.graph
        assert session.workload(_small_spec()) is lazy
        assert session.oracle_builds == 1

    def test_discarding_a_view_keeps_the_network_and_its_draws(self):
        session = Session()
        lazy_spec = _small_spec()
        ch_spec = _small_spec(oracle={"backend": "ch"})
        lazy = session.workload(lazy_spec)
        ch_view = session.network(ch_spec)
        session.discard(ch_spec)
        assert session.workload(lazy_spec) is lazy
        assert session.network(ch_spec) is not ch_view
        assert session.oracle_builds == 2
        session.discard(lazy_spec)  # the default view: the whole entry
        assert session.stats()["networks"] == 0

    def test_served_mix_builds_no_oracle_after_its_first_round(self):
        """Alternating backends in one warm session rebuilds nothing,
        and every run matches a fresh session's run of its spec.

        Counts match exactly.  Float totals may move by an ulp: a ``ch``
        answer's rounding depends on the oracle's warm caches, so the
        seed-1 WATTER-expect run after GAS on the same ``ch`` view reads
        ``total_detour_time`` 382.674600081151 against 382.6746000811509
        fresh (the same two runs in one session, or in one pooled
        session of the service, drifted alike before views existed).
        """
        specs = [ScenarioSpec.from_dict(document) for document in _SERVED_MIX]
        fresh = [_deterministic(Session().run(spec).metrics) for spec in specs]
        session = Session()
        builds = []
        for _ in range(3):
            for spec, want in zip(specs, fresh):
                got = _deterministic(session.run(spec).metrics)
                assert got == pytest.approx(want, rel=1e-12, abs=0), spec
            builds.append(session.oracle_builds)
        assert builds[0] > 0
        assert builds[2] == builds[1] == builds[0]


class TestGraphHashMemo:
    """``prepare`` hashes the graph once; a run only reads the memo."""

    @staticmethod
    def _count_hashes(monkeypatch) -> list:
        import repro.api.session as session_module

        hashed: list = []
        original = session_module.graph_signature
        monkeypatch.setattr(
            session_module,
            "graph_signature",
            lambda graph: hashed.append(graph) or original(graph),
        )
        return hashed

    def test_prepared_run_never_hashes(self, monkeypatch):
        from repro.datasets.synthetic import Workload

        session = Session()
        spec = _small_spec(network="grid", grid_rows=5, grid_cols=5)
        base = session.prepare(spec)
        hashed = self._count_hashes(monkeypatch)
        plain = session.run(spec)
        # A caller-built workload over the prepared network (what the
        # end-to-end benchmark's jittered repeats are) reads the memo too.
        custom = Workload(
            orders=base.orders[::2],
            workers=base.workers,
            network=base.network,
            name=base.name,
        )
        over_custom = session.run(spec, workload=custom)
        assert hashed == []
        want = graph_signature(base.network.graph)
        assert plain.graph_hash == over_custom.graph_hash == want

    def test_custom_workload_hashes_on_a_miss(self, monkeypatch):
        spec = _small_spec(network="grid", grid_rows=5, grid_cols=5)
        workload = Session().workload(spec)
        session = Session()
        hashed = self._count_hashes(monkeypatch)
        first = session.run(spec, workload=workload)
        second = session.run(spec, workload=workload)
        assert hashed == [workload.network.graph]
        want = graph_signature(workload.network.graph)
        assert first.graph_hash == second.graph_hash == want


class TestOracleCachePersistence:
    def test_fresh_session_loads_preprocessing_from_disk(self, tmp_path):
        spec = ScenarioSpec(
            network="grid",
            grid_rows=8,
            grid_cols=8,
            num_orders=10,
            num_workers=3,
            horizon=600.0,
            seed=5,
            oracle={"backend": "ch", "cache_dir": str(tmp_path)},
        )
        cold = Session()
        cold.prepare(spec)
        assert not cold.network(spec).oracle.preprocessing_loaded
        assert list(tmp_path.glob("ch-*.json"))
        # a brand-new session (fresh process stand-in: no shared state)
        warm = Session()
        warm.prepare(spec)
        assert warm.network(spec).oracle.preprocessing_loaded

    def test_session_level_cache_dir_applies_to_specs(self, tmp_path):
        spec = ScenarioSpec(
            network="grid",
            grid_rows=6,
            grid_cols=6,
            num_orders=10,
            num_workers=3,
            horizon=600.0,
            oracle={"backend": "ch"},
        )
        session = Session(oracle_cache_dir=str(tmp_path))
        session.prepare(spec)
        assert list(tmp_path.glob("ch-*.json"))
        # A backend that persists nothing takes no cache_dir: the
        # session default must not turn its spec into an invalid one.
        result = session.run(spec.with_overrides(oracle={"backend": "lazy"}))
        assert result.spec.oracle.cache_dir is None

    def test_restored_oracle_answers_identically(self, tmp_path):
        graph = grid_city(rows=7, cols=7, seed=2, jitter=0.2).graph
        cold = create_oracle("ch", graph, cache_dir=str(tmp_path))
        warm = create_oracle("ch", graph, cache_dir=str(tmp_path))
        assert warm.preprocessing_loaded and not cold.preprocessing_loaded
        nodes = sorted(graph)
        for source in nodes[::5]:
            for target in nodes[::7]:
                assert warm.travel_time(source, target) == pytest.approx(
                    cold.travel_time(source, target), rel=1e-9
                )
        # the shortcut count travels with the payload
        shortcuts = cold.stats().extras["shortcuts_added"]
        assert shortcuts > 0
        assert warm.stats().extras["shortcuts_added"] == shortcuts

    def test_corrupt_cache_file_is_rebuilt(self, tmp_path):
        graph = grid_city(rows=5, cols=5, seed=2, jitter=0.2).graph
        create_oracle("ch", graph, cache_dir=str(tmp_path))
        path = ch_cache_path(tmp_path, graph, 5)
        # The name warm cache directories written by earlier builds carry.
        assert path.name == "ch-6bdb7bb7618f20e0e07486b9-w5.json"
        payload = json.loads(path.read_text())
        path.write_text("{not json")
        rebuilt = create_oracle("ch", graph, cache_dir=str(tmp_path))
        assert not rebuilt.preprocessing_loaded
        # and the file was repaired for the next process
        assert load_ch_preprocessing(path, graph, 5) is not None
        # A format-1 file (edges carrying a shortcut's middle node) is a
        # stale file: a silent miss, rebuilt and rewritten at format 2.
        old = dict(payload, format=1)
        old["data"] = {
            "order": payload["data"]["order"],
            "edges": [[*edge, None] for edge in payload["data"]["edges"]],
        }
        path.write_text(json.dumps(old))
        rebuilt = create_oracle("ch", graph, cache_dir=str(tmp_path))
        assert not rebuilt.preprocessing_loaded
        assert rebuilt.cache_load_failures == 0
        assert json.loads(path.read_text())["format"] == 2
        assert load_ch_preprocessing(path, graph, 5) is not None

    def test_duplicated_order_entry_forces_rebuild(self, tmp_path):
        graph = grid_city(rows=5, cols=5, seed=1, jitter=0.2).graph
        create_oracle("ch", graph, cache_dir=str(tmp_path))
        path = ch_cache_path(tmp_path, graph, 5)
        payload = json.loads(path.read_text())
        # a non-permutation order would silently corrupt rank-based
        # up/down edge classification; it must be rejected on load
        payload["data"]["order"][1] = payload["data"]["order"][0]
        path.write_text(json.dumps(payload))
        rebuilt = create_oracle("ch", graph, cache_dir=str(tmp_path))
        assert not rebuilt.preprocessing_loaded

    def test_cache_is_keyed_by_graph_content(self, tmp_path):
        one = grid_city(rows=5, cols=5, seed=1, jitter=0.2).graph
        two = grid_city(rows=5, cols=5, seed=9, jitter=0.2).graph
        assert graph_signature(one) != graph_signature(two)
        create_oracle("ch", one, cache_dir=str(tmp_path))
        other = create_oracle("ch", two, cache_dir=str(tmp_path))
        assert not other.preprocessing_loaded
        assert len(list(tmp_path.glob("ch-*.json"))) == 2


class _CountingHooks(SimulationHooks):
    def __init__(self) -> None:
        self.arrivals = []
        self.checks = []
        self.assigned = []

    def on_order_arrival(self, order, now):
        self.arrivals.append((order.order_id, now))

    def on_periodic_check(self, now):
        self.checks.append(now)

    def on_assign(self, served):
        self.assigned.append(served.order.order_id)


class TestEventHooks:
    def test_hooks_observe_the_whole_run(self):
        hooks = _CountingHooks()
        result = Session().run(_small_spec(), hooks=hooks)
        assert len(hooks.arrivals) == result.metrics.total_orders
        assert len(hooks.assigned) == result.metrics.served_orders
        assert hooks.checks == sorted(hooks.checks)
        assert len(hooks.checks) > 0
        # arrivals are reported at their release times
        assert all(now >= 0 for _, now in hooks.arrivals)

    def test_hooks_do_not_change_metrics(self):
        plain = Session().run(_small_spec())
        hooked = Session().run(_small_spec(), hooks=_CountingHooks())
        assert _deterministic(plain.metrics) == _deterministic(hooked.metrics)


class TestCsvReplay:
    def test_replay_reproduces_the_source_workload(self, tmp_path):
        # The shared name keeps the workload label identical between the
        # synthetic run and its CSV replay, so metrics compare exactly.
        spec = ScenarioSpec(
            name="replay-city",
            network="grid",
            grid_rows=8,
            grid_cols=8,
            num_orders=20,
            num_workers=5,
            horizon=900.0,
            seed=4,
            algorithm="WATTER-timeout",
        )
        session = Session()
        source = session.workload(spec)
        orders_csv = tmp_path / "orders.csv"
        workers_csv = tmp_path / "workers.csv"
        orders_to_csv(source.orders, orders_csv)
        workers_to_csv(source.workers, workers_csv)
        replay = spec.with_overrides(
            workload="csv",
            orders_csv=str(orders_csv),
            workers_csv=str(workers_csv),
        )
        direct = session.run(spec)
        replayed = session.run(replay)
        # same orders, same workers, same (session-shared) network: the
        # replay is bit-for-bit the original run
        assert _deterministic(replayed.metrics) == _deterministic(direct.metrics)

    def test_replay_rejects_foreign_nodes(self, tmp_path):
        spec = ScenarioSpec(
            network="grid",
            grid_rows=6,
            grid_cols=6,
            num_orders=10,
            num_workers=3,
            horizon=600.0,
            seed=4,
        )
        session = Session()
        source = session.workload(spec)
        orders_csv = tmp_path / "orders.csv"
        orders_to_csv(source.orders, orders_csv)
        wrong_network = spec.with_overrides(
            grid_rows=3,
            grid_cols=3,
            workload="csv",
            orders_csv=str(orders_csv),
        )
        with pytest.raises(ConfigurationError, match="absent from"):
            session.workload(wrong_network)


    def test_replay_of_a_malformed_file_is_a_structured_error(self, tmp_path):
        orders_csv = tmp_path / "orders.csv"
        orders_csv.write_text(
            "order_id,pickup,dropoff,release_time,shortest_time,deadline,"
            "wait_limit,riders\n1,2,3,abc,1,2,3,1\n"
        )
        spec = _small_spec(workload="csv", orders_csv=str(orders_csv))
        with pytest.raises(ReproError, match="row 1, column 'release_time'"):
            Session().run(spec)


class TestFacadeFunctions:
    def test_run_scenario_and_compare(self):
        spec = _small_spec(algorithm="NonSharing")
        single = Session().run(spec)
        assert single.algorithm == "NonSharing"
        several = Session().compare(spec, algorithms=("NonSharing", "WATTER-online"))
        assert _deterministic(several[0].metrics) == _deterministic(single.metrics)

    def test_sweep_shares_a_session(self):
        points = run_sweep(
            "num_orders",
            _small_spec(algorithm="NonSharing"),
            values=(0.5, 0.75),
            algorithms=("NonSharing",),
        )
        assert [point.value for point in points] == [0.5, 0.75]
        totals = [point.results[0].metrics.total_orders for point in points]
        assert totals == [12, 18]
        # same network either way: the sweep shares one session
        hashes = {point.results[0].graph_hash for point in points}
        assert len(hashes) == 1

    def test_run_result_is_self_describing(self):
        result = Session().run(_small_spec(name="probe"))
        assert result.spec.name == "probe"
        assert len(result.graph_hash) == 64
        assert set(result.timings) == {
            "prepare_seconds",
            "run_seconds",
            "total_seconds",
        }
        summary = result.summary()
        assert summary["scenario"] == "probe"
        assert summary["graph_hash"] == result.graph_hash


class TestOrdersAreInputs:
    """A run reads the session's drawn orders and never writes them, so
    every run of one shape (direct, compared, served or resumed) shares
    them."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_run_leaves_the_drawn_orders_as_drawn(self, algorithm):
        session = Session()
        spec = _small_spec(algorithm=algorithm)
        drawn = session.workload(spec).orders
        before = [dataclasses.astuple(order) for order in drawn]
        session.run(spec)
        assert session.workload(spec).orders is drawn
        assert [dataclasses.astuple(order) for order in drawn] == before

    def test_concurrent_runs_of_one_spec_match_a_sequential_run(self):
        # No jitter: every Dijkstra sum is exact, so the runs may take
        # turns at the shared oracle in any order.
        spec = ScenarioSpec(
            network="grid", grid_rows=7, grid_cols=7, grid_jitter=0.0,
            num_orders=60, num_workers=10, horizon=900.0, seed=3,
            algorithm="WATTER-online",
        )
        session = Session()
        sequential = session.run(spec).outcomes
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(lambda _: session.run(spec).outcomes, range(2)))
        assert concurrent == [sequential, sequential]
