"""Tests for the declarative scenario spec: round-trip, validation, CLI parity."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import OracleSpec, ScenarioSpec, load_spec, save_spec
from repro.baselines.gas import GASDispatcher
from repro.cli import build_parser
from repro.config import ExtraTimeWeights, SimulationConfig
from repro.exceptions import ConfigurationError
from repro.experiments.config import default_config
from repro.model.order import Order
from repro.model.worker import Worker
from repro.network.generators import grid_city
from repro.network.grid import GridIndex
from repro.network.oracle import LazyDijkstraOracle, MatrixOracle
from repro.routing.planner import RoutePlanner
from repro.serve.protocol import ProtocolError, parse_submission
from repro.simulation.fleet import WorkerFleet


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec(),
            ScenarioSpec(dataset="NYC", num_orders=50, num_workers=10, seed=11),
            ScenarioSpec(
                name="full",
                dataset="XIA",
                algorithm="WATTER-expect",
                use_rl=True,
                num_orders=40,
                num_workers=8,
                horizon=1200.0,
                seed=5,
                deadline_scale=1.8,
                watch_window_scale=0.6,
                max_capacity=3,
                check_period=5.0,
                time_slot=5.0,
                grid_size=6,
                penalty_factor=8.0,
                max_group_size=3,
                alpha=2.0,
                beta=0.5,
                oracle=OracleSpec(
                    backend="ch",
                    cache_size=256,
                    witness_hops=3,
                    cache_dir="/tmp/oracle-cache",
                ),
            ),
            ScenarioSpec(
                network="grid",
                grid_rows=8,
                grid_cols=9,
                grid_edge_travel_time=55.0,
                grid_jitter=0.1,
                num_orders=20,
                num_workers=4,
            ),
        ],
        ids=("default", "dataset", "full", "grid"),
    )
    def test_dict_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_csv_round_trip(self):
        spec = ScenarioSpec(
            network="grid",
            workload="csv",
            orders_csv="orders.csv",
            workers_csv="workers.csv",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_omits_unset_fields(self):
        data = ScenarioSpec().to_dict()
        assert "num_orders" not in data
        assert "oracle" not in data
        assert data["network"] == "dataset"

    def test_to_dict_is_json_serializable(self):
        spec = ScenarioSpec(num_orders=30, horizon=900.0, alpha=1.5)
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_numeric_normalisation_survives_round_trip(self):
        # ints in float-typed fields are coerced at construction, so
        # JSON (which may render 1800.0 as 1800) still round-trips.
        spec = ScenarioSpec(horizon=1800, grid_jitter=0)
        assert isinstance(spec.horizon, float)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_spec_file_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            name="file", num_orders=25, oracle={"backend": "matrix"}
        )
        path = save_spec(spec, tmp_path / "scenario.json")
        assert load_spec(path) == spec


class TestValidation:
    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigurationError, match="number_of_orders"):
            ScenarioSpec.from_dict({"number_of_orders": 10})

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            ScenarioSpec.from_dict([("num_orders", 10)])

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"network": "hexagons"}, "network"),
            ({"workload": "parquet"}, "workload"),
            ({"dataset": "LONDON"}, "dataset"),
            ({"algorithm": "FancyAlgo"}, "algorithm"),
            ({"workload": "csv"}, "orders_csv"),
            ({"orders_csv": "x.csv"}, "workload='csv'"),
            ({"num_orders": "many"}, "num_orders"),
            ({"num_orders": 0}, "num_orders"),
            ({"horizon": "long"}, "horizon"),
            ({"use_rl": "yes"}, "use_rl"),
            ({"deadline_scale": 0.5}, "deadline_scale"),
            ({"oracle": {"backend": "teleport"}}, "oracle"),
            ({"grid_size": 0}, "grid_size"),
            ({"network": "grid", "grid_rows": 1}, "lattice"),
            ({"network": "grid", "grid_jitter": 1.5}, "grid_jitter"),
        ],
    )
    def test_invalid_values_raise_precise_errors(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec(**kwargs)

    def test_with_overrides_rejects_unknown_field(self):
        with pytest.raises(ConfigurationError, match="orderz"):
            ScenarioSpec().with_overrides(orderz=5)

    def test_normalisation(self):
        spec = ScenarioSpec(dataset="cdc", algorithm="watter-EXPECT")
        assert spec.dataset == "CDC"
        assert spec.algorithm == "WATTER-expect"


class TestOracleSpec:
    """The typed oracle front door: validation, round-trip, resolution."""

    def test_nested_round_trip(self):
        spec = ScenarioSpec(
            num_orders=20,
            oracle=OracleSpec(backend="ch", kernel="csr", cache_size=64),
        )
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert isinstance(rebuilt.oracle, OracleSpec)

    def test_to_dict_omits_unset_options(self):
        data = OracleSpec(backend="ch", kernel="auto").to_dict()
        assert data == {"backend": "ch", "kernel": "auto"}

    def test_mapping_is_coerced(self):
        spec = ScenarioSpec(oracle={"backend": "matrix", "kernel": "dict"})
        assert spec.oracle == OracleSpec(backend="matrix", kernel="dict")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"backend": "teleport"}, "unknown oracle backend"),
            ({"backend": ""}, "non-empty string"),
            ({"cache_size": True}, "cache_size must be an integer"),
            ({"cache_size": 0}, "at least 1"),
            ({"witness_hops": 2.5}, "witness_hops must be an integer"),
            ({"cache_dir": 7}, "path string"),
            ({"kernel": "simd"}, "kernel must be one of"),
            ({"backend": "overlay"}, "unknown oracle backend 'overlay'"),
            # Options the named backend does not consume are rejected
            # eagerly, naming the valid set.
            ({"backend": "lazy", "kernel": "csr"}, "does not take option"),
            ({"backend": "lazy", "cache_dir": "/tmp"}, "does not take option"),
            ({"backend": "matrix", "witness_hops": 2}, "does not take option"),
        ],
    )
    def test_invalid_oracle_specs_raise(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            OracleSpec(**kwargs)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="kernell"):
            OracleSpec.from_dict({"backend": "ch", "kernell": "csr"})

    def test_non_oracle_spec_value_rejected(self):
        with pytest.raises(ConfigurationError, match="OracleSpec"):
            ScenarioSpec(oracle="ch")

    def test_removed_flat_keys_are_unknown_keys(self):
        with pytest.raises(
            ConfigurationError, match="unknown ScenarioSpec keys.*oracle_backend"
        ):
            ScenarioSpec.from_dict({"oracle_backend": "ch"})

    @pytest.mark.parametrize(
        "document, match",
        [
            ({"dispatch_workers": 2}, "unknown ScenarioSpec keys.*dispatch_workers"),
            ({"dispatch_mode": "process"}, "unknown ScenarioSpec keys.*dispatch_mode"),
            (
                {"oracle": {"backend": "ch", "shared_memory": False}},
                "unknown OracleSpec keys.*shared_memory",
            ),
            ({"oracle": {"backend": "landmark"}}, "unknown oracle backend 'landmark'"),
            (
                {"oracle": {"backend": "lazy", "landmarks": 4}},
                "unknown OracleSpec keys.*landmarks",
            ),
            (
                {"oracle": {"backend": "ch", "contraction_order": "coarsening"}},
                "unknown OracleSpec keys.*contraction_order",
            ),
            (
                {"oracle": {"backend": "ch", "coarsen_levels": 2}},
                "unknown OracleSpec keys.*coarsen_levels",
            ),
            ({"oracle": {"backend": "overlay"}}, "unknown oracle backend 'overlay'"),
        ],
    )
    def test_removed_dispatch_keys_are_unknown_keys(self, document, match):
        with pytest.raises(ConfigurationError, match=match):
            ScenarioSpec.from_dict(document)
        with pytest.raises(ProtocolError, match=match) as exc_info:
            parse_submission(document)
        assert exc_info.value.status == 400

    def test_removed_keyword_arguments_name_the_key(self):
        # No shim translates a removed keyword: the dataclass constructor
        # refuses it the way it refuses any other unknown keyword.
        with pytest.raises(TypeError, match="shared_memory"):
            OracleSpec(backend="ch", shared_memory=False)
        with pytest.raises(TypeError, match="dispatch_workers"):
            ScenarioSpec(dispatch_workers=2)
        with pytest.raises(TypeError, match="landmarks"):
            OracleSpec(landmarks=4)
        with pytest.raises(TypeError, match="contraction_order"):
            OracleSpec(backend="ch", contraction_order="coarsening")
        network = grid_city(rows=3, cols=3, seed=0)
        planner = RoutePlanner(network)
        order = Order(0, 8, 0.0, 1.0, deadline=1e9, wait_limit=1.0, order_id=1)
        with pytest.raises(TypeError, match="exact_group_limit"):
            RoutePlanner(network, exact_group_limit=2)
        with pytest.raises(TypeError, match="start_node"):
            planner.plan([order], 4, 0.0, start_node=4)
        with pytest.raises(TypeError, match="start_node"):
            planner.try_plan([order], 4, 0.0, start_node=4)
        fleet = WorkerFleet([Worker(location=0, capacity=4)], network, GridIndex(network, 2))
        with pytest.raises(TypeError, match="batch_size"):
            GASDispatcher(planner, fleet, SimulationConfig(), batch_size=10.0)
        with pytest.raises(TypeError, match="max_rows"):
            MatrixOracle(network.graph, max_rows=2)
        with pytest.raises(TypeError, match="max_targets"):
            LazyDijkstraOracle(network.graph, max_targets=2)

    def test_overrides_reach_the_config(self):
        spec = ScenarioSpec(
            oracle=OracleSpec(
                backend="ch",
                kernel="csr",
                witness_hops=2,
            )
        )
        assert spec.config().oracle == spec.oracle

    def test_unset_options_keep_config_defaults(self):
        assert ScenarioSpec().config().oracle == OracleSpec()
        config = ScenarioSpec(oracle=OracleSpec(backend="ch")).config()
        assert config.oracle.backend == "ch"
        assert config.oracle.options() == {}


class TestResolution:
    def test_defaults_resolve_to_dataset_defaults(self):
        assert ScenarioSpec(dataset="CDC").config() == default_config("CDC")
        assert ScenarioSpec(dataset="NYC").config() == default_config("NYC")

    def test_overrides_reach_the_config(self):
        spec = ScenarioSpec(
            num_orders=33,
            oracle={"backend": "ch", "cache_dir": "/tmp/cache"},
            alpha=2.0,
        )
        config = spec.config()
        assert config.num_orders == 33
        assert config.oracle.backend == "ch"
        assert config.oracle.cache_dir == "/tmp/cache"
        assert config.weights == ExtraTimeWeights(alpha=2.0, beta=1.0)

    def test_grid_network_uses_class_defaults(self):
        config = ScenarioSpec(network="grid").config()
        assert config == SimulationConfig()


class TestCliParity:
    """`ScenarioSpec.from_args` resolves each flag set to the expected config."""

    @pytest.mark.parametrize(
        "argv, dataset, overrides",
        [
            (["compare"], "CDC", {}),
            (
                ["compare", "--dataset", "NYC", "--orders", "50", "--workers", "10"],
                "NYC",
                {"num_orders": 50, "num_workers": 10},
            ),
            (
                [
                    "compare",
                    "--dataset",
                    "XIA",
                    "--seed",
                    "3",
                    "--horizon",
                    "1200",
                    "--oracle",
                    "ch",
                    "--oracle-cache",
                    "/tmp/oracle-cache",
                ],
                "XIA",
                {
                    "seed": 3,
                    "horizon": 1200.0,
                    # --oracle-cache rides on the Session, not the spec.
                    "oracle": OracleSpec(backend="ch"),
                },
            ),
            (
                ["compare", "--dataset", "CDC", "--orders", "40", "--oracle", "matrix"],
                "CDC",
                {"num_orders": 40, "oracle": OracleSpec(backend="matrix")},
            ),
            (
                ["compare", "--oracle", "ch", "--oracle-kernel", "csr"],
                "CDC",
                {"oracle": OracleSpec(backend="ch", kernel="csr")},
            ),
            (["sweep", "--dataset", "CDC", "--workers", "8"], "CDC", {"num_workers": 8}),
        ],
        ids=[f"argv{index}" for index in range(6)],
    )
    def test_spec_matches_legacy_config_assembly(self, argv, dataset, overrides):
        args = build_parser().parse_args(argv)
        assert ScenarioSpec.from_args(args).config() == default_config(
            dataset, **overrides
        )

    def test_oracle_cache_flag_parsed(self):
        args = build_parser().parse_args(
            ["compare", "--oracle-cache", "/tmp/oracle-cache"]
        )
        assert args.oracle_cache == "/tmp/oracle-cache"
        assert ScenarioSpec.from_args(args).oracle is None

    def test_oracle_kernel_flag_parsed(self):
        args = build_parser().parse_args(
            ["compare", "--oracle", "ch", "--oracle-kernel", "dict"]
        )
        spec = ScenarioSpec.from_args(args)
        assert spec.oracle == OracleSpec(backend="ch", kernel="dict")
        assert spec.config().oracle.kernel == "dict"

    @pytest.mark.parametrize(
        "argv, parser_error",
        [
            (["compare", "--oracle-kernel", "csr"], None),
            (["compare", "--oracle", "lazy", "--oracle-kernel", "dict"], None),
            # The coarsening flags went with the backend that took them.
            (
                ["compare", "--oracle", "matrix", "--coarsen-levels", "2"],
                "unrecognized arguments: --coarsen-levels",
            ),
            (
                ["compare", "--oracle", "lazy", "--coarsen-alpha", "2.0"],
                "unrecognized arguments: --coarsen-alpha",
            ),
        ],
        ids=[f"argv{index}" for index in range(4)],
    )
    def test_flag_the_backend_does_not_take_is_rejected(
        self, argv, parser_error, capsys
    ):
        """Same rule as a spec document: no silently dropped options."""
        if parser_error is not None:
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
            assert parser_error in capsys.readouterr().err
            return
        args = build_parser().parse_args(argv)
        with pytest.raises(ConfigurationError, match="does not take option"):
            ScenarioSpec.from_args(args)

    def test_oracle_kernel_flag_rejects_unknown(self, capsys):
        for flag, value in (
            ("--oracle-kernel", "simd"),
            ("--oracle", "landmark"),
            ("--oracle", "overlay"),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["compare", flag, value])
            assert "invalid choice" in capsys.readouterr().err


class TestIdentity:
    def test_describe_prefers_the_name(self):
        assert ScenarioSpec(name="rush").describe() == "rush"
        assert "CDC" in ScenarioSpec().describe()
        assert "grid" in ScenarioSpec(network="grid").describe()


# ----------------------------------------------------------------------
# fuzz: a spec document is a spec or a ConfigurationError, nothing else
# ----------------------------------------------------------------------
_SPEC_KEYS = sorted(f.name for f in dataclasses.fields(ScenarioSpec))
_ORACLE_KEYS = sorted(f.name for f in dataclasses.fields(OracleSpec))
#: Keys earlier builds accepted and this one must refuse by name.
_REMOVED_SPEC_KEYS = ["dispatch_workers", "dispatch_mode", "oracle_backend"]
_REMOVED_ORACLE_KEYS = [
    "shared_memory",
    "landmarks",
    "contraction_order",
    "coarsen_levels",
    "coarsen_alpha",
    "coarsen_beta",
    "coarsen_error_bound",
    "coarsen_refine",
]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.integers(),
    st.just(10**400),  # JSON carries ints no float can hold
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        ["", "CDC", "nyc", "grid", "csv", "GDP", "watter-expect", "ch", "lazy",
         "overlay", "csr", "coarsening", "thread", "x.csv"]
    ),
    st.text(max_size=6),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.text(max_size=4), _scalars, max_size=3),
)
_junk_oracle_documents = st.dictionaries(
    st.one_of(
        st.sampled_from(_ORACLE_KEYS + _REMOVED_ORACLE_KEYS), st.text(max_size=6)
    ),
    _values,
    max_size=4,
)
_junk_documents = st.dictionaries(
    st.one_of(st.sampled_from(_SPEC_KEYS + _REMOVED_SPEC_KEYS), st.text(max_size=6)),
    st.one_of(_values, _junk_oracle_documents),
    max_size=3,
)
#: Right-typed values straddling each field's valid range, so a good
#: share of the documents parse and reach the round-trip assertion.
_plausible_oracle_documents = st.fixed_dictionaries(
    # "landmark" and "overlay" are removed backends: invalid draws.
    {"backend": st.sampled_from(["lazy", "landmark", "matrix", "ch", "overlay"])},
    optional={
        "cache_size": st.integers(0, 9),
        "witness_hops": st.integers(0, 3),
        "kernel": st.sampled_from(["auto", "dict", "csr", "simd"]),
    },
)
_plausible_documents = st.fixed_dictionaries(
    {},
    optional={
        "name": st.text(max_size=4),
        "network": st.sampled_from(["dataset", "grid", "GRID", "hex"]),
        "dataset": st.sampled_from(["CDC", "nyc", "XIA", "LONDON"]),
        "grid_rows": st.integers(1, 6),
        "grid_cols": st.integers(1, 6),
        "grid_edge_travel_time": st.one_of(st.integers(-1, 90), st.floats(-1.0, 90.0)),
        "grid_jitter": st.floats(-0.5, 1.5),
        "workload": st.sampled_from(["synthetic", "csv"]),
        "orders_csv": st.sampled_from([None, "orders.csv"]),
        "algorithm": st.sampled_from(["GDP", "gas", "WATTER-expect", "NonSharing", "?"]),
        "use_rl": st.booleans(),
        "num_orders": st.integers(-1, 50),
        "num_workers": st.integers(-1, 9),
        "horizon": st.one_of(st.integers(-1, 4000), st.floats(-1.0, 4000.0)),
        "seed": st.integers(-5, 5),
        "deadline_scale": st.floats(0.5, 3.0),
        "watch_window_scale": st.floats(-0.5, 2.0),
        "max_capacity": st.integers(0, 6),
        "check_period": st.floats(-1.0, 30.0),
        "time_slot": st.floats(-1.0, 30.0),
        "grid_size": st.integers(-1, 12),
        "penalty_factor": st.floats(-1.0, 20.0),
        "max_group_size": st.integers(-1, 5),
        "alpha": st.floats(-1.0, 2.0),
        "beta": st.floats(-1.0, 2.0),
        "oracle": st.one_of(st.none(), _plausible_oracle_documents),
        "deadline_seconds": st.one_of(st.none(), st.floats(-1.0, 5.0)),
    },
)
_spec_documents = st.builds(
    lambda plausible, junk: {**plausible, **junk},
    _plausible_documents,
    _junk_documents,
)


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(document=_spec_documents)
    def test_from_dict_yields_a_round_tripping_spec_or_a_configuration_error(
        self, document
    ):
        try:
            spec = ScenarioSpec.from_dict(document)
        except ConfigurationError:
            spec = None
        else:
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        # The serving front door agrees: the same spec, or a 400.
        for payload in (document, {"spec": document, "wait": True}):
            try:
                served, _ = parse_submission(payload)
            except ProtocolError as exc:
                assert exc.status == 400
                # A bare document with a "spec" key is read as a wrapper,
                # which is the one way the two doors may legitimately differ.
                assert spec is None or (payload is document and "spec" in document)
            else:
                assert served == spec or (payload is document and "spec" in document)
