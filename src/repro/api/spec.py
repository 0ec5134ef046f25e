"""Declarative scenario description: the facade's unit of configuration.

A :class:`ScenarioSpec` captures *everything* that defines one
simulation scenario — where the road network comes from (a dataset
preset or a generated grid), where the workload comes from (the
synthetic demand model or a replayed CSV order log), the fleet and
workload shape, the dispatcher, and the distance-oracle backend and
its options — as one flat, frozen, serializable value.

Specs are plain data:

* ``to_dict()`` / ``from_dict()`` round-trip losslessly
  (``from_dict(to_dict(spec)) == spec``), so scenarios can live in
  JSON (or YAML) files next to the experiments that use them
  (:func:`load_spec` / :func:`save_spec`);
* every field is validated eagerly with a precise
  :class:`~repro.exceptions.ConfigurationError` — unknown keys,
  wrong-typed values and out-of-range numbers all name the offending
  field;
* ``None`` means "use the default": dataset-backed scenarios resolve
  against the paper's Table III defaults for that dataset, everything
  else against :class:`~repro.config.SimulationConfig`'s class
  defaults.  ``config()`` performs that resolution.

The spec layer never *runs* anything — execution belongs to
:class:`repro.api.Session`.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping

from ..config import ExtraTimeWeights, SimulationConfig
from ..datasets.workloads import DATASETS
from ..exceptions import ConfigurationError, unknown_name
from ..experiments.config import default_config
from ..experiments.runner import DISPATCHERS
from ..network.oracle import OracleSpec

#: Valid road-network sources.
NETWORK_SOURCES = ("dataset", "grid")

#: Valid workload sources.
WORKLOAD_SOURCES = ("synthetic", "csv")

#: Spec fields copied verbatim onto :class:`SimulationConfig` when set.
_CONFIG_FIELDS = (
    "num_orders",
    "num_workers",
    "deadline_scale",
    "watch_window_scale",
    "max_capacity",
    "check_period",
    "time_slot",
    "grid_size",
    "penalty_factor",
    "horizon",
    "max_group_size",
    "seed",
)

_INT_FIELDS = (
    "grid_rows",
    "grid_cols",
    "num_orders",
    "num_workers",
    "seed",
    "max_capacity",
    "grid_size",
    "max_group_size",
)

_FLOAT_FIELDS = (
    "grid_edge_travel_time",
    "grid_jitter",
    "horizon",
    "deadline_scale",
    "watch_window_scale",
    "check_period",
    "time_slot",
    "penalty_factor",
    "alpha",
    "beta",
    "deadline_seconds",
    "loss_weight",
)

#: Numeric fields with a concrete default, for which ``None`` is not
#: "unset" but a wrong value.
_REQUIRED_NUMBER_FIELDS = (
    "grid_rows",
    "grid_cols",
    "grid_edge_travel_time",
    "grid_jitter",
)

#: String fields that must always be set (the spec's structural axes).
_REQUIRED_STR_FIELDS = ("name", "network", "dataset", "workload", "algorithm")

#: String fields where ``None`` means "unset".
_OPTIONAL_STR_FIELDS = (
    "orders_csv",
    "workers_csv",
)

#: CLI argument name -> spec field name (shared with ``from_args``).
_ARG_FIELDS = (
    ("orders", "num_orders"),
    ("workers", "num_workers"),
    ("horizon", "horizon"),
    ("seed", "seed"),
)

@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario, declaratively.

    Attributes
    ----------
    name:
        Free-form label echoed into results and artifacts.
    network:
        Road-network source: ``"dataset"`` (the preset synthetic city
        of :attr:`dataset`) or ``"grid"`` (a ``grid_rows x grid_cols``
        lattice generated from the ``grid_*`` fields and the seed).
    dataset:
        Dataset preset, a key of
        :data:`~repro.datasets.workloads.DATASETS` (case-insensitive):
        ``NYC`` / ``CDC`` / ``XIA``, or ``LARGE``, the 102 400-node
        synthetic city on CDC's defaults.  Supplies the city model
        *and* the scaled Table III defaults when ``network ==
        "dataset"``.
    grid_rows, grid_cols, grid_edge_travel_time, grid_jitter:
        Lattice shape for ``network == "grid"``.
    workload:
        Workload source: ``"synthetic"`` (the demand model of the
        network's city) or ``"csv"`` (replay an order log previously
        written by :func:`repro.datasets.io.orders_to_csv`).
    orders_csv, workers_csv:
        CSV paths for ``workload == "csv"``.  ``workers_csv`` is
        optional — when absent, workers are sampled at order pickup
        nodes exactly like the synthetic generator does.
    algorithm:
        Dispatcher under test, a key of
        :data:`~repro.experiments.runner.DISPATCHERS`
        (case-insensitive; stored canonical).
    use_rl:
        For ``WATTER-expect``: train the Section VI value network
        instead of using the GMM threshold fit.
    loss_weight:
        The value network's loss weight ``omega`` in [0, 1] (TD loss
        ``omega``, target loss ``1 - omega``); only valid with
        ``use_rl=True``.  ``None`` keeps
        :class:`~repro.config.LearningConfig`'s default.
    oracle:
        Typed :class:`OracleSpec` naming the distance-oracle backend
        and its validated options (a mapping is accepted and parsed);
        ``None`` keeps the default ``lazy`` backend.  The one place a
        backend is named: a :class:`~repro.api.Session` builds its
        oracle once into the spec's network view.
    num_orders .. max_group_size:
        Optional overrides of the corresponding
        :class:`~repro.config.SimulationConfig` fields; ``None`` keeps
        the resolved default.  ``alpha``/``beta`` expand into the
        extra-time weights.
    deadline_seconds:
        Wall-clock budget for one execution of this scenario,
        enforced cooperatively at tick boundaries (see
        :mod:`repro.resilience.cancellation`).  ``None`` means
        unlimited; ``repro serve --default-deadline`` supplies a
        service-wide default for specs that leave it unset.
    """

    name: str = ""
    network: str = "dataset"
    dataset: str = "CDC"
    grid_rows: int = 22
    grid_cols: int = 22
    grid_edge_travel_time: float = 70.0
    grid_jitter: float = 0.2
    workload: str = "synthetic"
    orders_csv: str | None = None
    workers_csv: str | None = None
    algorithm: str = "WATTER-online"
    use_rl: bool = False
    loss_weight: float | None = None
    num_orders: int | None = None
    num_workers: int | None = None
    horizon: float | None = None
    seed: int | None = None
    deadline_scale: float | None = None
    watch_window_scale: float | None = None
    max_capacity: int | None = None
    check_period: float | None = None
    time_slot: float | None = None
    grid_size: int | None = None
    penalty_factor: float | None = None
    max_group_size: int | None = None
    alpha: float | None = None
    beta: float | None = None
    oracle: OracleSpec | None = None
    deadline_seconds: float | None = None

    # ------------------------------------------------------------------
    # validation and normalisation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        self._check_types()
        object.__setattr__(self, "network", self.network.lower())
        object.__setattr__(self, "workload", self.workload.lower())
        if self.network not in NETWORK_SOURCES:
            raise ConfigurationError(
                f"ScenarioSpec.network must be one of {NETWORK_SOURCES}, "
                f"got {self.network!r}"
            )
        if self.workload not in WORKLOAD_SOURCES:
            raise ConfigurationError(
                f"ScenarioSpec.workload must be one of {WORKLOAD_SOURCES}, "
                f"got {self.workload!r}"
            )
        if self.network == "dataset" and self.dataset.upper() not in DATASETS:
            raise ConfigurationError(unknown_name("dataset", self.dataset, DATASETS))
        object.__setattr__(self, "dataset", self.dataset.upper())
        if self.network == "grid":
            if self.grid_rows < 2 or self.grid_cols < 2:
                raise ConfigurationError(
                    "ScenarioSpec grid networks need at least a 2x2 lattice "
                    f"(got {self.grid_rows}x{self.grid_cols})"
                )
            if self.grid_edge_travel_time <= 0:
                raise ConfigurationError(
                    "ScenarioSpec.grid_edge_travel_time must be positive"
                )
            if not 0.0 <= self.grid_jitter < 1.0:
                raise ConfigurationError(
                    "ScenarioSpec.grid_jitter must lie in [0, 1)"
                )
        if self.workload == "csv":
            if not self.orders_csv:
                raise ConfigurationError(
                    "ScenarioSpec.workload='csv' needs orders_csv to point at "
                    "an order log (written by repro.datasets.io.orders_to_csv)"
                )
        elif self.orders_csv is not None or self.workers_csv is not None:
            raise ConfigurationError(
                "ScenarioSpec.orders_csv/workers_csv only apply to "
                "workload='csv'"
            )
        if self.loss_weight is not None:
            if not self.use_rl:
                raise ConfigurationError(
                    "ScenarioSpec.loss_weight only applies with use_rl=True"
                )
            if not 0.0 <= self.loss_weight <= 1.0:
                raise ConfigurationError(
                    "ScenarioSpec.loss_weight (omega) must lie in [0, 1], "
                    f"got {self.loss_weight!r}"
                )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                "ScenarioSpec.deadline_seconds must be a positive number of "
                f"seconds, got {self.deadline_seconds!r}"
            )
        canonical = {name.lower(): name for name in DISPATCHERS}
        if self.algorithm.lower() not in canonical:
            raise ConfigurationError(
                unknown_name("algorithm", self.algorithm, DISPATCHERS)
            )
        object.__setattr__(self, "algorithm", canonical[self.algorithm.lower()])
        if isinstance(self.oracle, Mapping):
            object.__setattr__(self, "oracle", OracleSpec.from_dict(self.oracle))
        elif self.oracle is not None and not isinstance(self.oracle, OracleSpec):
            raise ConfigurationError(
                f"ScenarioSpec.oracle must be an OracleSpec (or a mapping), "
                f"got {self.oracle!r}"
            )
        # Resolving the SimulationConfig eagerly surfaces every numeric
        # constraint violation (negative order counts, a deadline scale
        # no order can meet, ...) with the library's precise
        # ConfigurationError messages at *spec construction* time.
        self.config()

    def _check_types(self) -> None:
        for field_name in _REQUIRED_NUMBER_FIELDS:
            if getattr(self, field_name) is None:
                raise ConfigurationError(
                    f"ScenarioSpec.{field_name} must be a number, got None"
                )
        for field_name in _INT_FIELDS:
            value = getattr(self, field_name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"ScenarioSpec.{field_name} must be an integer, "
                    f"got {value!r}"
                )
        for field_name in _FLOAT_FIELDS:
            value = getattr(self, field_name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"ScenarioSpec.{field_name} must be a number, got {value!r}"
                )
            try:
                object.__setattr__(self, field_name, float(value))
            except OverflowError:
                raise ConfigurationError(
                    f"ScenarioSpec.{field_name} does not fit a float"
                ) from None
        for field_name in _REQUIRED_STR_FIELDS:
            value = getattr(self, field_name)
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"ScenarioSpec.{field_name} must be a string, got {value!r}"
                )
        for field_name in _OPTIONAL_STR_FIELDS:
            value = getattr(self, field_name)
            if value is not None and not isinstance(value, str):
                raise ConfigurationError(
                    f"ScenarioSpec.{field_name} must be a string, got {value!r}"
                )
        if not isinstance(self.use_rl, bool):
            raise ConfigurationError(
                f"ScenarioSpec.use_rl must be a boolean, got {self.use_rl!r}"
            )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def config(self) -> SimulationConfig:
        """Resolve the spec into the validated internal configuration.

        Dataset-backed scenarios start from the scaled Table III
        defaults of their dataset; grid scenarios start from
        :class:`SimulationConfig`'s class defaults.  Explicitly set
        fields override the base either way.
        """
        overrides: dict[str, Any] = {}
        for field_name in _CONFIG_FIELDS:
            value = getattr(self, field_name)
            if value is not None:
                overrides[field_name] = value
        if self.alpha is not None or self.beta is not None:
            overrides["weights"] = ExtraTimeWeights(
                alpha=self.alpha if self.alpha is not None else 1.0,
                beta=self.beta if self.beta is not None else 1.0,
            )
        if self.network == "dataset":
            return default_config(self.dataset, **overrides)
        base = SimulationConfig()
        return base.with_overrides(**overrides) if overrides else base

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """Return a copy with the given fields replaced (typos fail loudly)."""
        known = {spec_field.name for spec_field in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioSpec fields: {sorted(unknown)}"
            )
        return replace(self, **overrides)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ScenarioSpec":
        """Build a spec from the CLI's parsed workload arguments.

        ``--oracle`` names the :class:`OracleSpec` backend.
        """
        overrides: dict[str, Any] = {}
        for arg_name, field_name in _ARG_FIELDS:
            value = getattr(args, arg_name, None)
            if value is not None:
                overrides[field_name] = value
        backend = getattr(args, "oracle", None)
        if backend is not None:
            overrides["oracle"] = OracleSpec(backend=backend)
        return cls(dataset=getattr(args, "dataset", "CDC"), **overrides)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-able view; unset (``None``) fields are omitted."""
        data: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value is None:
                continue
            if spec_field.name == "oracle":
                value = value.to_dict()
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a spec file).

        Unknown keys are rejected with the full key listed, so a typo
        in a scenario file fails loudly instead of silently running the
        default.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a ScenarioSpec document must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown ScenarioSpec keys: {unknown}; known keys: "
                f"{sorted(known)}"
            )
        return cls(**dict(data))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Short human label (the explicit name, or source + algorithm)."""
        if self.name:
            return self.name
        source = (
            self.dataset
            if self.network == "dataset"
            else f"grid{self.grid_rows}x{self.grid_cols}"
        )
        return f"{source}/{self.workload}/{self.algorithm}"


# ----------------------------------------------------------------------
# spec files
# ----------------------------------------------------------------------
def load_spec(path: str | Path) -> ScenarioSpec:
    """Read a scenario file (JSON; YAML when PyYAML is installed).

    The document must be a flat mapping of :class:`ScenarioSpec`
    fields; unknown keys and invalid values fail with the spec's
    precise errors, naming the file.
    """
    file_path = Path(path)
    try:
        text = file_path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {path}: {exc}")
    if file_path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml  # type: ignore[import-not-found]
        except ImportError:
            raise ConfigurationError(
                f"{path} is a YAML scenario file but PyYAML is not "
                f"installed; rewrite the spec as JSON or install pyyaml"
            )
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"scenario file {path} is not valid JSON: {exc}")
    try:
        return ScenarioSpec.from_dict(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"scenario file {path}: {exc}") from exc


def save_spec(spec: ScenarioSpec, path: str | Path) -> Path:
    """Write a scenario to a JSON spec file (round-trips via load_spec)."""
    file_path = Path(path)
    file_path.parent.mkdir(parents=True, exist_ok=True)
    file_path.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")
    return file_path
