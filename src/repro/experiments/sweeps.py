"""Parameter sweeps reproducing Figures 3-6 of the paper.

Each sweep varies one Table III parameter while holding the others at
their defaults and reports the four metrics (Extra Time, Unified Cost,
Service Rate, Running Time) for every compared algorithm at every
parameter value — exactly the series plotted in the corresponding
figure.  The raw rows are returned as :class:`ExperimentRun` records and
can be rendered with :func:`repro.experiments.reporting.format_sweep_table`.

The sweeps are thin adapters over :func:`repro.api.sweep`: every
parameter value becomes one :class:`~repro.api.ScenarioSpec`, and the
whole sweep shares a single :class:`~repro.api.Session` so the road
network (and any heavyweight oracle preprocessing) is built once
instead of once per value (pass ``session=`` to share one further,
or to give it an on-disk oracle cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TYPE_CHECKING

from ..config import SimulationConfig
from .config import PARAMETER_GRID, default_config, worker_counts_scaled
from .runner import ALGORITHMS, ExperimentRun

if TYPE_CHECKING:  # pragma: no cover
    from ..api import Session


@dataclass
class SweepResult:
    """All runs of one sweep (one figure panel row in the paper)."""

    parameter: str
    dataset: str
    runs: list[ExperimentRun] = field(default_factory=list)

    def values(self) -> list[float]:
        """The distinct parameter values in sweep order."""
        seen: list[float] = []
        for run in self.runs:
            if run.value not in seen:
                seen.append(run.value)
        return seen

    def algorithms(self) -> list[str]:
        """The algorithms that appear in the sweep."""
        seen: list[str] = []
        for run in self.runs:
            if run.algorithm not in seen:
                seen.append(run.algorithm)
        return seen

    def series(self, algorithm: str, metric: str) -> list[float]:
        """One plotted line: ``metric`` of ``algorithm`` across the sweep values."""
        series = []
        for value in self.values():
            for run in self.runs:
                if run.algorithm == algorithm and run.value == value:
                    series.append(getattr(run.metrics, metric))
                    break
        return series


def _run_sweep(
    parameter: str,
    values: Sequence[float],
    dataset: str,
    base_config: SimulationConfig,
    algorithms: Sequence[str],
    config_for_value,
    use_rl: bool = False,
    session: "Session | None" = None,
) -> SweepResult:
    from ..api import ScenarioSpec, sweep as api_sweep

    base_spec = ScenarioSpec.from_config(dataset, base_config, use_rl=use_rl)

    def spec_for_value(_spec: ScenarioSpec, value) -> ScenarioSpec:
        return ScenarioSpec.from_config(
            dataset, config_for_value(base_config, value), use_rl=use_rl
        )

    points = api_sweep(
        base_spec,
        parameter,
        values,
        algorithms=algorithms,
        use_rl=use_rl,
        session=session,
        spec_for_value=spec_for_value,
    )
    result = SweepResult(parameter=parameter, dataset=dataset)
    for point in points:
        for run in point.results:
            result.runs.append(
                ExperimentRun(
                    algorithm=run.metrics.algorithm,
                    dataset=dataset,
                    parameter=parameter,
                    value=float(point.value),
                    metrics=run.metrics,
                )
            )
    return result


def vary_num_orders(
    dataset: str = "CDC",
    fractions: Sequence[float] = PARAMETER_GRID["order_fractions"],
    base_config: SimulationConfig | None = None,
    algorithms: Sequence[str] = ALGORITHMS,
    use_rl: bool = False,
    session: "Session | None" = None,
) -> SweepResult:
    """Figure 3: performance while varying the number of riders ``n``."""
    base = base_config or default_config(dataset)

    def with_value(config: SimulationConfig, fraction: float) -> SimulationConfig:
        return config.with_overrides(
            num_orders=max(int(config.num_orders * fraction), 10)
        )

    return _run_sweep(
        "num_orders", fractions, dataset, base, algorithms, with_value, use_rl, session
    )


def vary_num_workers(
    dataset: str = "CDC",
    worker_counts: Sequence[int] | None = None,
    base_config: SimulationConfig | None = None,
    algorithms: Sequence[str] = ALGORITHMS,
    use_rl: bool = False,
    session: "Session | None" = None,
) -> SweepResult:
    """Figure 4: performance while varying the number of workers ``m``."""
    base = base_config or default_config(dataset)
    counts = worker_counts if worker_counts is not None else worker_counts_scaled()

    def with_value(config: SimulationConfig, count: float) -> SimulationConfig:
        return config.with_overrides(num_workers=max(int(count), 1))

    return _run_sweep(
        "num_workers", counts, dataset, base, algorithms, with_value, use_rl, session
    )


def vary_deadline(
    dataset: str = "CDC",
    deadline_scales: Sequence[float] = PARAMETER_GRID["deadline_scales"],
    base_config: SimulationConfig | None = None,
    algorithms: Sequence[str] = ALGORITHMS,
    use_rl: bool = False,
    session: "Session | None" = None,
) -> SweepResult:
    """Figure 5: performance while varying the deadline scale ``tau``."""
    base = base_config or default_config(dataset)

    def with_value(config: SimulationConfig, scale: float) -> SimulationConfig:
        return config.with_overrides(deadline_scale=float(scale))

    return _run_sweep(
        "deadline_scale", deadline_scales, dataset, base, algorithms, with_value, use_rl, session
    )


def vary_capacity(
    dataset: str = "CDC",
    capacities: Sequence[int] = PARAMETER_GRID["capacities"],
    base_config: SimulationConfig | None = None,
    algorithms: Sequence[str] = ALGORITHMS,
    use_rl: bool = False,
    session: "Session | None" = None,
) -> SweepResult:
    """Figure 6: performance while varying the maximum vehicle capacity ``Kw``."""
    base = base_config or default_config(dataset)

    def with_value(config: SimulationConfig, capacity: float) -> SimulationConfig:
        value = max(int(capacity), 2)
        return config.with_overrides(max_capacity=value, max_group_size=value)

    return _run_sweep(
        "max_capacity", capacities, dataset, base, algorithms, with_value, use_rl, session
    )
