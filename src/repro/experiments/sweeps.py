"""The paper's one-parameter experiments as one axis table.

Figures 3-6 vary the riders ``n``, the workers ``m``, the deadline scale
``tau`` and the vehicle capacity ``Kw``; the appendix ablations vary the
grid-index size, the watch window ``eta``, the time slot ``delta_t`` and
the value network's loss weight ``omega``.
Each is "vary one parameter, compare the algorithms", so each is one
entry of :data:`AXES`: the swept spec field, its Table III values
(scaled, see :mod:`repro.experiments.config`) and how one value rewrites
the base :class:`~repro.api.ScenarioSpec`.

:func:`run_sweep` is the one sweep: it runs
:meth:`~repro.api.Session.compare` at every value of an axis, and the
whole sweep shares one :class:`~repro.api.Session`, so the road network
and any oracle preprocessing are built once (pass ``session=`` to share
one further, or to give it an on-disk oracle cache).  The returned
:class:`SweepPoint` records render with
:func:`repro.experiments.reporting.format_sweep_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, TYPE_CHECKING

from ..exceptions import ConfigurationError
from .config import PARAMETER_GRID, worker_counts_scaled
from .runner import ALGORITHMS

if TYPE_CHECKING:  # pragma: no cover
    from ..api import RunResult, ScenarioSpec, Session


@dataclass(frozen=True)
class Axis:
    """One sweepable parameter: its default values and its spec rewrite."""

    values: tuple[Any, ...]
    apply: Callable[["ScenarioSpec", Any], "ScenarioSpec"]


@dataclass(frozen=True)
class SweepPoint:
    """One value of a swept axis and the runs measured there."""

    parameter: str
    value: Any
    results: tuple["RunResult", ...]


def _orders(spec: "ScenarioSpec", fraction: float) -> "ScenarioSpec":
    # Figure 3 sweeps n as a fraction of the base scenario's order count.
    count = max(int(spec.config().num_orders * fraction), 10)
    return spec.with_overrides(num_orders=count)


def _capacity(spec: "ScenarioSpec", capacity: float) -> "ScenarioSpec":
    value = max(int(capacity), 2)
    return spec.with_overrides(max_capacity=value, max_group_size=value)


def _time_slot(spec: "ScenarioSpec", slot: float) -> "ScenarioSpec":
    # The check period follows the time slot: a larger delta_t means
    # fewer, cheaper pool checks but coarser decisions.
    return spec.with_overrides(time_slot=float(slot), check_period=float(slot))


#: Axis name (the swept field) -> its default values and spec rewrite.
AXES: dict[str, Axis] = {
    # Figure 3: riders n
    "num_orders": Axis(PARAMETER_GRID["order_fractions"], _orders),
    # Figure 4: workers m
    "num_workers": Axis(
        worker_counts_scaled(),
        lambda spec, count: spec.with_overrides(num_workers=max(int(count), 1)),
    ),
    # Figure 5: deadline scale tau
    "deadline_scale": Axis(
        PARAMETER_GRID["deadline_scales"],
        lambda spec, scale: spec.with_overrides(deadline_scale=float(scale)),
    ),
    # Figure 6: vehicle capacity Kw
    "max_capacity": Axis(PARAMETER_GRID["capacities"], _capacity),
    # Appendix D: grid-index size
    "grid_size": Axis(
        PARAMETER_GRID["grid_sizes"],
        lambda spec, size: spec.with_overrides(grid_size=int(size)),
    ),
    # Appendix F: watch-window scale eta
    "watch_window_scale": Axis(
        PARAMETER_GRID["watch_windows"],
        lambda spec, eta: spec.with_overrides(watch_window_scale=float(eta)),
    ),
    # Appendix G: decision time slot delta_t
    "time_slot": Axis(PARAMETER_GRID["time_slots"], _time_slot),
    # Appendix C/E: the value network's TD / target loss weight omega
    "loss_weight": Axis(
        PARAMETER_GRID["loss_weights"],
        lambda spec, omega: spec.with_overrides(use_rl=True, loss_weight=float(omega)),
    ),
}


def run_sweep(
    axis: str,
    spec: "ScenarioSpec",
    *,
    values: Sequence[Any] | None = None,
    algorithms: Sequence[str] = ALGORITHMS,
    session: "Session | None" = None,
) -> "list[SweepPoint]":
    """Vary one axis of :data:`AXES` around ``spec``, comparing ``algorithms``.

    ``values`` defaults to the axis's Table III values; each value
    rewrites ``spec`` through the axis's ``apply``.
    """
    from ..api import Session

    try:
        entry = AXES[axis]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; expected one of {sorted(AXES)}"
        ) from None
    session = session or Session()
    return [
        SweepPoint(
            parameter=axis,
            value=value,
            results=tuple(
                session.compare(entry.apply(spec, value), algorithms=algorithms)
            ),
        )
        for value in (entry.values if values is None else values)
    ]
