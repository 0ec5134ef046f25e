"""Configuration dataclasses shared across the library.

The defaults mirror Table III of the paper ("Experimental Settings"),
scaled down so a full sweep finishes on a laptop-class machine:

* the paper's default workload is 100K orders (NYC) / 50K (CDC, XIA)
  served by 5K workers over one day; the reproduction defaults to a few
  thousand orders over a few simulated hours on a synthetic network,
* the deadline scale ``tau`` and the watch-window scale ``eta`` keep the
  paper's values because they are dimensionless multipliers of the
  shortest travel time,
* the extra-time trade-off coefficients ``alpha`` and ``beta`` default
  to 1 as in Definition 6,
* the rejection penalty is ``10 x cost(pickup, dropoff)`` following the
  Unified Cost setup the paper borrows from [9].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .exceptions import ConfigurationError


@dataclass(frozen=True)
class ExtraTimeWeights:
    """Trade-off coefficients of Definition 6: ``t_e = alpha*t_d + beta*t_r``."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError("extra-time weights must be non-negative")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of a single simulated day of dispatching.

    Attributes
    ----------
    num_orders:
        Number of ride requests released during the horizon (paper: n).
    num_workers:
        Number of vehicles available (paper: m).
    deadline_scale:
        ``tau``: the drop-off deadline of an order is
        ``release + tau * shortest_travel_time``.
    watch_window_scale:
        ``eta``: the preferred waiting limit of an order is
        ``eta * shortest_travel_time`` (Section VII-A).
    max_capacity:
        ``Kw``: vehicle capacities are sampled uniformly from
        ``[2, max_capacity]``.
    check_period:
        Period (seconds) of the asynchronous pool check of Algorithm 1.
    time_slot:
        ``delta_t`` (seconds): width of the MDP decision time slot.
    grid_size:
        The city is divided into ``grid_size x grid_size`` cells for the
        spatial index and the MDP state features.
    penalty_factor:
        Unified-cost rejection penalty multiplier (paper uses 10).
    horizon:
        Length of the simulated period in seconds.
    weights:
        Extra-time trade-off coefficients (alpha, beta).
    max_group_size:
        Upper bound on the number of orders grouped together (a k-clique
        of size ``k`` corresponds to ``k`` riders when every order holds
        one passenger, Section VII-A).
    seed:
        Seed for every random decision made during the simulation.
    """

    num_orders: int = 2000
    num_workers: int = 120
    deadline_scale: float = 1.6
    watch_window_scale: float = 0.8
    max_capacity: int = 4
    check_period: float = 10.0
    time_slot: float = 10.0
    grid_size: int = 10
    penalty_factor: float = 10.0
    horizon: float = 4 * 3600.0
    weights: ExtraTimeWeights = field(default_factory=ExtraTimeWeights)
    max_group_size: int = 4
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_orders <= 0:
            raise ConfigurationError("num_orders must be positive")
        if self.num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        if self.deadline_scale <= 1.0:
            raise ConfigurationError(
                "deadline_scale must exceed 1.0, otherwise no order can ever "
                "be served within its deadline"
            )
        if self.watch_window_scale < 0:
            raise ConfigurationError("watch_window_scale must be non-negative")
        if self.max_capacity < 2:
            raise ConfigurationError("max_capacity must be at least 2")
        if self.check_period <= 0:
            raise ConfigurationError("check_period must be positive")
        if self.time_slot <= 0:
            raise ConfigurationError("time_slot must be positive")
        if self.grid_size <= 0:
            raise ConfigurationError("grid_size must be positive")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.max_group_size < 1:
            raise ConfigurationError("max_group_size must be at least 1")

    def with_overrides(self, **overrides: Any) -> "SimulationConfig":
        """Return a copy with the given fields replaced.

        ``ConfigurationError`` is raised if an unknown field is supplied
        so sweep definitions fail loudly instead of silently ignoring a
        typo.
        """
        known = set(self.__dataclass_fields__)
        unknown = set(overrides) - known
        if unknown:
            raise ConfigurationError(
                f"unknown SimulationConfig fields: {sorted(unknown)}"
            )
        return replace(self, **overrides)

    def as_dict(self) -> Mapping[str, Any]:
        """Return a flat dictionary view (weights are expanded)."""
        data = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name != "weights"
        }
        data["alpha"] = self.weights.alpha
        data["beta"] = self.weights.beta
        return data


@dataclass(frozen=True)
class LearningConfig:
    """Hyper-parameters of the offline value-function training stage.

    The paper trains a DQN-style value network from replayed experience
    (Section VI-B).  The sizes below are chosen for the small synthetic
    state dimensionality of this reproduction.
    """

    hidden_sizes: tuple[int, ...] = (64, 32)
    learning_rate: float = 1e-3
    discount: float = 1.0
    batch_size: int = 64
    replay_capacity: int = 50_000
    target_sync_period: int = 200
    epochs: int = 5
    loss_weight: float = 0.5
    seed: int = 13

    def __post_init__(self) -> None:
        if not self.hidden_sizes:
            raise ConfigurationError("hidden_sizes must not be empty")
        if any(size <= 0 for size in self.hidden_sizes):
            raise ConfigurationError("hidden layer sizes must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= self.discount <= 1.0:
            raise ConfigurationError("discount must lie in [0, 1]")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.replay_capacity <= 0:
            raise ConfigurationError("replay_capacity must be positive")
        if self.target_sync_period <= 0:
            raise ConfigurationError("target_sync_period must be positive")
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if not 0.0 <= self.loss_weight <= 1.0:
            raise ConfigurationError("loss_weight (omega) must lie in [0, 1]")
