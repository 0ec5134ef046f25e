"""Synthetic workload generation.

The paper's experiments replay real order logs (NYC yellow taxi, Didi
GAIA Chengdu/Xi'an).  Those logs are not redistributable, so this module
provides a *demand model* that generates statistically similar
workloads:

* demand is a mixture of spatial **hotspots** (popular pickup / dropoff
  areas) plus a uniform background, reproducing the spatial clustering
  that makes pooling worthwhile,
* arrivals follow an inhomogeneous Poisson process with configurable
  **peak periods**, reproducing rush-hour surges,
* worker start locations are sampled from the pickup distribution, the
  same choice the paper makes (Section VII-A), and vehicle capacities
  are uniform on ``[2, Kw]``.

The generator produces plain :class:`~repro.model.order.Order` /
:class:`~repro.model.worker.Worker` objects, so everything downstream is
agnostic to whether the workload came from this model or from a real
CSV imported via :mod:`repro.datasets.io`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from ..config import SimulationConfig
from ..exceptions import DatasetError
from ..model.order import Order
from ..model.worker import Worker
from ..network.graph import RoadNetwork


@dataclass(frozen=True)
class DemandHotspot:
    """A popular area of the city.

    Attributes
    ----------
    x, y:
        Centre of the hotspot in network coordinates.
    spread:
        Standard deviation (coordinate units) of the Gaussian around the
        centre from which nodes are drawn.
    weight:
        Relative probability mass of the hotspot.
    """

    x: float
    y: float
    spread: float
    weight: float = 1.0


@dataclass(frozen=True)
class PeakPeriod:
    """A demand surge: arrival rate is multiplied by ``intensity`` inside it."""

    start: float
    end: float
    intensity: float = 2.0


@dataclass
class Workload:
    """A generated day of demand: orders sorted by release time plus workers."""

    orders: list[Order]
    workers: list[Worker]
    network: RoadNetwork
    name: str = "synthetic"

    def __post_init__(self) -> None:
        self.orders = sorted(self.orders, key=lambda order: order.release_time)

    def __len__(self) -> int:
        return len(self.orders)


@dataclass
class CityModel:
    """A city's road network plus its demand characteristics.

    The three dataset presets in :mod:`repro.datasets.workloads`
    instantiate this class with different networks, hotspot layouts and
    dispersion levels to mimic NYC / Chengdu / Xi'an.
    """

    name: str
    network: RoadNetwork
    pickup_hotspots: Sequence[DemandHotspot]
    dropoff_hotspots: Sequence[DemandHotspot]
    uniform_fraction: float = 0.2
    peak_periods: Sequence[PeakPeriod] = field(default_factory=tuple)
    min_trip_time: float = 180.0
    #: When set, dropoffs are sampled as a Gaussian displacement of this
    #: spread (coordinate units) around the pickup instead of from the
    #: dropoff hotspots, and trip times come from an early-terminating
    #: Dijkstra instead of the network's oracle.  This keeps workload
    #: generation on a 10^5-node city linear in the explored
    #: neighbourhood — no full single-source distance map per order.
    local_trip_spread: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.uniform_fraction <= 1.0:
            raise DatasetError("uniform_fraction must lie in [0, 1]")
        if not self.pickup_hotspots or not self.dropoff_hotspots:
            raise DatasetError("a city model needs at least one hotspot per side")
        if self.local_trip_spread is not None and self.local_trip_spread <= 0:
            raise DatasetError("local_trip_spread must be positive when set")

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_pickup(self, rng: random.Random) -> int:
        """Draw a pickup node from the demand distribution."""
        return self._sample_node(self.pickup_hotspots, rng)

    def sample_dropoff(self, rng: random.Random) -> int:
        """Draw a dropoff node from the demand distribution."""
        return self._sample_node(self.dropoff_hotspots, rng)

    def arrival_rate_multiplier(self, time: float) -> float:
        """Demand intensity at ``time`` relative to the base rate."""
        multiplier = 1.0
        for peak in self.peak_periods:
            if peak.start <= time < peak.end:
                multiplier = max(multiplier, peak.intensity)
        return multiplier

    def generate(self, config: SimulationConfig) -> Workload:
        """Generate a full workload for the given simulation configuration."""
        rng = random.Random(config.seed)
        orders = self._generate_orders(config, rng)
        workers = self._generate_workers(config, rng, orders)
        return Workload(orders=orders, workers=workers, network=self.network, name=self.name)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _generate_orders(
        self, config: SimulationConfig, rng: random.Random
    ) -> list[Order]:
        release_times = self._arrival_times(config, rng)
        orders: list[Order] = []
        for release in release_times:
            order = self._sample_order(release, config, rng)
            if order is not None:
                orders.append(order)
        if not orders:
            raise DatasetError(
                "workload generation produced no feasible orders; "
                "check the network connectivity and min_trip_time"
            )
        return orders

    def _arrival_times(
        self, config: SimulationConfig, rng: random.Random
    ) -> list[float]:
        """Thinning-free arrival sampling: draw times from the intensity profile.

        The profile is discretised into one-minute bins whose weights are
        the intensity multipliers; ``num_orders`` timestamps are then
        drawn from that categorical distribution and jittered inside the
        bin.  This gives exactly the requested order count (the sweeps
        vary ``n`` directly) while preserving the peak structure.
        """
        bin_width = 60.0
        num_bins = max(int(math.ceil(config.horizon / bin_width)), 1)
        weights = [
            self.arrival_rate_multiplier(index * bin_width) for index in range(num_bins)
        ]
        total = sum(weights)
        times = []
        for _ in range(config.num_orders):
            pick = rng.uniform(0.0, total)
            acc = 0.0
            chosen = num_bins - 1
            for index, weight in enumerate(weights):
                acc += weight
                if pick <= acc:
                    chosen = index
                    break
            times.append(
                min(chosen * bin_width + rng.uniform(0.0, bin_width), config.horizon)
            )
        times.sort()
        return times

    def _sample_order(
        self, release: float, config: SimulationConfig, rng: random.Random
    ) -> Order | None:
        for _ in range(20):  # retry until the trip is long enough and reachable
            pickup = self.sample_pickup(rng)
            if self.local_trip_spread is not None:
                dropoff = self._sample_local_dropoff(pickup, rng)
            else:
                dropoff = self.sample_dropoff(rng)
            if pickup == dropoff:
                continue
            shortest = self._trip_time(pickup, dropoff)
            if shortest is None or shortest < self.min_trip_time:
                continue
            deadline = release + config.deadline_scale * shortest
            wait_limit = config.watch_window_scale * shortest
            return Order(
                pickup=pickup,
                dropoff=dropoff,
                release_time=release,
                shortest_time=shortest,
                deadline=deadline,
                wait_limit=wait_limit,
                riders=1,
            )
        return None

    def _trip_time(self, pickup: int, dropoff: int) -> float | None:
        """Shortest travel time, or ``None`` when the pair is unreachable.

        Local-trip cities answer with a point-to-point Dijkstra that
        stops at the dropoff (the explored region is proportional to the
        trip, not the city); hotspot cities keep going through the
        network's oracle so its per-source cache warms for the run.
        """
        if self.local_trip_spread is not None:
            found = self.network.graph.shortest_path(pickup, dropoff)
            return None if found is None else found[0]
        if not self.network.is_reachable(pickup, dropoff):
            return None
        return self.network.travel_time(pickup, dropoff)

    def _sample_local_dropoff(self, pickup: int, rng: random.Random) -> int:
        """A dropoff displaced from the pickup by a Gaussian step."""
        x, y = self.network.coordinates(pickup)
        return self.network.nearest_node(
            rng.gauss(x, self.local_trip_spread),
            rng.gauss(y, self.local_trip_spread),
        )

    def _generate_workers(
        self, config: SimulationConfig, rng: random.Random, orders: Sequence[Order]
    ) -> list[Worker]:
        pickup_nodes = [order.pickup for order in orders]
        workers = []
        for _ in range(config.num_workers):
            location = rng.choice(pickup_nodes) if pickup_nodes else self._any_node(rng)
            capacity = rng.randint(2, config.max_capacity)
            workers.append(Worker(location=location, capacity=capacity))
        return workers

    def _any_node(self, rng: random.Random) -> int:
        nodes = self.network.nodes_sorted()
        return nodes[rng.randrange(len(nodes))]

    def _sample_node(
        self, hotspots: Sequence[DemandHotspot], rng: random.Random
    ) -> int:
        if rng.random() < self.uniform_fraction:
            return self._any_node(rng)
        weights = [spot.weight for spot in hotspots]
        total = sum(weights)
        pick = rng.uniform(0.0, total)
        acc = 0.0
        chosen = hotspots[-1]
        for spot, weight in zip(hotspots, weights):
            acc += weight
            if pick <= acc:
                chosen = spot
                break
        x = rng.gauss(chosen.x, chosen.spread)
        y = rng.gauss(chosen.y, chosen.spread)
        return self.network.nearest_node(x, y)
