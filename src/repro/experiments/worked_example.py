"""Reproduction of Example 1 (Section I, Figure 1, Table I).

Four orders arrive on the 6-node road network of Figure 1, served by
two idle workers.  The example contrasts four strategies:

* the non-sharing method (each order rides alone),
* the online-based method (greedy immediate insertion),
* the batch-based method (10-second batches),
* the pooling-then-grouping strategy (wait for the best partner),

and observes that letting orders wait slightly longer produces the best
grouping (o1 with o3, o2 with o4) and the smallest total travel time.
``run_worked_example`` rebuilds the scenario with the library's actual
dispatchers and reports each strategy's total worker travel time so the
qualitative ordering can be verified programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ExtraTimeWeights, SimulationConfig
from ..datasets.synthetic import Workload
from ..model.order import Order
from ..model.worker import Worker
from ..network.generators import example_network, example_node
from .runner import _simulate


@dataclass(frozen=True)
class WorkedExampleResult:
    """Total worker travel times (seconds) of each strategy on Example 1."""

    non_sharing: float
    online: float
    batch: float
    pooling: float

    def as_dict(self) -> dict[str, float]:
        """Flat mapping convenient for reports."""
        return {
            "NonSharing": self.non_sharing,
            "WATTER-online": self.online,
            "GAS (batch)": self.batch,
            "WATTER-timeout (pooling)": self.pooling,
        }


def example_orders() -> list[Order]:
    """The four orders of Table I (times in seconds, one rider each).

    The deadline is set generously (the example has no deadline
    pressure) and the watch window allows the pooling strategy to wait
    for the cross-batch partner, as the example intends.
    """
    network = example_network()
    rows = [
        (5.0, "a", "c"),
        (8.0, "d", "f"),
        (10.0, "d", "c"),
        (12.0, "e", "f"),
    ]
    orders = []
    for release, pickup_label, dropoff_label in rows:
        pickup = example_node(pickup_label)
        dropoff = example_node(dropoff_label)
        shortest = network.travel_time(pickup, dropoff)
        orders.append(
            Order(
                pickup=pickup,
                dropoff=dropoff,
                release_time=release,
                shortest_time=shortest,
                deadline=release + 6.0 * shortest,
                wait_limit=2.0 * shortest,
                riders=1,
            )
        )
    return orders


def example_workload() -> Workload:
    """Orders of Table I plus the two idle workers of Example 1."""
    network = example_network()
    workers = [
        Worker(location=example_node("d"), capacity=2),
        Worker(location=example_node("a"), capacity=2),
    ]
    return Workload(
        orders=example_orders(), workers=workers, network=network, name="Example1"
    )


def example_config() -> SimulationConfig:
    """Simulation parameters matching the example's 10-second batches."""
    return SimulationConfig(
        num_orders=4,
        num_workers=2,
        deadline_scale=6.0,
        watch_window_scale=2.0,
        max_capacity=2,
        check_period=5.0,
        time_slot=5.0,
        grid_size=3,
        horizon=60.0,
        weights=ExtraTimeWeights(),
        max_group_size=2,
        seed=1,
    )


def run_worked_example() -> WorkedExampleResult:
    """Run the four strategies of Example 1 and collect worker travel times."""
    config = example_config()
    totals = {}
    for name in ("NonSharing", "WATTER-online", "GAS", "WATTER-timeout"):
        workload = example_workload()
        result = _simulate(name, workload, config)
        totals[name] = result.metrics.worker_travel_time
    return WorkedExampleResult(
        non_sharing=totals["NonSharing"],
        online=totals["WATTER-online"],
        batch=totals["GAS"],
        pooling=totals["WATTER-timeout"],
    )
