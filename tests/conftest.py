"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from repro.api import ScenarioSpec, Session
from repro.config import ExtraTimeWeights, SimulationConfig
from repro.durability import Checkpointer
from repro.experiments.runner import make_dispatcher
from repro.model.order import Order
from repro.model.worker import Worker
from repro.network.generators import example_network, grid_city
from repro.network.grid import GridIndex
from repro.resilience import CancellationToken, RunCancelled
from repro.routing.planner import RoutePlanner
from repro.simulation.engine import Simulator
from repro.simulation.fleet import WorkerFleet
from repro.simulation.hooks import CompositeHooks, SimulationHooks

# CI sets HYPOTHESIS_PROFILE=ci: the same examples on every run, no
# example database, and the reproduction blob printed with a failure,
# so a red leg can be replayed from its log alone.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def small_network():
    """A 6x6 grid city with deterministic 60-second edges."""
    return grid_city(rows=6, cols=6, edge_travel_time=60.0, jitter=0.0, seed=0)


@pytest.fixture
def figure1_network():
    """The 6-node network of Figure 1 / Example 1."""
    return example_network()


@pytest.fixture
def planner(small_network):
    """A route planner over the small grid network."""
    return RoutePlanner(small_network)


@pytest.fixture
def base_config():
    """A small but valid simulation configuration."""
    return SimulationConfig(
        num_orders=20,
        num_workers=4,
        deadline_scale=1.8,
        watch_window_scale=0.8,
        max_capacity=4,
        check_period=10.0,
        time_slot=10.0,
        grid_size=4,
        horizon=1800.0,
        weights=ExtraTimeWeights(),
        max_group_size=3,
        seed=3,
    )


def make_order(
    network,
    pickup: int,
    dropoff: int,
    release: float = 0.0,
    deadline_scale: float = 1.8,
    watch_scale: float = 0.8,
    riders: int = 1,
    order_id: int | None = None,
) -> Order:
    """Build an order with deadlines derived the same way the datasets do."""
    shortest = network.travel_time(pickup, dropoff)
    kwargs = dict(
        pickup=pickup,
        dropoff=dropoff,
        release_time=release,
        shortest_time=shortest,
        deadline=release + deadline_scale * shortest,
        wait_limit=watch_scale * shortest,
        riders=riders,
    )
    if order_id is not None:
        kwargs["order_id"] = order_id
    return Order(**kwargs)


def run_on_workload(algorithm, workload, config, provider=None):
    """Run one algorithm over a pre-built workload, straight on the engine."""
    dispatcher = make_dispatcher(algorithm, workload, config, provider)
    return Simulator(workload, dispatcher, config).run()


class _CancelAfterTicks(SimulationHooks):
    """Cancels a token after N periodic checks — a deterministic cut."""

    def __init__(self, token: CancellationToken, ticks: int) -> None:
        self._token = token
        self._remaining = ticks

    def on_periodic_check(self, now: float) -> None:
        self._remaining -= 1
        if self._remaining <= 0:
            self._token.cancel("test interruption")


def interrupt_and_checkpoint(
    session: Session, spec: ScenarioSpec, path: Path, *, cut: int, interval: int = 1
) -> None:
    """Run ``spec`` until ``cut`` ticks, leaving a forced checkpoint."""
    token = CancellationToken()
    hooks = CompositeHooks(
        [Checkpointer(path, interval=interval), _CancelAfterTicks(token, cut)]
    )
    with pytest.raises(RunCancelled):
        session.run(spec, hooks=hooks, cancellation=token)
    assert path.exists(), "the cancelled run must leave a forced checkpoint"


@pytest.fixture
def order_factory(small_network):
    """Factory building orders on the small grid network."""

    def factory(pickup, dropoff, release=0.0, **kwargs):
        return make_order(small_network, pickup, dropoff, release, **kwargs)

    return factory


@pytest.fixture
def fleet_factory(small_network):
    """Factory building a fleet of idle workers on the small grid network."""

    def factory(locations=(0, 5, 30, 35), capacity=4):
        workers = [Worker(location=loc, capacity=capacity) for loc in locations]
        return WorkerFleet(workers, small_network, GridIndex(small_network, size=3))

    return factory
