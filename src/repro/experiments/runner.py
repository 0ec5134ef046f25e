"""Dispatcher construction and the WATTER-expect threshold bootstrap.

``make_dispatcher`` instantiates a named algorithm over a fresh clone of
a workload's fleet, so runs over one workload cannot interfere.
Scenarios are run through :class:`repro.api.Session`, which calls both
functions here.

Building WATTER-expect requires a threshold provider.  The default is
the distribution-fitted provider of Section V: a bootstrap run of
WATTER-timeout on a separate training workload supplies historical extra
times, a GMM is fitted to them, and the convex objective of Equation 8
is optimised per order.  With ``use_rl=True`` the bootstrap additionally
trains the value network of Section VI on experience generated from the
training workload and uses ``theta = p - V(s)`` online.
"""

from __future__ import annotations

from typing import Callable

from ..config import LearningConfig, SimulationConfig
from ..core.state import StateEncoder
from ..core.strategies import ThresholdProvider
from ..core.threshold import ThresholdOptimizer, fit_extra_time_distribution
from ..core.watter import WatterDispatcher
from ..baselines import GASDispatcher, GDPDispatcher, NonSharingDispatcher
from ..datasets.synthetic import Workload
from ..exceptions import ConfigurationError
from ..network.grid import GridIndex
from ..routing.planner import RoutePlanner
from ..simulation.dispatcher import Dispatcher
from ..simulation.engine import SimulationResult, Simulator
from ..simulation.fleet import WorkerFleet

ALGORITHMS = (
    "WATTER-expect",
    "WATTER-online",
    "WATTER-timeout",
    "GDP",
    "GAS",
    "NonSharing",
)

#: Size of the bootstrap's training workload relative to the evaluated one.
_TRAINING_FRACTION = 0.5


def _fresh_fleet(workload: Workload, config: SimulationConfig) -> WorkerFleet:
    """Clone the workload's workers into an independent fleet."""
    grid = GridIndex(workload.network, size=config.grid_size)
    return WorkerFleet(
        [worker.clone() for worker in workload.workers], workload.network, grid
    )


def _build_expect_provider(
    workload_for: Callable[[SimulationConfig], Workload],
    config: SimulationConfig,
    use_rl: bool = False,
) -> ThresholdProvider:
    """Bootstrap the WATTER-expect threshold provider for ``config``.

    ``workload_for`` maps the derived training configuration to a
    training workload; ``repro.api.Session`` binds it to whatever source
    (dataset preset, grid network, CSV replay, ...) the scenario
    describes.
    """
    training_orders = max(int(config.num_orders * _TRAINING_FRACTION), 50)
    training_config = config.with_overrides(
        num_orders=training_orders, seed=config.seed + 1000
    )
    training_workload = workload_for(training_config)
    # The bootstrap uses the timeout strategy because its dispatches are
    # dominated by *shared* groups, so the recorded extra times cover the
    # range the threshold must discriminate over (an online bootstrap would
    # record mostly near-zero extra times and collapse the fit).
    bootstrap = _simulate("WATTER-timeout", training_workload, training_config)
    extra_times = [
        outcome.extra_time
        for outcome in bootstrap.collector.outcomes
        if outcome.served and outcome.extra_time > 0
    ]
    if len(extra_times) < 5:
        # Degenerate training run (tiny workload): fall back to the mean
        # slack so the strategy still has a usable reference point.
        extra_times = [order.penalty * 0.5 for order in training_workload.orders]
    mixture = fit_extra_time_distribution(extra_times, seed=config.seed)
    optimizer = ThresholdOptimizer(mixture)
    if not use_rl:
        return optimizer

    from ..learning.trainer import ValueFunctionTrainer, generate_experience

    encoder = StateEncoder(
        GridIndex(training_workload.network, size=config.grid_size),
        time_slot=config.time_slot,
        horizon=config.horizon,
    )
    targets = optimizer.optimal_thresholds(training_workload.orders)
    transitions = generate_experience(
        training_workload, training_config, encoder, optimizer, targets
    )
    trainer = ValueFunctionTrainer(encoder, LearningConfig())
    trainer.add_experience(transitions)
    trainer.train()
    return trainer.build_provider()


def make_dispatcher(
    algorithm: str,
    workload: Workload,
    config: SimulationConfig,
    provider: ThresholdProvider | None = None,
) -> Dispatcher:
    """Instantiate a named algorithm over a fresh fleet for ``workload``."""
    fleet = _fresh_fleet(workload, config)
    planner = RoutePlanner(workload.network)
    name = algorithm.lower()
    if name == "watter-online":
        return WatterDispatcher.online(planner, fleet, config)
    if name == "watter-timeout":
        return WatterDispatcher.timeout(planner, fleet, config)
    if name == "watter-expect":
        if provider is None:
            raise ConfigurationError(
                "WATTER-expect needs a threshold provider; take one from "
                "repro.api.Session.expect_provider"
            )
        dispatcher = WatterDispatcher.expect(planner, fleet, config, provider)
        bind = getattr(provider, "bind", None)
        if callable(bind):
            bind(dispatcher.pool, dispatcher.fleet)
        return dispatcher
    if name == "gdp":
        return GDPDispatcher(workload.network, fleet, config)
    if name == "gas":
        return GASDispatcher(planner, fleet, config)
    if name == "nonsharing":
        return NonSharingDispatcher(planner, fleet, config)
    raise ConfigurationError(
        f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
    )


def _simulate(
    algorithm: str,
    workload: Workload,
    config: SimulationConfig,
    provider: ThresholdProvider | None = None,
) -> SimulationResult:
    """Run one algorithm over an already-generated workload (internal)."""
    dispatcher = make_dispatcher(algorithm, workload, config, provider)
    return Simulator(workload, dispatcher, config).run()
