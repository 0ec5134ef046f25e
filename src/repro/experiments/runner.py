"""Single-experiment runner: build a dispatcher, replay a workload, collect metrics.

This is the glue the sweeps, the benchmarks and the examples all share.
``run_algorithm`` runs one named algorithm on one dataset under one
configuration and returns the paper's four metrics; ``run_comparison``
runs several algorithms on the *same* generated workload (with fresh
fleet clones per run, so the runs cannot interfere).

Building WATTER-expect requires a threshold provider.  The default is
the distribution-fitted provider of Section V: a bootstrap run of
WATTER-online on a separate training workload supplies historical extra
times, a GMM is fitted to them, and the convex objective of Equation 8
is optimised per order.  Passing ``use_rl=True`` additionally trains the
value network of Section VI on experience generated from the training
workload and uses ``theta = p - V(s)`` online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..config import LearningConfig, SimulationConfig
from ..core.state import StateEncoder
from ..core.strategies import ThresholdProvider
from ..core.threshold import ThresholdOptimizer, fit_extra_time_distribution
from ..core.watter import WatterDispatcher
from ..baselines import GASDispatcher, GDPDispatcher, NonSharingDispatcher
from ..datasets.synthetic import Workload
from ..datasets.workloads import build_workload
from ..exceptions import ConfigurationError
from ..network.grid import GridIndex
from ..routing.planner import RoutePlanner
from ..simulation.dispatcher import Dispatcher
from ..simulation.engine import SimulationResult, Simulator
from ..simulation.fleet import WorkerFleet
from ..simulation.metrics import SimulationMetrics

ALGORITHMS = (
    "WATTER-expect",
    "WATTER-online",
    "WATTER-timeout",
    "GDP",
    "GAS",
    "NonSharing",
)


@dataclass(frozen=True)
class ExperimentRun:
    """One (algorithm, parameter value) cell of a sweep."""

    algorithm: str
    dataset: str
    parameter: str
    value: float
    metrics: SimulationMetrics


def _fresh_fleet(workload: Workload, config: SimulationConfig) -> WorkerFleet:
    """Clone the workload's workers into an independent fleet."""
    grid = GridIndex(workload.network, size=config.grid_size)
    return WorkerFleet(
        [worker.clone() for worker in workload.workers], workload.network, grid
    )


def build_expect_provider(
    dataset: str,
    config: SimulationConfig,
    use_rl: bool = False,
    learning_config: LearningConfig | None = None,
    training_fraction: float = 0.5,
) -> ThresholdProvider:
    """Build the threshold provider used by WATTER-expect.

    Parameters
    ----------
    dataset:
        Dataset preset the provider is calibrated for.
    config:
        The evaluation configuration; the training workload uses the
        same parameters with a different seed and a reduced order count.
    use_rl:
        When true, additionally train the value network of Section VI
        and return a :class:`ValueThresholdProvider`; otherwise return
        the GMM-based :class:`ThresholdOptimizer` of Section V.
    learning_config:
        Hyper-parameters of the value-network training (RL mode only).
    training_fraction:
        Size of the training workload relative to the evaluation one.
    """
    return _build_expect_provider(
        lambda training_config: build_workload(dataset, training_config),
        config,
        use_rl=use_rl,
        learning_config=learning_config,
        training_fraction=training_fraction,
    )


def _build_expect_provider(
    workload_for: Callable[[SimulationConfig], Workload],
    config: SimulationConfig,
    use_rl: bool = False,
    learning_config: LearningConfig | None = None,
    training_fraction: float = 0.5,
) -> ThresholdProvider:
    """Source-agnostic core of :func:`build_expect_provider`.

    ``workload_for`` maps the derived training configuration to a
    training workload; the legacy entry point binds it to the dataset
    presets, while ``repro.api.Session`` binds it to whatever source
    (grid network, CSV replay, ...) the scenario describes.
    """
    training_orders = max(int(config.num_orders * training_fraction), 50)
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

    learning = learning_config or LearningConfig()
    encoder = StateEncoder(
        GridIndex(training_workload.network, size=config.grid_size),
        time_slot=config.time_slot,
        horizon=config.horizon,
    )
    targets = optimizer.optimal_thresholds(training_workload.orders)
    transitions = generate_experience(
        training_workload, training_config, encoder, optimizer, targets
    )
    trainer = ValueFunctionTrainer(encoder, learning)
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
                "WATTER-expect needs a threshold provider; call "
                "build_expect_provider first"
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


def run_algorithm(
    algorithm: str,
    dataset: str,
    config: SimulationConfig,
    provider: ThresholdProvider | None = None,
) -> SimulationMetrics:
    """Generate the dataset's workload and run one algorithm over it.

    Thin adapter over the :mod:`repro.api` facade (kept as the
    long-standing convenience signature).
    """
    from ..api import ScenarioSpec, Session

    spec = ScenarioSpec.from_config(dataset, config, algorithm=algorithm)
    return Session().run(spec, provider=provider).metrics


def run_comparison(
    dataset: str,
    config: SimulationConfig,
    algorithms: Sequence[str] = ALGORITHMS,
    use_rl: bool = False,
) -> list[SimulationMetrics]:
    """Run several algorithms over the *same* workload and return their metrics.

    Thin adapter over :meth:`repro.api.Session.compare`; the workload,
    the threshold provider and the warmed oracle are shared across the
    compared algorithms exactly as before.
    """
    from ..api import ScenarioSpec, Session

    spec = ScenarioSpec.from_config(dataset, config, use_rl=use_rl)
    session = Session()
    return [
        run.metrics
        for run in session.compare(spec, algorithms=algorithms, use_rl=use_rl)
    ]
