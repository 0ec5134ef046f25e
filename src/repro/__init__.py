"""Reproduction of "Wait to be Faster: A Smart Pooling Framework for Dynamic Ridesharing".

The package implements the WATTER framework (ICDE 2024) and everything it
needs to run end-to-end: a road-network substrate, a ridesharing
simulator, the GDP / GAS baselines, the distribution-fitting and
reinforcement-learning threshold estimators, and an experiment harness
that regenerates every figure of the paper's evaluation.

Quick start::

    from repro import ScenarioSpec, Session, format_comparison_table

    spec = ScenarioSpec(dataset="CDC", num_orders=300, num_workers=30)
    runs = Session().compare(
        spec, algorithms=("WATTER-expect", "WATTER-online", "GDP")
    )
    print(format_comparison_table([run.metrics for run in runs]))
"""

from .config import ExtraTimeWeights, LearningConfig, SimulationConfig
from .exceptions import (
    ConfigurationError,
    DatasetError,
    DependencyError,
    InfeasibleGroupError,
    LearningError,
    NetworkError,
    PoolError,
    ReproError,
    RoutingError,
)
from .model import Group, Order, OrderOutcome, OrderStatus, Route, Worker
from .network import (
    RoadNetwork,
    GridIndex,
    grid_city,
    manhattan_like_city,
    example_network,
    CHOracle,
    DistanceOracle,
    LazyDijkstraOracle,
    MatrixOracle,
    OracleStats,
    available_backends,
    configure_oracle,
    create_oracle,
)
from .routing import RoutePlanner
from .core import (
    OrderPool,
    TemporalShareabilityGraph,
    OnlineStrategy,
    TimeoutStrategy,
    ThresholdStrategy,
    ThresholdOptimizer,
    GaussianMixture,
    StateEncoder,
    WatterDispatcher,
    fit_extra_time_distribution,
)
from .baselines import GASDispatcher, GDPDispatcher, NonSharingDispatcher
from .datasets import build_workload, CityModel, Workload
from .simulation import Simulator, SimulationResult, WorkerFleet, MetricsCollector
from .learning import ValueFunctionTrainer, ValueThresholdProvider, generate_experience
from .experiments import (
    default_config,
    run_sweep,
    run_worked_example,
    format_sweep_table,
    format_comparison_table,
)
from .api import (
    RunResult,
    ScenarioSpec,
    Session,
    SimulationHooks,
    load_spec,
    run_scenario,
    save_spec,
)

__version__ = "1.0.0"

__all__ = [
    "ExtraTimeWeights",
    "LearningConfig",
    "SimulationConfig",
    "ReproError",
    "ConfigurationError",
    "NetworkError",
    "RoutingError",
    "InfeasibleGroupError",
    "PoolError",
    "LearningError",
    "DependencyError",
    "DatasetError",
    "Order",
    "OrderOutcome",
    "OrderStatus",
    "Worker",
    "Group",
    "Route",
    "RoadNetwork",
    "GridIndex",
    "grid_city",
    "manhattan_like_city",
    "example_network",
    "CHOracle",
    "DistanceOracle",
    "LazyDijkstraOracle",
    "MatrixOracle",
    "OracleStats",
    "available_backends",
    "configure_oracle",
    "create_oracle",
    "RoutePlanner",
    "OrderPool",
    "TemporalShareabilityGraph",
    "OnlineStrategy",
    "TimeoutStrategy",
    "ThresholdStrategy",
    "ThresholdOptimizer",
    "GaussianMixture",
    "StateEncoder",
    "WatterDispatcher",
    "fit_extra_time_distribution",
    "GDPDispatcher",
    "GASDispatcher",
    "NonSharingDispatcher",
    "build_workload",
    "CityModel",
    "Workload",
    "Simulator",
    "SimulationResult",
    "WorkerFleet",
    "MetricsCollector",
    "ValueFunctionTrainer",
    "ValueThresholdProvider",
    "generate_experience",
    "default_config",
    "run_sweep",
    "run_worked_example",
    "format_sweep_table",
    "format_comparison_table",
    "ScenarioSpec",
    "Session",
    "RunResult",
    "SimulationHooks",
    "run_scenario",
    "load_spec",
    "save_spec",
    "__version__",
]
