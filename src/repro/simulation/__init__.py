"""Event-driven ridesharing simulation: fleet, dispatchers, engine, metrics."""

from .fleet import WorkerFleet, Assignment
from .spatial import WorkerSpatialIndex
from .dispatcher import Dispatcher, ServedOrder, DispatchResult, served_orders_from_group
from .hooks import SimulationHooks
from .metrics import MetricsCollector, SimulationMetrics
from .engine import Simulator, SimulationResult

__all__ = [
    "WorkerFleet",
    "WorkerSpatialIndex",
    "Assignment",
    "Dispatcher",
    "ServedOrder",
    "DispatchResult",
    "served_orders_from_group",
    "MetricsCollector",
    "SimulationHooks",
    "SimulationMetrics",
    "Simulator",
    "SimulationResult",
]
