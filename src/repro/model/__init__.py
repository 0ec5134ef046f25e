"""Domain entities: orders, workers, groups, routes."""

from .order import Order, OrderOutcome
from .worker import Worker, WorkerStatus
from .group import Group
from .route import Route, RouteStop, StopKind

__all__ = [
    "Order",
    "OrderOutcome",
    "Worker",
    "WorkerStatus",
    "Group",
    "Route",
    "RouteStop",
    "StopKind",
]
