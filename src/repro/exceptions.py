"""Exception hierarchy for the WATTER reproduction library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch library problems without catching unrelated Python
errors.  Subclasses distinguish the layer that failed (network queries,
route planning, pool bookkeeping, learning, configuration) because the
recovery action differs for each.
"""

from __future__ import annotations

from typing import Iterable


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An experiment or simulation configuration is inconsistent."""


class NetworkError(ReproError):
    """A road-network query failed (unknown node, disconnected pair...)."""


class UnknownNodeError(NetworkError):
    """A node id was requested that the road network does not contain."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id!r} is not part of the road network")
        self.node_id = node_id


class UnreachableError(NetworkError):
    """No path exists between two nodes of the road network."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"no path from node {source!r} to node {target!r}")
        self.source = source
        self.target = target


class RoutingError(ReproError):
    """A feasible route could not be constructed for an order group."""


class InfeasibleGroupError(RoutingError):
    """The order group admits no route satisfying all constraints."""


class PoolError(ReproError):
    """The order pool was asked to do something inconsistent."""


class DuplicateOrderError(PoolError):
    """An order id was inserted into the pool twice."""

    def __init__(self, order_id: int) -> None:
        super().__init__(f"order {order_id!r} is already in the pool")
        self.order_id = order_id


class MissingOrderError(PoolError):
    """An order id was referenced that the pool does not contain."""

    def __init__(self, order_id: int) -> None:
        super().__init__(f"order {order_id!r} is not in the pool")
        self.order_id = order_id


class LearningError(ReproError):
    """Training or evaluating the value function failed."""


class DatasetError(ReproError):
    """A workload could not be generated or parsed."""


def unknown_name(kind: str, name: object, names: Iterable[str]) -> str:
    """The one error text for a name that is not a key of its table."""
    return f"unknown {kind} {name!r}; expected one of {tuple(names)}"
