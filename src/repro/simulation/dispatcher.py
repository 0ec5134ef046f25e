"""Dispatcher interface shared by WATTER and every baseline.

The simulation engine drives a dispatcher through three calls:

* ``submit(order, now)`` — a new order is released to the platform,
* ``tick(now)`` — a periodic check; the dispatcher may serve or reject
  orders and reports what happened,
* ``flush(now)`` — end of the horizon; whatever is still pending must be
  resolved (typically rejected).

Results are exchanged as :class:`ServedOrder` / rejected-order records
carrying the exact quantities the paper's metrics are computed from
(response time, detour time, group size, worker), so the metrics
collector never needs to reach back into dispatcher internals.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..model.group import Group
    from ..model.order import Order
    from .fleet import WorkerFleet


@dataclass(frozen=True)
class ServedOrder:
    """Accounting record of one successfully dispatched order."""

    order: "Order"
    response_time: float
    detour_time: float
    dispatch_time: float
    worker_id: int
    group_size: int


@dataclass(frozen=True)
class DispatchResult:
    """What a dispatcher accomplished during one call."""

    served: tuple[ServedOrder, ...] = field(default_factory=tuple)
    rejected: tuple["Order", ...] = field(default_factory=tuple)

    @staticmethod
    def empty() -> "DispatchResult":
        """A result with nothing served and nothing rejected."""
        return DispatchResult()

    def merge(self, other: "DispatchResult") -> "DispatchResult":
        """Combine two results (used when a call has several phases)."""
        return DispatchResult(
            served=self.served + other.served,
            rejected=self.rejected + other.rejected,
        )

    def __bool__(self) -> bool:
        return bool(self.served or self.rejected)


class Dispatcher(abc.ABC):
    """Base class every dispatching algorithm implements."""

    name: str = "dispatcher"

    @abc.abstractmethod
    def submit(self, order: "Order", now: float) -> DispatchResult:
        """Receive a newly released order.

        Online algorithms may serve or reject it immediately; pooling
        algorithms typically just enqueue it and return an empty result.
        """

    @abc.abstractmethod
    def tick(self, now: float) -> DispatchResult:
        """Run one periodic check at time ``now``."""

    def flush(self, now: float) -> DispatchResult:
        """Resolve everything still pending at the end of the horizon."""
        return DispatchResult.empty()

    def describe(self) -> str:
        """Human-readable algorithm name used in experiment reports."""
        return self.name


def served_orders_from_group(
    group: "Group", dispatch_time: float, worker_id: int
) -> tuple[ServedOrder, ...]:
    """Convert a dispatched group into per-order accounting records."""
    records = []
    for order in group.orders:
        records.append(
            ServedOrder(
                order=order,
                response_time=group.response_time(order, dispatch_time),
                detour_time=group.detour_time(order),
                dispatch_time=dispatch_time,
                worker_id=worker_id,
                group_size=len(group),
            )
        )
    return tuple(records)


def book_group(
    fleet: "WorkerFleet", group: "Group", now: float
) -> tuple[ServedOrder, ...] | None:
    """Book ``group`` onto its nearest feasible idle worker.

    Marks the members dispatched and returns their accounting records,
    or ``None`` when no idle worker can serve it.  It asks the fleet by
    its ``find_worker_for`` and ``assign``, so whatever wraps those two
    sees every booking.
    """
    worker = fleet.find_worker_for(group, now)
    if worker is None:
        return None
    fleet.assign(worker, group, now)
    return served_orders_from_group(group, now, worker.worker_id)
