"""Order entity (Definition 1) and its outcome record.

An order ``o(i) = <l_p, l_d, c, t, tau, eta>`` asks for ``c`` riders to
travel from pickup node ``l_p`` to dropoff node ``l_d``; it is released
at ``t``, must be dropped off before the deadline ``tau`` and prefers an
answer within the watch window ``eta``.  An order is an input: no
dispatcher writes to it, so one drawn workload serves any number of
runs.  Its fate is the outcome record the simulator produces for every
order (served or rejected), from which all of the paper's metrics are
computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..exceptions import ConfigurationError

_order_counter = itertools.count()


def _next_order_id() -> int:
    return next(_order_counter)


@dataclass
class Order:
    """A ride request.

    Attributes
    ----------
    pickup, dropoff:
        Road-network node ids of the pickup and dropoff locations.
    release_time:
        Timestamp (seconds) at which the order enters the platform.
    shortest_time:
        ``cost(l_p, l_d)``: the shortest travel time of the trip alone.
        Deadlines, watch windows and penalties are all multiples of it.
    deadline:
        Latest permissible dropoff time ``tau`` (absolute seconds).
    wait_limit:
        Preferred maximum waiting time ``eta`` (relative seconds); the
        platform may keep an order past it only to dispatch immediately,
        otherwise the order is rejected (Definition 1 discussion).
    riders:
        Number of passengers ``c`` in the request.
    order_id:
        Unique identifier; auto-assigned if not provided.
    """

    pickup: int
    dropoff: int
    release_time: float
    shortest_time: float
    deadline: float
    wait_limit: float
    riders: int = 1
    order_id: int = field(default_factory=_next_order_id)

    def __post_init__(self) -> None:
        if self.riders < 1:
            raise ConfigurationError("an order must carry at least one rider")
        if self.shortest_time < 0:
            raise ConfigurationError("shortest_time must be non-negative")
        if self.deadline < self.release_time:
            raise ConfigurationError("deadline must not precede the release time")
        if self.wait_limit < 0:
            raise ConfigurationError("wait_limit must be non-negative")

    # ------------------------------------------------------------------
    # derived quantities used throughout the paper
    # ------------------------------------------------------------------
    @property
    def max_response_time(self) -> float:
        """``max t_r = tau - t - cost(l_p, l_d)`` (Section II-B).

        Waiting longer than this necessarily violates the deadline, so it
        doubles as the rejection penalty ``p(i)``.
        """
        return max(self.deadline - self.release_time - self.shortest_time, 0.0)

    @property
    def penalty(self) -> float:
        """Rejection penalty ``p(i)`` (set to the maximum response time)."""
        return self.max_response_time

    @property
    def timeout_time(self) -> float:
        """Absolute time at which the watch window ``eta`` elapses."""
        return self.release_time + self.wait_limit

    def slack_at(self, now: float) -> float:
        """Remaining scheduling slack if dispatched alone at ``now``."""
        return self.deadline - now - self.shortest_time

    def is_expired(self, now: float) -> bool:
        """Whether the order can no longer meet its deadline even alone."""
        return self.slack_at(now) < 0

    def __hash__(self) -> int:
        return hash(self.order_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Order):
            return NotImplemented
        return self.order_id == other.order_id


@dataclass(frozen=True)
class OrderOutcome:
    """Final accounting record of one order after the simulation.

    ``extra_time`` is ``alpha * detour + beta * response`` for served
    orders; rejected orders instead contribute their ``penalty`` to the
    objective (Definition 7).
    """

    order_id: int
    served: bool
    response_time: float = 0.0
    detour_time: float = 0.0
    extra_time: float = 0.0
    penalty: float = 0.0
    group_size: int = 0
    worker_id: int | None = None
    dispatch_time: float | None = None

    def objective_contribution(self) -> float:
        """The order's term in the METRS objective (Equation 2)."""
        return self.extra_time if self.served else self.penalty
