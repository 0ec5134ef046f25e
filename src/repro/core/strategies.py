"""Dispatch decision strategies (Section IV-B and Algorithm 2).

A strategy answers one question: *given an order's current best group,
should the group be dispatched now or held for a potentially better
group later?*  The paper discusses three answers:

* ``OnlineStrategy`` — dispatch as early as possible (WATTER-online),
* ``TimeoutStrategy`` — dispatch as late as possible, i.e. only when
  some member is about to exceed its watch window (WATTER-timeout),
* ``ThresholdStrategy`` — Algorithm 2: dispatch when the group's
  average extra time is at most the members' average expected threshold
  (WATTER-expect).  The per-order thresholds come from a pluggable
  :class:`ThresholdProvider` — either the GMM-fitted constant of
  Section V or the learned value function of Section VI.
"""

from __future__ import annotations

import abc
from typing import Protocol, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..model.group import Group
    from ..model.order import Order

#: Fraction of an order's direct travel time held back for the assigned
#: worker's approach leg, which the expiration time of Equation 3 leaves
#: out.  Read by :meth:`DispatchStrategy._margin` alone.
APPROACH_RESERVE = 0.3


class ThresholdProvider(Protocol):
    """Anything that can produce the expected extra-time threshold of an order."""

    def threshold(self, order: "Order", now: float) -> float:
        """Expected extra-time threshold ``theta(i)`` at decision time ``now``."""
        ...


class ConstantThresholdProvider:
    """Threshold provider returning one global constant.

    A degenerate provider used for testing and for the pure
    distribution-fitting variant where every order shares the optimum of
    Equation 8 under a single fitted distribution.
    """

    def __init__(self, value: float) -> None:
        self._value = float(value)

    def threshold(self, order: "Order", now: float) -> float:
        """Return the constant threshold regardless of the order or time."""
        return self._value


class DispatchStrategy(abc.ABC):
    """Base class of hold-or-dispatch decision rules.

    The order pool asks a strategy two questions on every periodic
    check: whether to dispatch an order's best group
    (:meth:`should_dispatch`), and whether an order with no shareable
    partner should ride alone (:meth:`should_dispatch_alone`).
    ``check_period`` is the time between two periodic pool checks: how
    long a held group or order waits before it is looked at again.
    """

    name: str = "base"

    def __init__(self, check_period: float = 10.0) -> None:
        self._check_period = check_period

    @abc.abstractmethod
    def should_dispatch(self, group: "Group", now: float) -> bool:
        """Whether to dispatch ``group`` at time ``now`` (True) or hold it."""

    def should_dispatch_alone(self, order: "Order", now: float) -> bool:
        """Whether an order with no shareable partner should ride alone now.

        Waiting longer stops being useful once the order's watch window
        elapsed, or its remaining slack is below the margin that must be
        kept for one more check and the assigned worker's approach leg
        (waiting further would turn a servable order into a rejection).
        """
        return now >= order.timeout_time or order.slack_at(now) < self._margin(
            order.shortest_time
        )

    def describe(self) -> str:
        """Short human-readable description used in experiment reports."""
        return self.name

    def _timed_out_or_about_to_expire(self, group: "Group", now: float) -> bool:
        """Whether a member's watch window elapsed, or holding past the
        next check risks losing the group."""
        if now >= group.earliest_timeout():
            return True
        shortest = min(order.shortest_time for order in group.orders)
        return self._margin(shortest, now) >= group.expiration_time(now)

    def _margin(self, shortest_time: float, now: float = 0.0) -> float:
        """``now`` plus one check period plus the approach reserve.

        The reserve is :data:`APPROACH_RESERVE` of ``shortest_time``.
        The sum is taken as ``(now + check_period) + reserve``; with the
        default ``now`` it is the bare margin.
        """
        return now + self._check_period + APPROACH_RESERVE * shortest_time


class OnlineStrategy(DispatchStrategy):
    """Dispatch every group and every unpaired order as soon as it exists
    (WATTER-online)."""

    name = "WATTER-online"

    def should_dispatch(self, group: "Group", now: float) -> bool:
        """Always dispatch: the earliest possible response for every order."""
        return True

    def should_dispatch_alone(self, order: "Order", now: float) -> bool:
        """Always dispatch: an unpaired order does not wait for a partner."""
        return True


class TimeoutStrategy(DispatchStrategy):
    """Hold every group until a member is about to time out (WATTER-timeout).

    A group is dispatched only when the current time has reached the
    earliest watch-window expiry among its members, or when waiting one
    more check period would make the group infeasible.
    """

    name = "WATTER-timeout"

    def should_dispatch(self, group: "Group", now: float) -> bool:
        """Dispatch when a member times out or the group is about to expire."""
        return self._timed_out_or_about_to_expire(group, now)


class ThresholdStrategy(DispatchStrategy):
    """Algorithm 2: the average extra-time threshold-based grouping strategy."""

    name = "WATTER-expect"

    def __init__(self, provider: ThresholdProvider, check_period: float = 10.0) -> None:
        super().__init__(check_period)
        self._provider = provider

    @property
    def provider(self) -> ThresholdProvider:
        """The threshold provider consulted for each member order."""
        return self._provider

    def should_dispatch(self, group: "Group", now: float) -> bool:
        """Dispatch when timed out, about to expire, or ``mean t_e <= mean theta``.

        Mirrors Algorithm 2: line 1-3 filter orders past their watch
        window (they are dispatched as soon as a group exists), lines
        4-6 compare the group's average extra time with the members'
        average expected threshold.  In addition, a group that would no
        longer be feasible by the next periodic check is dispatched now
        — holding it any longer can only turn served orders into
        rejections, which the objective penalises harder than any
        threshold miss.
        """
        if self._timed_out_or_about_to_expire(group, now):
            return True
        average_extra = group.average_extra_time(now)
        average_threshold = sum(
            self._provider.threshold(order, now) for order in group.orders
        ) / len(group.orders)
        return average_extra <= average_threshold
