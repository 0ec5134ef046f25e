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
#: out.  Both hold-or-dispatch margins (a group about to expire, an
#: unpaired order about to lose its solo ride) reserve it.
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

    ``check_period`` is the time between two periodic pool checks: how
    long a held group waits before it is looked at again.
    """

    name: str = "base"

    #: Whether orders with no shareable partner should be dispatched alone
    #: right away instead of waiting out their watch window.  Only the
    #: online strategy (answer every order as early as possible) does so;
    #: the pooling strategies hold unpaired orders hoping for a partner.
    dispatches_unpaired_immediately: bool = False

    def __init__(self, check_period: float = 10.0) -> None:
        self._check_period = check_period

    @abc.abstractmethod
    def should_dispatch(self, group: "Group", now: float) -> bool:
        """Whether to dispatch ``group`` at time ``now`` (True) or hold it."""

    def describe(self) -> str:
        """Short human-readable description used in experiment reports."""
        return self.name

    def _about_to_expire(self, group: "Group", now: float) -> bool:
        """Whether holding past the next check risks losing the group.

        The margin reserves, on top of one check period,
        :data:`APPROACH_RESERVE` of the members' shortest direct travel
        time for the assigned worker's approach leg.
        """
        reserve = APPROACH_RESERVE * min(order.shortest_time for order in group.orders)
        return now + self._check_period + reserve >= group.expiration_time(now)


class OnlineStrategy(DispatchStrategy):
    """Dispatch every group as soon as it exists (WATTER-online)."""

    name = "WATTER-online"
    dispatches_unpaired_immediately = True

    def should_dispatch(self, group: "Group", now: float) -> bool:
        """Always dispatch: the earliest possible response for every order."""
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
        if now >= group.earliest_timeout():
            return True
        # Dispatch now rather than let one more check lose the group.
        return self._about_to_expire(group, now)


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
        if now >= group.earliest_timeout():
            return True
        if self._about_to_expire(group, now):
            return True
        average_extra = group.average_extra_time(now)
        average_threshold = sum(
            self._provider.threshold(order, now) for order in group.orders
        ) / len(group.orders)
        return average_extra <= average_threshold
