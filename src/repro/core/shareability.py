"""The temporal shareability graph (Definition 8, Section IV-A).

Orders are nodes; an edge ``(o_i, o_j, tau_e)`` states that the two
orders can be served by one feasible route until the expiration time
``tau_e``.  Shareable groups of size ``k`` correspond to ``k``-cliques
(Theorem IV.1 gives the "only if" direction: a feasible route implies a
clique, so enumerating cliques is a complete — though not sound —
candidate generator; every clique candidate is then validated by the
route planner before it is turned into a group).

The graph supports the four update events of Algorithm 1: order
arrival, order departure, edge expiration and group expiration.  It also
maintains, per order, the *best group* (smallest average extra time)
among the validated cliques containing the order — the map ``Gb`` the
pool reads in O(1) per decision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, TYPE_CHECKING

from ..exceptions import DuplicateOrderError, MissingOrderError
from ..model.group import Group
from ..model.order import Order

if TYPE_CHECKING:  # pragma: no cover
    from ..routing.planner import RoutePlanner

#: Largest number of neighbours combined when enumerating cliques around
#: one order; bounds the per-update cost in dense demand hot spots.
_NEIGHBOUR_CAP = 8


@dataclass(frozen=True)
class ShareabilityEdge:
    """An undirected shareability edge with its expiration timestamp."""

    first: int
    second: int
    expires_at: float

    def key(self) -> tuple[int, int]:
        """Canonical (sorted) order-id pair identifying the edge."""
        return (self.first, self.second) if self.first < self.second else (
            self.second,
            self.first,
        )


class TemporalShareabilityGraph:
    """Dynamic graph of pairwise shareability relations between pooled orders.

    Parameters
    ----------
    planner:
        Route planner used to validate pairwise and group routes.
    capacity:
        Vehicle capacity assumed when testing shareability.  The paper
        tests shareability against the fleet's maximum capacity and
        re-validates against the concrete worker at assignment time.
    max_group_size:
        Upper bound on the clique sizes enumerated when searching for
        the best group of an order.
    weights:
        Extra-time trade-off coefficients forwarded to the groups.
    """

    def __init__(
        self,
        planner: "RoutePlanner",
        capacity: int,
        max_group_size: int = 4,
        weights=None,
    ) -> None:
        self._planner = planner
        self._capacity = capacity
        self._max_group_size = max(1, max_group_size)
        self._weights = weights
        self._orders: dict[int, Order] = {}
        self._adjacency: dict[int, dict[int, float]] = {}
        self._best_groups: dict[int, Group | None] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._orders)

    def __contains__(self, order_id: int) -> bool:
        return order_id in self._orders

    def orders(self) -> Iterator[Order]:
        """Iterate over the pooled orders."""
        return iter(self._orders.values())

    def order(self, order_id: int) -> Order:
        """Return a pooled order by id."""
        try:
            return self._orders[order_id]
        except KeyError as exc:
            raise MissingOrderError(order_id) from exc

    def neighbours(self, order_id: int) -> dict[int, float]:
        """Adjacent order ids mapped to the edge expiration time."""
        if order_id not in self._orders:
            raise MissingOrderError(order_id)
        return dict(self._adjacency[order_id])

    def edges(self) -> Iterator[ShareabilityEdge]:
        """Iterate over the undirected edges (each reported once)."""
        for first, neighbours in self._adjacency.items():
            for second, expires_at in neighbours.items():
                if first < second:
                    yield ShareabilityEdge(first, second, expires_at)

    def number_of_edges(self) -> int:
        """Number of undirected shareability edges."""
        return sum(len(neighbours) for neighbours in self._adjacency.values()) // 2

    def best_group(self, order_id: int) -> Group | None:
        """Current best *shared* group of an order (``Gb[i]`` in Algorithm 1).

        Only groups with at least two members are considered: a group is
        what an order waits in the pool *for*.  An order with no
        shareable partner has no best group (``None``) and is eventually
        dispatched alone — see :meth:`singleton_group` — or rejected.
        """
        if order_id not in self._orders:
            raise MissingOrderError(order_id)
        return self._best_groups.get(order_id)

    def singleton_group(self, order_id: int, now: float) -> Group | None:
        """A feasible single-order group, used for timeout dispatching.

        Returns ``None`` when even riding alone can no longer meet the
        order's deadline.
        """
        order = self.order(order_id)
        return self._singleton_group(order, now)

    # ------------------------------------------------------------------
    # update events (Section IV-B: arrival, departure, expirations)
    # ------------------------------------------------------------------
    def insert_order(self, order: Order, now: float) -> None:
        """Handle order arrival: add the node, discover edges, refresh best groups."""
        if order.order_id in self._orders:
            raise DuplicateOrderError(order.order_id)
        self._orders[order.order_id] = order
        self._adjacency[order.order_id] = {}
        for other in self._shareable_candidates(order, now):
            planned = self._planner.can_share(order, other, self._capacity, now)
            if planned is None:
                continue
            group = Group(
                orders=(order, other),
                route=planned.route,
                created_at=now,
                **self._group_kwargs(),
            )
            expires_at = group.expiration_time(now)
            if expires_at <= now:
                continue
            self._adjacency[order.order_id][other.order_id] = expires_at
            self._adjacency[other.order_id][order.order_id] = expires_at
        self._refresh_best_group(order.order_id, now)
        for neighbour_id in self._adjacency[order.order_id]:
            self._refresh_best_group(neighbour_id, now)

    def remove_order(self, order_id: int, now: float) -> Order:
        """Handle order departure (dispatch or rejection)."""
        if order_id not in self._orders:
            raise MissingOrderError(order_id)
        order = self._orders.pop(order_id)
        self._planner.forget((order_id,))
        neighbours = self._adjacency.pop(order_id, {})
        for neighbour_id in neighbours:
            self._adjacency[neighbour_id].pop(order_id, None)
        self._best_groups.pop(order_id, None)
        # The departed order may have been part of its neighbours' best
        # groups; recompute them.
        for neighbour_id in neighbours:
            if neighbour_id in self._orders:
                self._refresh_best_group(neighbour_id, now)
        return order

    def remove_orders(self, order_ids: Iterable[int], now: float) -> list[Order]:
        """Remove several orders (e.g. a whole dispatched group) at once."""
        return [self.remove_order(order_id, now) for order_id in list(order_ids)]

    def expire_edges(self, now: float) -> list[ShareabilityEdge]:
        """Drop edges whose expiration time has passed; return what was dropped."""
        expired: list[ShareabilityEdge] = []
        for first in list(self._adjacency):
            for second, expires_at in list(self._adjacency[first].items()):
                if expires_at <= now and first < second:
                    expired.append(ShareabilityEdge(first, second, expires_at))
        touched: set[int] = set()
        for edge in expired:
            self._adjacency[edge.first].pop(edge.second, None)
            self._adjacency[edge.second].pop(edge.first, None)
            touched.update((edge.first, edge.second))
        for order_id in touched:
            if order_id in self._orders:
                self._refresh_best_group(order_id, now)
        return expired

    # ------------------------------------------------------------------
    # clique enumeration
    # ------------------------------------------------------------------
    def cliques_containing(self, order_id: int, now: float) -> Iterator[tuple[int, ...]]:
        """Yield id-tuples of cliques (size >= 2) that contain ``order_id``.

        Enumeration is bounded by ``max_group_size`` and, to keep the
        per-update cost bounded in dense pools, only the
        ``_NEIGHBOUR_CAP`` neighbours with the earliest edge expiration
        (the most urgent sharing opportunities) are combined into larger
        cliques.  Only edges that have not expired at ``now``
        participate.
        """
        if order_id not in self._orders:
            raise MissingOrderError(order_id)
        alive = [
            (expires_at, other)
            for other, expires_at in self._adjacency[order_id].items()
            if expires_at > now
        ]
        alive.sort()
        alive_neighbours = [other for _, other in alive[:_NEIGHBOUR_CAP]]
        for size in range(1, self._max_group_size):
            for combo in itertools.combinations(alive_neighbours, size):
                candidate = (order_id,) + tuple(sorted(combo))
                if self._is_clique(candidate, now):
                    yield candidate

    def _shareable_candidates(self, order: Order, now: float) -> list[Order]:
        """Pooled orders that pass the cheap pruning test against ``order``.

        Two orders can only share usefully if one pickup lies within the
        other's detour budget; orders whose pickups are farther apart
        than the larger of the two remaining slacks cannot form a route
        that saves any travel, so the expensive planner call is skipped.
        The shareability graph is a candidate generator (Theorem IV.1 is
        a necessary condition only), so pruning marginal pairs here does
        not affect correctness — every surviving candidate group is
        still validated by the route planner.

        The pickup gaps of every slack-feasible partner are fetched with
        two ``leg_matrix`` blocks (a row: new pickup -> partner pickups,
        and a column back), which lets the oracle answer the whole
        arrival in one block each way instead of 2(n-1) scalar queries.
        """
        slack_new = order.deadline - now - order.shortest_time
        if slack_new < 0:
            return []
        partners: list[tuple[Order, float]] = []
        for other in self._orders.values():
            if other.order_id == order.order_id:
                continue
            slack_other = other.deadline - now - other.shortest_time
            if slack_other < 0:
                continue
            partners.append((other, max(slack_new, slack_other)))
        if not partners:
            return []
        network = self._planner.network
        pickups = [other.pickup for other, _ in partners]
        (outward,) = network.leg_matrix([order.pickup], pickups)
        inward = network.leg_matrix(pickups, [order.pickup])
        return [
            other
            for (other, budget), out_gap, (in_gap,) in zip(partners, outward, inward)
            if min(out_gap, in_gap) <= budget
        ]

    def _is_clique(self, order_ids: tuple[int, ...], now: float) -> bool:
        for first, second in itertools.combinations(order_ids, 2):
            expires_at = self._adjacency.get(first, {}).get(second)
            if expires_at is None or expires_at <= now:
                return False
        return True

    # ------------------------------------------------------------------
    # best-group maintenance
    # ------------------------------------------------------------------
    def _refresh_best_group(self, order_id: int, now: float) -> None:
        best: Group | None = None
        for clique in self.cliques_containing(order_id, now):
            members = [self._orders[member_id] for member_id in clique]
            planned = self._planner.try_plan(members, self._capacity, now)
            if planned is None:
                continue
            group = Group(
                orders=tuple(members),
                route=planned.route,
                created_at=now,
                **self._group_kwargs(),
            )
            if group.expiration_time(now) <= now:
                continue
            best = Group.better_of(best, group, now)
        self._best_groups[order_id] = best

    def _singleton_group(self, order: Order, now: float) -> Group | None:
        planned = self._planner.try_plan([order], self._capacity, now)
        if planned is None:
            return None
        group = Group(
            orders=(order,),
            route=planned.route,
            created_at=now,
            **self._group_kwargs(),
        )
        if group.expiration_time(now) <= now:
            return None
        return group

    def _group_kwargs(self) -> dict:
        if self._weights is None:
            return {}
        return {"weights": self._weights}
