"""Greedy insertion of an order's stops into a stop sequence.

Try every position pair for the new order's pickup and dropoff stops and
keep the cheapest insertion that still satisfies the sequential /
deadline / capacity constraints.  The WATTER planner grows a group too
large to plan exactly this way, one member at a time; the GDP baseline
[9] is the same idea but carries its own search over timed worker
schedules (``repro.baselines.gdp._cheapest_positions``), whose clock
starts at the vehicle's ``start_time`` rather than at ``0.0``.

``cheapest_insertion`` is the search itself, over stop-index sequences
and a stop x stop travel-time matrix; no ``Route`` is built here.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .feasibility import sequence_cost


class SequenceInsertion(NamedTuple):
    """The cheapest feasible insertion into a stop-index sequence."""

    sequence: list[int]
    cost: float
    added: float
    pickup_position: int
    dropoff_position: int


def new_stop_legs(pickup: int) -> Iterator[tuple[int, int]]:
    """The legs between stops ``pickup``, ``pickup + 1`` and all earlier stops.

    These are the legs inserting that pickup/dropoff pair among stops
    ``0 .. pickup - 1`` can use: pickup to dropoff, and every pairing of
    a new stop with an earlier one, both ways.  Taken for each order in
    turn this covers every leg a stop order over them can use, i.e. all
    ordered stop pairs except a dropoff back to its own pickup.
    """
    dropoff = pickup + 1
    yield pickup, dropoff
    for other in range(pickup):
        for stop in (pickup, dropoff):
            yield other, stop
            yield stop, other


def cheapest_insertion(
    sequence: Sequence[int],
    base_cost: float,
    pickup: int,
    dropoff: int,
    times: Sequence[Sequence[float]],
    load_change: Sequence[int],
    due: Sequence[float],
    capacity: int,
    start: float,
) -> SequenceInsertion | None:
    """Insert stops ``pickup`` and ``dropoff`` where they add the least time.

    ``sequence`` is the stop order being extended and ``base_cost`` its
    travel time; the remaining arguments are those of
    :func:`~repro.routing.feasibility.sequence_cost`, which prices every
    position pair.  Ties keep the earliest position pair.
    """
    best: SequenceInsertion | None = None
    for pickup_pos in range(len(sequence) + 1):
        for dropoff_pos in range(pickup_pos + 1, len(sequence) + 2):
            candidate = list(sequence)
            candidate.insert(pickup_pos, pickup)
            candidate.insert(dropoff_pos, dropoff)
            cost = sequence_cost(candidate, times, load_change, due, capacity, start)
            if cost is None:
                continue
            added = cost - base_cost
            if best is None or added < best.added:
                best = SequenceInsertion(
                    candidate, cost, added, pickup_pos, dropoff_pos
                )
    return best
