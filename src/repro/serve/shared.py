"""One pooled network, many served runs: every query under one lock.

Concurrent scenario runs that name the same network/oracle identity
share one pooled network and therefore one distance oracle, and the
pure-Python backends are not safe under concurrent queries (their LRU
caches mutate on reads).  Each served run therefore queries through a
:class:`SharedNetworkView`: a :class:`~repro.network.graph.RoadNetwork`
over the pooled graph and oracle (no copies, no re-preprocessing) that
answers every oracle query under the one lock all views of that pooled
network hold.

The view forwards each call unchanged, so a served run asks the oracle
the same calls, in the same argument order, as a direct
``repro.api.run_scenario`` execution of the same spec — and its metrics
are identical.  :func:`shared_workload` wraps a pooled workload in a
view, so dispatchers, planners and fleets run unmodified.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Sequence

from ..network.graph import RoadNetwork
from ..network.oracle.base import DistanceOracle, OracleStats


class SharedNetworkView(RoadNetwork):
    """A run's window onto a pooled network, thread-safe by construction.

    Shares the pooled network's graph and oracle and answers every
    oracle query under ``lock``, which every view of that network must
    share.  Oracle management calls are forwarded to the pooled network
    so all views of one network always see the same attached oracle.
    ``queries`` counts the calls this view answered under the lock.
    """

    def __init__(self, network: RoadNetwork, lock: threading.Lock) -> None:
        super().__init__(network.graph, oracle=network.oracle)
        self._parent = network
        self._lock = lock
        self.queries = 0

    def _locked(self, fn, *args):
        with self._lock:
            self.queries += 1
            return fn(*args)

    # -- oracle management forwards to the pooled network ---------------
    @property
    def oracle(self) -> DistanceOracle:
        return self._parent.oracle

    def set_oracle(self, oracle: DistanceOracle) -> None:
        self._parent.set_oracle(oracle)

    def clear_cache(self) -> None:
        self._locked(self._parent.clear_cache)

    def oracle_stats(self) -> OracleStats:
        return self._locked(self._parent.oracle_stats)

    # -- queries -------------------------------------------------------
    def leg_matrix(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        return self._locked(self._parent.leg_matrix, sources, targets)

    def travel_time(self, source: int, target: int) -> float:
        return self._locked(self._parent.travel_time, source, target)

    def is_reachable(self, source: int, target: int) -> bool:
        return self._locked(self._parent.is_reachable, source, target)


def shared_workload(workload, lock: threading.Lock):
    """An isolated copy of a pooled workload, querying through ``lock``.

    Orders carry mutable lifecycle bookkeeping (``status``) and the
    pooled workload is shared by every run on its session, so each
    served run gets its own order clones (ids preserved — outcome
    accounting is unchanged) next to a :class:`SharedNetworkView` of the
    pooled network.  Workers need no clone here: ``make_dispatcher``
    already clones them into a fresh fleet per run.
    """
    from ..datasets.synthetic import Workload

    return Workload(
        orders=[replace(order) for order in workload.orders],
        workers=list(workload.workers),
        network=SharedNetworkView(workload.network, lock),
        name=workload.name,
    )
