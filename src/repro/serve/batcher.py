"""Cross-request oracle batching: coalesce concurrent query blocks.

Concurrent scenario runs that share one pooled network also share its
distance oracle, and the pure-Python backends are not safe under
concurrent queries (their LRU caches mutate on reads).  The obvious
fix — a mutex around the oracle — serialises correctly but wastes the
one structural opportunity a resident service has: at any moment,
several runs on the same city are usually waiting on the *same shape*
of query block (``travel_times_many`` over idle workers x pooled
pickups).

:class:`OracleBatcher` turns the mutex into a **group-commit**: every
``travel_times_many`` call enqueues its block and then competes for
the flush lock.  Whoever wins drains the whole queue, merges the
queued blocks into one aggregated block (the sorted union of their
sources and of their targets), answers it with a single oracle call
(split into contiguous target chunks and recombined when the union is
large, so one giant union cannot blow up a single call), and hands
every waiter exactly the pairs it asked for.  Followers that queued
while the leader was flushing never touch the oracle at all.

The answers are the same floats a serial run computes — batching
changes *when* the oracle is asked, never *what it answers* — so a
served run's metrics stay identical to a direct
``repro.api.run_scenario`` execution of the same spec.

:class:`BatchedNetworkView` is how runs opt in without code changes: a
:class:`~repro.network.graph.RoadNetwork` subclass sharing the pooled
network's graph and oracle, routing every batched query through the
batcher and serialising the remaining query surface behind the same
flush lock.  The service wraps each run's workload in a view over the
pooled network, so dispatchers, planners and fleets run unmodified.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

from ..exceptions import ConfigurationError
from ..network.graph import RoadNetwork
from ..network.oracle.base import CacheInfo, DistanceOracle, OracleStats

#: Aggregated-call chunk bound: a union block with more targets than
#: this is answered in several oracle calls (chunked deterministically
#: with ``_partition_shards``) so one flush cannot hold the lock for an
#: unbounded stretch.
DEFAULT_MAX_TARGETS_PER_CALL = 256


def _partition_shards(items: Sequence, num_shards: int) -> list[list]:
    """Split ``items`` into ``num_shards`` contiguous, near-even chunks.

    The partition depends only on ``(items, num_shards)`` — never on
    thread scheduling or machine load — so a given chunk always sees
    the same work.  Chunk sizes differ by at most one (earlier chunks
    get the remainder); with fewer items than chunks the tail chunks
    are empty.
    """
    if num_shards < 1:
        raise ConfigurationError("num_shards must be at least 1")
    items = list(items)
    base, extra = divmod(len(items), num_shards)
    chunks: list[list] = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _merge_shard_results(
    shard_maps: Iterable[Mapping[tuple[int, int], float]],
) -> dict[tuple[int, int], float]:
    """Deterministically merge per-chunk ``(source, target) -> seconds`` maps.

    Chunks partition the *targets*, so their key sets must be disjoint;
    an overlap means the partition was wrong (duplicated work at best,
    a changed answer at worst), so it raises — even when the duplicate
    values happen to agree.  Merging in chunk order keeps the result
    independent of completion order.
    """
    merged: dict[tuple[int, int], float] = {}
    for shard_map in shard_maps:
        for key, value in shard_map.items():
            if key in merged:
                raise AssertionError(f"shard results overlap on {key}")
            merged[key] = value
    return merged


def _merge_block_requests(
    blocks: Iterable[tuple[Sequence[int], Sequence[int]]],
) -> tuple[list[int], list[int]]:
    """Union several ``(sources, targets)`` blocks into one aggregate block.

    The unions are deduplicated and sorted so the aggregate depends
    only on the *set* of queued blocks, never on arrival order.
    """
    sources: dict[int, None] = {}
    targets: dict[int, None] = {}
    for block_sources, block_targets in blocks:
        for source in block_sources:
            sources.setdefault(source)
        for target in block_targets:
            targets.setdefault(target)
    return sorted(sources), sorted(targets)


class _PendingBlock:
    """One caller's queued ``travel_times_many`` block."""

    __slots__ = ("sources", "targets", "result", "done")

    def __init__(self, sources: list[int], targets: list[int]) -> None:
        self.sources = sources
        self.targets = targets
        self.result: dict[tuple[int, int], float] | None = None
        self.done = threading.Event()


class OracleBatcher:
    """Group-commit batching of ``travel_times_many`` on one network.

    Parameters
    ----------
    network:
        The pooled road network whose oracle answers the queries.
    max_targets_per_call:
        Chunk bound of one aggregated oracle call (see module
        docstring).
    """

    def __init__(
        self,
        network: RoadNetwork,
        *,
        max_targets_per_call: int = DEFAULT_MAX_TARGETS_PER_CALL,
    ) -> None:
        if max_targets_per_call < 1:
            raise ValueError("max_targets_per_call must be at least 1")
        self._network = network
        self._max_targets_per_call = max_targets_per_call
        self._mutex = threading.Lock()
        self._flush_lock = threading.Lock()
        self._queue: list[_PendingBlock] = []
        self._requests = 0
        self._batches = 0
        self._coalesced = 0
        self._pairs_requested = 0
        self._pairs_computed = 0
        self._serial_queries = 0

    @property
    def network(self) -> RoadNetwork:
        """The pooled network this batcher serialises access to."""
        return self._network

    # ------------------------------------------------------------------
    # the batched primitive
    # ------------------------------------------------------------------
    def travel_times_many(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> dict[tuple[int, int], float]:
        """One block's travel times, answered by a (possibly shared) flush."""
        block = _PendingBlock(
            list(dict.fromkeys(sources)), list(dict.fromkeys(targets))
        )
        if not block.sources or not block.targets:
            return {}
        with self._mutex:
            self._queue.append(block)
            self._requests += 1
            self._pairs_requested += len(block.sources) * len(block.targets)
        with self._flush_lock:
            # A leader that flushed while this caller waited may have
            # answered the block already; only flush if it is still open.
            if not block.done.is_set():
                self._flush()
        assert block.result is not None
        return block.result

    def _flush(self) -> None:
        """Drain the queue and answer every block (flush lock held)."""
        with self._mutex:
            batch = self._queue
            self._queue = []
        if not batch:
            return
        self._batches += 1
        self._coalesced += len(batch) - 1
        sources, targets = _merge_block_requests(
            (block.sources, block.targets) for block in batch
        )
        self._pairs_computed += len(sources) * len(targets)
        if len(targets) > self._max_targets_per_call:
            num_chunks = -(-len(targets) // self._max_targets_per_call)
            merged = _merge_shard_results(
                self._network.travel_times_many(sources, chunk)
                for chunk in _partition_shards(targets, num_chunks)
                if chunk
            )
        else:
            merged = self._network.travel_times_many(sources, targets)
        for block in batch:
            block.result = {
                (source, target): merged[(source, target)]
                for source in block.sources
                for target in block.targets
                if (source, target) in merged
            }
            block.done.set()

    # ------------------------------------------------------------------
    # the serialised remainder of the query surface
    # ------------------------------------------------------------------
    def serial(self, fn, *args, **kwargs):
        """Run one non-batched oracle query under the flush lock."""
        with self._flush_lock:
            self._serial_queries += 1
            return fn(*args, **kwargs)

    def stats(self) -> dict[str, int | float]:
        """Batching counters for the service's ``/metrics`` endpoint.

        ``coalesced_requests`` counts blocks that shared another
        block's flush; ``pairs_computed / pairs_requested`` > 1 is the
        price of aggregation (the union block covers pairs nobody asked
        for), < 1 means requests overlapped enough for the union to be
        cheaper than answering them one by one.
        """
        with self._mutex:
            return {
                "requests": self._requests,
                "batches": self._batches,
                "coalesced_requests": self._coalesced,
                "pairs_requested": self._pairs_requested,
                "pairs_computed": self._pairs_computed,
                "serial_queries": self._serial_queries,
            }


class BatchedNetworkView(RoadNetwork):
    """A run's window onto a pooled network, thread-safe by construction.

    Shares the pooled network's graph and oracle (no copies, no
    re-preprocessing) while routing ``travel_times_many`` through the
    cross-request batcher and every other oracle query through its
    flush lock.  Oracle management calls are forwarded to the pooled
    network so all views of one network always see the same attached
    oracle.
    """

    def __init__(self, batcher: OracleBatcher) -> None:
        parent = batcher.network
        super().__init__(parent.graph, oracle=parent.oracle)
        self._parent = parent
        self._batcher = batcher

    # -- oracle management forwards to the pooled network ---------------
    @property
    def oracle(self) -> DistanceOracle:
        return self._parent.oracle

    def set_oracle(self, oracle: DistanceOracle) -> None:
        self._parent.set_oracle(oracle)

    def use_backend(self, name: str, **options) -> DistanceOracle:
        return self._parent.use_backend(name, **options)

    def clear_cache(self) -> None:
        self._batcher.serial(self._parent.clear_cache)

    def cache_info(self) -> CacheInfo:
        return self._batcher.serial(self._parent.cache_info)

    def oracle_stats(self) -> OracleStats:
        return self._batcher.serial(self._parent.oracle_stats)

    # -- queries: batched where batchable, serialised otherwise ---------
    def travel_times_many(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> dict[tuple[int, int], float]:
        source_list = list(dict.fromkeys(sources))
        target_list = list(dict.fromkeys(targets))
        for node in source_list:
            self._require_node(node)
        for node in target_list:
            self._require_node(node)
        return self._batcher.travel_times_many(source_list, target_list)

    def leg_matrix(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[list[float]]:
        return self._batcher.serial(self._parent.leg_matrix, sources, targets)

    def travel_time(self, source: int, target: int) -> float:
        return self._batcher.serial(self._parent.travel_time, source, target)

    def travel_times_from(self, source: int) -> Mapping[int, float]:
        return self._batcher.serial(self._parent.travel_times_from, source)

    def travel_times_to(self, target: int) -> Mapping[int, float]:
        return self._batcher.serial(self._parent.travel_times_to, target)

    def shortest_path(self, source: int, target: int) -> list[int]:
        return self._batcher.serial(self._parent.shortest_path, source, target)

    def is_reachable(self, source: int, target: int) -> bool:
        return self._batcher.serial(self._parent.is_reachable, source, target)


def batched_workload(workload, batcher: OracleBatcher):
    """An isolated copy of a pooled workload, querying through the batcher.

    Orders carry mutable lifecycle bookkeeping (``status``) and the
    pooled workload is shared by every run on its session, so each
    served run gets its own order clones (ids preserved — outcome
    accounting is unchanged) next to the batched network view.  Workers
    need no clone here: ``make_dispatcher`` already clones them into a
    fresh fleet per run.
    """
    from dataclasses import replace

    from ..datasets.synthetic import Workload

    return Workload(
        orders=[replace(order) for order in workload.orders],
        workers=list(workload.workers),
        network=BatchedNetworkView(batcher),
        name=workload.name,
    )
