"""Disk persistence of contraction-hierarchy preprocessing.

Contracting a city-scale graph is the dominant cost of standing up the
``ch`` backend (~0.8 s on the 1024-node benchmark city, minutes on real
map extracts).  The contraction itself depends only on the graph and on
the witness hop limit, so its products — the node order and the
shortcut edges — can be computed once and replayed by every later
process that works on the same graph.

This module provides that persistence layer:

* :func:`graph_signature` — a stable content hash of a road graph
  (sorted nodes plus sorted ``(u, v, travel_time)`` edge triples), used
  both as the cache key and as the integrity check on load;
* :func:`save_ch_preprocessing` / :func:`load_ch_preprocessing` — JSON
  round-trip of :meth:`CHOracle.export_preprocessing` payloads, keyed
  by ``(graph signature, witness hop limit)``.  Loading is strictly
  validating: a payload written for a different graph, a different hop
  limit, an older format, or a corrupted file simply yields ``None``
  and the caller re-contracts from scratch — the cache can never make
  an answer wrong, only a build fast.

Failures are no longer silent: IO errors are retried under the
resilience layer's backoff policy and *counted*
(:class:`CacheLoadOutcome.load_failures` flows into the oracle's
``cache_load_failures`` stat), and a file that fails to even parse is
**quarantined** to ``<name>.corrupt`` so the next process rebuilds once
instead of tripping over the same rotten bytes forever.  Semantic
mismatches (another graph, an older format) are *not* failures — they
are ordinary misses, and the rebuild overwrites the stale file anyway.

The registry's ``ch`` factory wires this up behind the ``cache_dir``
option (``OracleSpec.cache_dir`` / ``--oracle-cache``), so
a warm cache directory makes a fresh process skip preprocessing
entirely: the ROADMAP's "persist the contraction order" item.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ...durability.atomic import write_atomic
from ...resilience.faults import corrupt_file_if_scheduled, fault_point
from ...resilience.retry import RetryPolicy, retry_call

if TYPE_CHECKING:  # pragma: no cover
    from ..graph import RoadGraph
    from .ch import CHOracle

#: Payload layout version; bump when ``export_preprocessing`` changes
#: shape so stale files are rebuilt instead of misread.
CH_CACHE_FORMAT = 2

#: Backoff for cache-file IO: three quick tries (NFS hiccups, racing
#: writers), then the caller degrades to a rebuild.
CACHE_IO_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.02, max_delay=0.2, retry_on=(OSError,)
)


def graph_signature(graph: "RoadGraph") -> str:
    """Stable content hash of a travel-time-weighted directed graph.

    Two graphs share a signature exactly when they have the same node
    ids and the same directed edges with the same ``travel_time``
    weights (full float precision via ``repr``).  Node coordinates are
    deliberately excluded: they never influence shortest-path answers,
    so cosmetic relayouts keep the cache warm.

    The hashed text is one line per node in sorted order, then one line
    per edge, grouped by sorted tail and sorted head within a tail.  It
    is built with one ``"".join`` and hashed with one sha256 call; the
    bytes are the ones every earlier version hashed (the networkx-graph
    versions included), so existing cache files stay warm with no
    format bump.  Heads sort by index because the index is sorted id.
    """
    nodes = graph.nodes_sorted
    lines = [f"n{node!r}\n" for node in nodes]
    lines.extend(
        f"e{u!r}>{nodes[head]!r}:{weight!r}\n"
        for u, heads in zip(nodes, graph.successors)
        for head, weight in sorted(heads)
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def ch_cache_path(
    cache_dir: str | Path,
    graph: "RoadGraph",
    witness_hop_limit: int,
) -> Path:
    """Cache-file location for ``graph`` contracted at ``witness_hop_limit``."""
    signature = graph_signature(graph)
    return Path(cache_dir) / f"ch-{signature[:24]}-w{witness_hop_limit}.json"


@dataclass(frozen=True)
class CacheLoadOutcome:
    """What one cache load attempt produced, failures included.

    Attributes
    ----------
    payload:
        The validated preprocessing payload, or ``None`` on any miss.
    load_failures:
        IO errors and parse failures encountered (retried IO counts
        each failed attempt).  Semantic mismatches — another graph, an
        older format — are ordinary misses and do not count.
    quarantined:
        Where an unparseable file was moved (``<name>.corrupt``), or
        ``None``.
    corrupt:
        Whether the file existed but failed to parse (the degradation
        the registry records).
    """

    payload: Mapping[str, Any] | None
    load_failures: int = 0
    quarantined: Path | None = None
    corrupt: bool = False


def quarantine_cache_file(path: str | Path) -> Path | None:
    """Move a rotten cache file aside to ``<name>.corrupt`` (best effort).

    Keeps the bytes for post-mortems while guaranteeing the next load
    does not trip over them again; an IO failure during the move just
    leaves the file in place (the rebuild overwrites it atomically).
    """
    file_path = Path(path)
    target = file_path.with_name(file_path.name + ".corrupt")
    try:
        file_path.replace(target)
    except OSError:
        return None
    return target


def load_ch_preprocessing_outcome(
    path: str | Path, graph: "RoadGraph", witness_hop_limit: int
) -> CacheLoadOutcome:
    """Read a persisted payload, reporting failures instead of hiding them.

    The read is retried under :data:`CACHE_IO_POLICY`; a file that
    cannot be parsed at all is quarantined to ``<name>.corrupt``.  A
    ``payload`` of ``None`` always means "contract from scratch" — the
    extra fields say *why*.
    """
    file_path = Path(path)
    failures = 0
    if not file_path.exists():
        return CacheLoadOutcome(None)
    # Chaos hook: deterministic schedules may garble the file here,
    # exactly where real bit rot would be discovered.
    corrupt_file_if_scheduled("oracle.cache.file", file_path)

    def read_bytes() -> bytes:
        fault_point("oracle.cache.load")
        # Raw bytes: a file garbled into invalid UTF-8 must surface as
        # a parse failure (and be quarantined below), not escape as a
        # UnicodeDecodeError from the read itself.
        return file_path.read_bytes()

    def count_failure(attempt: int, exc: BaseException, delay: float) -> None:
        nonlocal failures
        failures += 1

    try:
        blob = retry_call(read_bytes, policy=CACHE_IO_POLICY, on_retry=count_failure)
    except OSError:
        return CacheLoadOutcome(None, load_failures=failures + 1)
    try:
        payload = json.loads(blob)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
        quarantined = quarantine_cache_file(file_path)
        return CacheLoadOutcome(
            None, load_failures=failures + 1, quarantined=quarantined, corrupt=True
        )
    if not isinstance(payload, dict):
        quarantined = quarantine_cache_file(file_path)
        return CacheLoadOutcome(
            None, load_failures=failures + 1, quarantined=quarantined, corrupt=True
        )
    if payload.get("format") != CH_CACHE_FORMAT:
        return CacheLoadOutcome(None, load_failures=failures)
    if payload.get("witness_hop_limit") != witness_hop_limit:
        return CacheLoadOutcome(None, load_failures=failures)
    if payload.get("graph") != graph_signature(graph):
        return CacheLoadOutcome(None, load_failures=failures)
    data = payload.get("data")
    if not isinstance(data, dict):
        quarantined = quarantine_cache_file(file_path)
        return CacheLoadOutcome(
            None, load_failures=failures + 1, quarantined=quarantined, corrupt=True
        )
    return CacheLoadOutcome(data, load_failures=failures)


def load_ch_preprocessing(
    path: str | Path, graph: "RoadGraph", witness_hop_limit: int
) -> Mapping[str, Any] | None:
    """Read a persisted preprocessing payload, or ``None`` when unusable.

    ``None`` covers every miss uniformly — no file, unreadable JSON, a
    different format version, a different hop limit, or a signature
    mismatch (the file was written for another graph).  Callers treat
    ``None`` as "contract from scratch".  (The registry uses
    :func:`load_ch_preprocessing_outcome` to also learn *why*.)
    """
    return load_ch_preprocessing_outcome(path, graph, witness_hop_limit).payload


def save_ch_preprocessing(
    path: str | Path, oracle: "CHOracle", graph: "RoadGraph"
) -> Path:
    """Persist ``oracle``'s contraction products for ``graph`` at ``path``.

    The write is atomic (temp file + rename) so a crashed process never
    leaves a half-written payload a later load would have to distrust,
    and the whole write is retried under :data:`CACHE_IO_POLICY` before
    the final :class:`OSError` reaches the caller (who treats saving as
    best effort — a run never fails because its cache could not be
    written).
    """
    file_path = Path(path)
    payload = {
        "format": CH_CACHE_FORMAT,
        "graph": graph_signature(graph),
        "witness_hop_limit": oracle.witness_hop_limit,
        "data": oracle.export_preprocessing(),
    }
    serialised = json.dumps(payload)

    def write() -> None:
        fault_point("oracle.cache.save")
        write_atomic(file_path, serialised)

    retry_call(write, policy=CACHE_IO_POLICY)
    return file_path
