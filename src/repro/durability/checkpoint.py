"""CRC-checked simulation checkpoints and the hook that writes them.

A checkpoint freezes a run at a tick boundary: the cursor (how far the
engine got), the dispatcher (fleet, pool, plans — the whole algorithm
state) and the metrics collector.  The engine's replay loop is
deterministic — no RNG fires after provider bootstrap, and the drain
horizon is recomputed from the workload — so a run resumed from any
checkpoint produces metrics identical to an uninterrupted one (the
property tests in ``tests/test_durability.py`` hold this across
dispatchers and oracle backends).

File layout (single file, atomic tmp + rename):

* line 1 — an ASCII JSON header: format version, the cursor, caller
  meta (graph hash, algorithm, spec echo, ...), degradation events so
  far, blob length and CRC32;
* the rest — a pickle of ``{"dispatcher", "collector"}``.

Shared/unpicklable infrastructure is *externalized* through pickle
persistent ids rather than serialized: the road network (and its
:class:`~repro.network.graph.RoadGraph`) and the network's distance
oracle, with its query lock.  A checkpoint is therefore small — algorithm state only — and
resuming binds it to the resume-time network, whose oracle may even be
a different warm cache of the same graph.

Loads verify the CRC before unpickling and raise
:class:`CheckpointError` on any mismatch, so a torn or corrupt file is
reported (and the run falls back to ``interrupted``) instead of
resuming from garbage.
"""

from __future__ import annotations

import io
import json
import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..exceptions import ReproError
from ..resilience.degradation import DegradationLog
from ..resilience.faults import fault_point
from .atomic import write_atomic

#: Ticks between checkpoints when the caller does not choose.
DEFAULT_CHECKPOINT_INTERVAL = 25

# 2: pickled ``Route`` objects carry per-order stop positions.
# 3: the pickled ``SimulationConfig`` carries one ``oracle`` OracleSpec.
# 4: the pickled ``WorkerFleet`` carries a release heap; its index holds the idle only.
# 5: ``SimulationConfig`` lost its dispatch fields; no ``("engine",)`` persistent id.
# 6: GDP's pickled ``_WorkerPlan`` carries ``legs``, parallel to ``stops``.
# 7: a pickled ``WorkerFleet`` may hold no spatial index yet (built on
#    first use) and its ``_grid`` may be a cell count.
# 8: a pickled ``OrderPool`` holds no check period and no statistics.
# 9: a pickled ``SimulationConfig``'s ``OracleSpec`` has three fields
#    (``backend``, ``cache_dir``, ``kernel``).
# 10: a pickled ``WorkerSpatialIndex`` holds no lock; no ``("lock", ...)``
#     persistent id.
# 11: the ``("graph",)`` persistent id resolves to a ``RoadGraph``, not a
#     networkx ``DiGraph``; nothing pickled refers to networkx.
# 12: a pickled ``Order`` has no ``status`` field.
# 13: a pickled ``SimulationConfig`` has no ``oracle`` field.
_FORMAT_VERSION = 13


#: ``on_run_start`` keys a :class:`Checkpointer` stamps into its header.
_RUN_IDENTITY = ("graph_hash", "algorithm", "total_orders", "scenario", "spec")


class CheckpointError(ReproError):
    """A checkpoint could not be written, read or trusted."""


@dataclass(frozen=True)
class RunCursor:
    """Where in the replay loop a checkpoint was taken.

    Checkpoints only fire at tick boundaries, so the cursor is exact:
    ``order_index`` orders have been submitted, ``ticks`` periodic
    checks have run, and the next check is due at ``next_check``.
    ``algorithm_time`` carries the Running Time metric accrued so far.
    """

    order_index: int
    next_check: float
    ticks: int
    algorithm_time: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "order_index": self.order_index,
            "next_check": self.next_check,
            "ticks": self.ticks,
            "algorithm_time": self.algorithm_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunCursor":
        try:
            return cls(
                order_index=int(data["order_index"]),
                next_check=float(data["next_check"]),
                ticks=int(data["ticks"]),
                algorithm_time=float(data["algorithm_time"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint cursor: {exc}") from exc


@dataclass(frozen=True)
class RunCheckpoint:
    """One snapshot the engine hands to ``on_checkpoint`` observers."""

    cursor: RunCursor
    dispatcher: Any
    collector: Any
    network: Any
    forced: bool = False


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A verified checkpoint read back from disk."""

    cursor: RunCursor
    dispatcher: Any
    collector: Any
    meta: dict[str, Any] = field(default_factory=dict)
    degradations: tuple[dict[str, str], ...] = ()
    path: Path | None = None


# ----------------------------------------------------------------------
# externalizing pickler
# ----------------------------------------------------------------------
class _ExternalizingPickler(pickle.Pickler):
    """Pickles algorithm state; shared infrastructure becomes ids."""

    def __init__(self, buffer: io.BytesIO, network: Any) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._network = network
        self._graph = getattr(network, "graph", None)

    def persistent_id(self, obj: Any):  # noqa: ANN201 - pickle protocol
        from ..network.graph import RoadNetwork
        from ..network.oracle.base import DistanceOracle

        if isinstance(obj, RoadNetwork):
            return ("network",)
        if self._graph is not None and obj is self._graph:
            return ("graph",)
        if isinstance(obj, DistanceOracle):
            return ("oracle",)
        return None


class _ResolvingUnpickler(pickle.Unpickler):
    """Rebinds persistent ids against the resume-time network."""

    def __init__(self, buffer: io.BytesIO, network: Any) -> None:
        super().__init__(buffer)
        self._network = network

    def persistent_load(self, pid: Any) -> Any:
        kind = pid[0] if isinstance(pid, tuple) and pid else None
        if kind == "network":
            return self._network
        if kind == "graph":
            return self._network.graph
        if kind == "oracle":
            return self._network.oracle
        raise CheckpointError(f"unknown persistent id in checkpoint: {pid!r}")


# ----------------------------------------------------------------------
# file IO
# ----------------------------------------------------------------------
def write_checkpoint(
    path: str | Path,
    checkpoint: RunCheckpoint,
    *,
    meta: Mapping[str, Any] | None = None,
    degradations: DegradationLog | None = None,
) -> Path:
    """Atomically persist a checkpoint; returns the final path.

    Raises :class:`CheckpointError` on IO failure or unpicklable
    dispatcher state — callers decide whether that is fatal (an
    explicit ``--resume`` load) or a recorded degradation (the
    :class:`Checkpointer` hook mid-run).
    """
    file_path = Path(path)
    try:
        fault_point("checkpoint.write")
        buffer = io.BytesIO()
        _ExternalizingPickler(buffer, checkpoint.network).dump(
            {"dispatcher": checkpoint.dispatcher, "collector": checkpoint.collector}
        )
        blob = buffer.getvalue()
        header = {
            "format": _FORMAT_VERSION,
            "cursor": checkpoint.cursor.as_dict(),
            "meta": dict(meta or {}),
            "degradations": degradations.as_dicts() if degradations else [],
            "blob_bytes": len(blob),
            "blob_crc32": zlib.crc32(blob),
        }
        header_line = json.dumps(header, sort_keys=True, default=str).encode("ascii")
        write_atomic(file_path, header_line + b"\n" + blob)
    except CheckpointError:
        raise
    except (OSError, RuntimeError, TypeError, pickle.PickleError) as exc:
        raise CheckpointError(f"cannot write checkpoint {file_path}: {exc}") from exc
    return file_path


def read_checkpoint_header(path: str | Path) -> dict[str, Any]:
    """The JSON header of a checkpoint file, without unpickling the blob.

    Recovery uses this to report an interrupted run's last-known cursor
    even when a full resume is not attempted.
    """
    file_path = Path(path)
    try:
        with file_path.open("rb") as handle:
            header_line = handle.readline()
        header = json.loads(header_line.decode("ascii"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {file_path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {file_path} has unsupported format "
            f"{header.get('format') if isinstance(header, dict) else header!r}"
        )
    return header


def load_checkpoint(path: str | Path, *, network: Any) -> LoadedCheckpoint:
    """Read, CRC-verify and rebind a checkpoint against ``network``.

    Raises :class:`CheckpointError` for a missing, torn, corrupt or
    version-incompatible file — never returns partially-restored state.
    """
    file_path = Path(path)
    header = read_checkpoint_header(file_path)
    try:
        with file_path.open("rb") as handle:
            handle.readline()
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {file_path}: {exc}") from exc
    expected = header.get("blob_bytes")
    if expected is not None and len(blob) != expected:
        raise CheckpointError(
            f"checkpoint {file_path} is truncated: expected {expected} blob "
            f"bytes, found {len(blob)}"
        )
    if zlib.crc32(blob) != header.get("blob_crc32"):
        raise CheckpointError(f"checkpoint {file_path} failed its CRC check")
    cursor = RunCursor.from_dict(header.get("cursor", {}))
    try:
        state = _ResolvingUnpickler(io.BytesIO(blob), network).load()
    except CheckpointError:
        raise
    except Exception as exc:  # pickle raises widely; all mean "unusable"
        raise CheckpointError(
            f"checkpoint {file_path} cannot be unpickled: {exc}"
        ) from exc
    if not isinstance(state, dict) or "dispatcher" not in state or "collector" not in state:
        raise CheckpointError(f"checkpoint {file_path} has an unexpected payload")
    degradations = header.get("degradations") or []
    return LoadedCheckpoint(
        cursor=cursor,
        dispatcher=state["dispatcher"],
        collector=state["collector"],
        meta=dict(header.get("meta") or {}),
        degradations=tuple(
            dict(event) for event in degradations if isinstance(event, dict)
        ),
        path=file_path,
    )


# ----------------------------------------------------------------------
# the engine-side hook
# ----------------------------------------------------------------------
class Checkpointer:
    """A :class:`~repro.simulation.hooks.SimulationHooks` observer that
    persists every checkpoint the engine offers.

    Writing is best-effort by design: a failed write is counted, and
    recorded in the run's degradation log when one is attached, but the
    run keeps going — losing a checkpoint costs resume granularity, not
    the run.  (An explicit later ``--resume`` still CRC-verifies, so a
    bad write can never be resumed from.)
    """

    def __init__(
        self,
        path: str | Path,
        *,
        interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        meta: Mapping[str, Any] | None = None,
        degradations: DegradationLog | None = None,
    ) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be at least 1 tick")
        self.path = Path(path)
        self.interval = interval
        self.meta = dict(meta or {})
        self.degradations = degradations
        #: Checkpoints successfully written.
        self.writes = 0
        #: Writes that failed (and were skipped).
        self.write_failures = 0
        #: Cursor of the newest checkpoint on disk, if any.
        self.last_cursor: RunCursor | None = None

    # SimulationHooks protocol -----------------------------------------
    def checkpoint_interval(self) -> int | None:
        return self.interval

    def on_checkpoint(self, checkpoint: RunCheckpoint) -> None:
        try:
            write_checkpoint(
                self.path,
                checkpoint,
                meta=self.meta,
                degradations=self.degradations,
            )
        except CheckpointError as exc:
            self.write_failures += 1
            if self.degradations is not None:
                self.degradations.record(
                    "checkpoint.write",
                    "checkpointed",
                    "skipped",
                    str(exc),
                )
            return
        self.writes += 1
        self.last_cursor = checkpoint.cursor

    def on_run_start(self, info: Mapping[str, Any]) -> None:
        """Take the run's identity from the start event (caller keys win).

        The header's graph hash, algorithm and order count are what a
        later resume validates against.
        """
        identity = {key: info[key] for key in _RUN_IDENTITY if key in info}
        self.meta = {**identity, **self.meta}

    # non-protocol no-ops so Checkpointer can stand alone as hooks -----
    def on_order_arrival(self, order: Any, now: float) -> None:
        pass

    def on_periodic_check(self, now: float) -> None:
        pass

    def on_assign(self, served: Any) -> None:
        pass

    def on_run_end(self, info: Mapping[str, Any]) -> None:
        pass
