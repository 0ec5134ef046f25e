"""Pluggable result sinks: simulation events as flat JSON-able records.

A sink is just a :class:`~repro.simulation.hooks.SimulationHooks`
observer that normalises every event into one flat dictionary and does
something durable with it.  :class:`EventRecorder` implements the
normalisation once; concrete sinks override :meth:`~EventRecorder.emit`:

* :class:`JsonlSink` appends one JSON line per event to a file — a
  machine-readable run trace.  It is deliberately usable *outside* the
  server too: pass one straight to ``Session().run(spec,
  hooks=JsonlSink("trace.jsonl"))`` and the file carries the run-start
  spec echo, every arrival/check/assignment, and the run-end summary.
* :class:`MemorySink` keeps the events in a bounded in-process list —
  the store behind the service's ``GET /runs/<id>`` event view.

Sinks are thread-safe (one lock around ``emit``) so a single sink
instance can absorb several concurrent served runs; give each event a
``run_id`` via the constructor's ``context`` to keep interleaved runs
separable, or use one sink per run as the service does.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, IO, Mapping, TYPE_CHECKING

from ..simulation.hooks import SimulationHooks

if TYPE_CHECKING:  # pragma: no cover
    from ..model.order import Order
    from ..simulation.dispatcher import ServedOrder


class EventRecorder(SimulationHooks):
    """Normalises every hook event into one flat JSON-able dict.

    Parameters
    ----------
    context:
        Extra key/values stamped onto every event (the service uses
        ``{"run_id": ...}``); must be JSON-able.
    """

    def __init__(self, context: Mapping[str, Any] | None = None) -> None:
        self._context = dict(context) if context else {}
        self._emit_lock = threading.Lock()

    # ------------------------------------------------------------------
    # the one method sinks implement
    # ------------------------------------------------------------------
    def emit(self, event: dict[str, Any]) -> None:  # pragma: no cover
        """Handle one normalised event (called with the sink lock held)."""
        raise NotImplementedError

    def _record(self, event: dict[str, Any]) -> None:
        if self._context:
            event = {**self._context, **event}
        with self._emit_lock:
            self.emit(event)

    # ------------------------------------------------------------------
    # hook protocol -> flat events
    # ------------------------------------------------------------------
    def on_run_start(self, info: Mapping[str, Any]) -> None:
        self._record({"event": "run_start", **info})

    def on_order_arrival(self, order: "Order", now: float) -> None:
        self._record(
            {
                "event": "order_arrival",
                "now": now,
                "order_id": order.order_id,
                "pickup": order.pickup,
                "dropoff": order.dropoff,
                "release_time": order.release_time,
                "deadline": order.deadline,
                "riders": order.riders,
            }
        )

    def on_periodic_check(self, now: float) -> None:
        self._record({"event": "periodic_check", "now": now})

    def on_assign(self, served: "ServedOrder") -> None:
        self._record(
            {
                "event": "assign",
                "order_id": served.order.order_id,
                "worker_id": served.worker_id,
                "dispatch_time": served.dispatch_time,
                "response_time": served.response_time,
                "detour_time": served.detour_time,
                "group_size": served.group_size,
            }
        )

    def on_run_end(self, info: Mapping[str, Any]) -> None:
        self._record({"event": "run_end", **info})


class JsonlSink(EventRecorder):
    """Streams events to a JSONL file, one JSON object per line.

    The file is opened lazily on the first event, and every event is
    written as one ``write + flush + fsync`` unit, so the trace a
    crashed (even ``kill -9``'d) process leaves behind contains every
    event it reported — at worst the final line is torn mid-write,
    which :func:`read_trace` tolerates by dropping it.  Pass
    ``fsync=False`` to trade that durability for throughput (events
    then reach the OS on ``flush`` but the disk at its leisure).
    Use as a context manager (or call :meth:`close`) to release the
    file handle deterministically.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        context: Mapping[str, Any] | None = None,
        fsync: bool = True,
    ) -> None:
        super().__init__(context)
        self.path = Path(path)
        self._fsync = fsync
        self._file: IO[str] | None = None

    def emit(self, event: dict[str, Any]) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")
        self._file.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._emit_lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a :class:`JsonlSink` trace, tolerating a torn final line.

    A process killed mid-write leaves at most one partial trailing
    line; this reader (the journal layer's tolerant JSONL reader)
    yields every complete event and silently drops the torn tail, so
    crash post-mortems never trip over the crash's own artifact.
    Returns ``[]`` for a missing file.
    """
    from ..durability.journal import read_jsonl_tolerant

    return list(read_jsonl_tolerant(path))


class MemorySink(EventRecorder):
    """Keeps events in memory, bounded to the most recent ``max_events``.

    The service attaches one per run so ``GET /runs/<id>`` can show the
    run's progress stream; the bound keeps a day-long replay from
    holding every arrival event forever (the earliest events are
    dropped first, and ``dropped_events`` says how many).
    """

    def __init__(
        self,
        *,
        max_events: int | None = 10_000,
        context: Mapping[str, Any] | None = None,
    ) -> None:
        super().__init__(context)
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be at least 1 (or None)")
        self._max_events = max_events
        self._events: list[dict[str, Any]] = []
        self.dropped_events = 0

    def emit(self, event: dict[str, Any]) -> None:
        self._events.append(event)
        if self._max_events is not None and len(self._events) > self._max_events:
            overflow = len(self._events) - self._max_events
            del self._events[:overflow]
            self.dropped_events += overflow

    @property
    def events(self) -> list[dict[str, Any]]:
        """Snapshot of the retained events (oldest first)."""
        with self._emit_lock:
            return list(self._events)
