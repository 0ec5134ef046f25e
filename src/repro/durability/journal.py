"""Write-ahead run journal: fsync'd JSONL records of run lifecycles.

The serving layer appends one record *before* acting on a lifecycle
transition (accepting a submission, starting a run, finishing one), so
a process killed at any instant leaves a journal from which every
accepted run can be accounted for.  Records are single JSON lines; the
reader tolerates a torn final line (the one write a crash can
interrupt) so recovery never trips over its own wound.

Appends flush and ``fsync`` by default — the journal is the only thing
standing between a ``kill -9`` and silently lost work, so it pays the
disk round-trip.  Append failures are retried under a short backoff
and then *swallowed* (counted in :attr:`RunJournal.append_failures`):
the service prefers staying available over refusing work it could
still execute, and the miss is observable in ``/metrics``.

Record shape: every record is a flat JSON object with at least a
``type`` key (one of :data:`RECORD_TYPES`) and, for run records, a
``run_id``.  The journal itself is schema-agnostic — the service owns
the vocabulary; this module owns atomic appends, tolerant replay and
compaction.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import IO, Any, Iterator, Mapping

from ..resilience.faults import fault_point
from ..resilience.retry import RetryPolicy, retry_call
from .atomic import write_atomic

#: Lifecycle vocabulary the serving layer writes (documented here so
#: the journal format has one authoritative list; the reader does not
#: enforce it).
RECORD_TYPES = (
    "submitted",
    "started",
    "checkpointed",
    "finished",
    "failed",
    "cancelled",
    "interrupted",
    "clean_shutdown",
)

#: Backoff for journal IO: two quick retries, then the append is
#: dropped (and counted) rather than failing the run it describes.
JOURNAL_IO_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.02, max_delay=0.2, retry_on=(OSError,)
)


def read_jsonl_tolerant(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield the parseable JSON objects of a JSONL file, in order.

    A truncated *final* line — the torn write of a crashed appender —
    is silently dropped; a malformed line elsewhere is skipped too (it
    can only come from external corruption, and one rotten record must
    not hide the rest of the log).  A missing file yields nothing.
    """
    file_path = Path(path)
    if not file_path.exists():
        return
    with file_path.open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


class RunJournal:
    """Append-only, fsync'd JSONL journal with tolerant replay.

    Parameters
    ----------
    path:
        The journal file; parent directories are created on demand.
    fsync:
        Whether each append forces the record to disk before returning
        (default).  Turning this off trades the crash guarantee for
        throughput — useful in tests, never in a real ``--state-dir``.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._file: IO[str] | None = None
        self._lock = threading.Lock()
        #: Records successfully written by this handle.
        self.appends = 0
        #: Appends dropped after exhausting the IO retries.
        self.append_failures = 0
        #: Journal rewrites performed by :meth:`compact`.
        self.compactions = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: Mapping[str, Any]) -> bool:
        """Write one record durably; returns whether the write landed.

        The record is stamped with a wall-clock ``ts`` when it carries
        none.  Failures are retried under :data:`JOURNAL_IO_POLICY`
        and then swallowed (counted in :attr:`append_failures`) — the
        caller's run proceeds either way.
        """
        document = dict(record)
        document.setdefault("ts", time.time())
        line = json.dumps(document, sort_keys=True, default=str) + "\n"

        def write() -> None:
            fault_point("journal.append")
            with self._lock:
                handle = self._open_locked()
                handle.write(line)
                handle.flush()
                if self._fsync:
                    os.fsync(handle.fileno())

        try:
            retry_call(write, policy=JOURNAL_IO_POLICY)
        except OSError:
            with self._lock:
                self.append_failures += 1
            return False
        with self._lock:
            self.appends += 1
        return True

    def _open_locked(self) -> IO[str]:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")
        return self._file

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def replay(self) -> list[dict[str, Any]]:
        """All parseable records currently on disk, oldest first."""
        return list(read_jsonl_tolerant(self.path))

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, drop_run_ids: set[str]) -> int:
        """Rewrite the journal without records of the given runs.

        Used on clean startup: runs whose full results already live in
        the durable result store need no journal history — their
        records (and any stale ``clean_shutdown`` markers) are dropped,
        bounding journal growth across restarts.  The rewrite is atomic
        (tmp + rename) and the live handle is reopened afterwards.
        Returns the number of records dropped.
        """
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            kept: list[dict[str, Any]] = []
            dropped = 0
            for record in read_jsonl_tolerant(self.path):
                if record.get("type") == "clean_shutdown":
                    dropped += 1
                    continue
                if record.get("run_id") in drop_run_ids:
                    dropped += 1
                    continue
                kept.append(record)
            if dropped == 0:
                return 0
            write_atomic(
                self.path,
                "".join(
                    json.dumps(record, sort_keys=True, default=str) + "\n"
                    for record in kept
                ),
            )
            self.compactions += 1
            return dropped
