"""Crash survival for runs: journal, checkpoints, results, file locks.

``repro.resilience`` (PR 7) keeps a *live* process healthy — retries,
deadlines, degradation chains.  This package is the next layer out:
state that survives the process itself.

* :mod:`~repro.durability.journal` — a write-ahead run journal
  (fsync'd JSONL) the serving layer replays on startup, so a
  ``kill -9`` loses no accepted work;
* :mod:`~repro.durability.checkpoint` — periodic, CRC-checked
  simulation snapshots and the :class:`Checkpointer` hook that writes
  them, so a day-long replay resumes from its last checkpoint instead
  of order zero;
* :mod:`~repro.durability.results` — a durable per-run result store
  next to the in-memory LRU, so finished runs stay queryable across
  restarts;
* :mod:`~repro.durability.atomic` — the one atomic file write (tmp,
  fsync, rename) behind results, checkpoints, journal compaction and
  the CH preprocessing cache;
* :mod:`~repro.durability.locks` — advisory inter-process file locks
  (``fcntl.flock``, released by the kernel when the holder dies), so
  several serve processes sharing one oracle cache build each
  contraction exactly once.

Everything here is stdlib-only and deliberately independent of the
serving layer: the journal and checkpoint primitives are equally usable
from a plain ``repro run --resume`` on the command line.
"""

from .checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    CheckpointError,
    Checkpointer,
    LoadedCheckpoint,
    RunCheckpoint,
    RunCursor,
    load_checkpoint,
    write_checkpoint,
)
from .journal import RunJournal, read_jsonl_tolerant
from .locks import InterProcessLock, LockTimeout
from .results import ResultStore

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "CheckpointError",
    "Checkpointer",
    "InterProcessLock",
    "LoadedCheckpoint",
    "LockTimeout",
    "ResultStore",
    "RunCheckpoint",
    "RunCursor",
    "RunJournal",
    "load_checkpoint",
    "read_jsonl_tolerant",
    "write_checkpoint",
]
