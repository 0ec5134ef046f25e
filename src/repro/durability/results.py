"""Durable per-run result documents, one JSON file per run.

The serve layer's in-memory record map is an LRU bounded by
``--max-runs``; this store is its on-disk shadow under ``--state-dir``
so a finished run stays queryable after a restart (and after LRU
eviction).  Documents are whole-record snapshots (the same payload
``GET /runs/<id>`` serves), written atomically
(:func:`~repro.durability.atomic.write_atomic`) so a crash mid-save
leaves either the old document or none — never a torn one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .atomic import write_atomic


class ResultStore:
    """Directory of ``<run_id>.json`` documents with atomic writes."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: Documents persisted by this handle.
        self.saves = 0
        #: Saves dropped because of IO errors (best-effort store).
        self.save_failures = 0

    def _path(self, run_id: str) -> Path:
        # Run ids are service-generated (``run-%06d``) but guard against
        # path traversal anyway: the id becomes a filename verbatim.
        safe = run_id.replace("/", "_").replace("\\", "_")
        return self.root / f"{safe}.json"

    def save(self, run_id: str, document: Mapping[str, Any]) -> bool:
        """Persist a run document; returns whether the write landed."""
        try:
            write_atomic(
                self._path(run_id),
                json.dumps(document, sort_keys=True, default=str),
            )
        except OSError:
            self.save_failures += 1
            return False
        self.saves += 1
        return True

    def load(self, run_id: str) -> dict[str, Any] | None:
        """The stored document, or ``None`` if absent or unreadable."""
        try:
            with self._path(run_id).open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return document if isinstance(document, dict) else None

    def run_ids(self) -> set[str]:
        """Ids of every run with a stored document."""
        if not self.root.is_dir():
            return set()
        return {
            entry.stem
            for entry in self.root.glob("*.json")
            if entry.is_file()
        }

    def delete(self, run_id: str) -> None:
        self._path(run_id).unlink(missing_ok=True)
