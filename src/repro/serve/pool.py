"""The service's circuit breakers: one table, one entry per view identity.

The service's one :class:`repro.api.Session` keeps everything prepared
for a scenario — network, oracle view, workloads, providers — keyed by
:meth:`~repro.api.Session.view_key`.  Preparation that keeps failing for
one identity (an unreadable dataset, a poisoned cache directory) opens
that identity's breaker: while it is open every request for the
identity is refused immediately with a structured
:class:`~repro.resilience.degradation.CircuitOpenError` instead of
burning an executor slot on a preparation known to fail, and after the
cool-down one half-open probe is let through.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..resilience.degradation import CircuitOpenError

#: Consecutive preparation failures that open an identity's breaker.
FAILURE_THRESHOLD = 3

#: Cool-down (seconds) after which an open breaker admits one probe.
RESET_SECONDS = 30.0


class BreakerTable:
    """Thread-safe ``view key -> (consecutive failures, opened at)`` table.

    Only identities with failures since their last success hold an
    entry: a success forgets the key, which is what closing means.  The
    breaker opens on the :data:`FAILURE_THRESHOLD`-th consecutive
    failure (``opened at`` is ``None`` before that).  Once
    :data:`RESET_SECONDS` have passed, the next :meth:`admit` is the
    one half-open probe: it restarts the window, so every other request
    is refused while the probe runs; its failure reopens the breaker
    for a fresh window, its success forgets the key.  ``clock`` is the
    monotonic time source, injectable for tests.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._entries: dict[tuple, tuple[int, float | None]] = {}
        self._lock = threading.Lock()
        self._refusals = 0

    @staticmethod
    def _cooling(entry: tuple[int, float | None], now: float) -> float:
        """Cool-down seconds an entry has left (0: closed, or due a probe)."""
        opened_at = entry[1]
        if opened_at is None:
            return 0.0
        return max(0.0, RESET_SECONDS - (now - opened_at))

    def admit(self, key: tuple) -> None:
        """Raise ``CircuitOpenError`` unless the identity may prepare now."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[1] is None:
                return
            now = self._clock()
            remaining = self._cooling(entry, now)
            if not remaining:
                # The half-open probe: a fresh window refuses the rest.
                self._entries[key] = (entry[0], now)
                return
            self._refusals += 1
            raise CircuitOpenError(
                "session preparation for this scenario identity keeps "
                "failing; the entry is quarantined",
                retry_after_seconds=remaining,
            )

    def record_failure(self, key: tuple) -> bool:
        """Count one preparation failure; whether the breaker is now open."""
        with self._lock:
            failures = self._entries.get(key, (0, None))[0] + 1
            opened_at = self._clock() if failures >= FAILURE_THRESHOLD else None
            self._entries[key] = (failures, opened_at)
            return opened_at is not None

    def record_success(self, key: tuple) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def is_open(self, key: tuple) -> bool:
        """Read-only: a cooled-down breaker is due its probe, not open."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and self._cooling(entry, self._clock()) > 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            now = self._clock()
            return {
                "quarantined": sum(
                    self._cooling(entry, now) > 0
                    for entry in self._entries.values()
                ),
                "quarantine_refusals": self._refusals,
            }
