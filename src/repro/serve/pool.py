"""The service's circuit breakers, one per prepared-view identity.

The service's one :class:`repro.api.Session` keeps everything prepared
for a scenario — network, oracle view, workloads, providers — keyed by
:meth:`~repro.api.Session.view_key`.  Preparation that keeps failing for
one identity (an unreadable dataset, a poisoned cache directory) trips
that identity's :class:`~repro.resilience.degradation.CircuitBreaker`:
while it is open every request for the identity is refused immediately
with a structured :class:`~repro.resilience.degradation.CircuitOpenError`
instead of burning an executor slot on a preparation known to fail, and
after the cool-down one half-open probe is let through.
"""

from __future__ import annotations

import threading

from ..resilience.degradation import CircuitBreaker, CircuitOpenError, OPEN


class BreakerTable:
    """Thread-safe ``view key -> CircuitBreaker`` table.

    Breakers keep ``CircuitBreaker``'s defaults: open after 3
    consecutive failures, half-open after 30 s.  Only identities with
    failures since their last success hold one: a success drops it,
    which is what closing it means.
    """

    def __init__(self) -> None:
        self._breakers: dict[tuple, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self._refusals = 0

    def admit(self, key: tuple) -> None:
        """Raise ``CircuitOpenError`` unless the identity may prepare now."""
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is not None and not breaker.allow():
                self._refusals += 1
                raise CircuitOpenError(
                    "session preparation for this scenario identity keeps "
                    "failing; the entry is quarantined",
                    retry_after_seconds=breaker.seconds_until_retry(),
                )

    def record_failure(self, key: tuple) -> bool:
        """Count one preparation failure; whether the breaker is now open."""
        with self._lock:
            breaker = self._breakers.setdefault(key, CircuitBreaker())
            breaker.record_failure()
            return breaker.state == OPEN

    def record_success(self, key: tuple) -> None:
        with self._lock:
            self._breakers.pop(key, None)

    def is_open(self, key: tuple) -> bool:
        """Read-only: a cooled-down breaker reports half-open, not open."""
        with self._lock:
            breaker = self._breakers.get(key)
            return breaker is not None and breaker.state == OPEN

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "quarantined": sum(
                    breaker.state == OPEN for breaker in self._breakers.values()
                ),
                "quarantine_refusals": self._refusals,
            }
