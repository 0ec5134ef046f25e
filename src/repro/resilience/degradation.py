"""Degradation chains: recorded fallbacks, and the circuit breaker's refusal.

When a component of the runtime fails persistently, the run should
*degrade*, not die — a corrupt CH cache rebuilds from scratch, a CH
contraction that itself fails falls back to the ``lazy`` backend.
Every such fallback is an observable event: the run that degraded
still answers, but its :class:`~repro.api.RunResult`
(``degradations``) and the service ``/metrics`` say exactly what was
given up, where, and why.

:class:`CircuitOpenError` is the service-side complement: a prepared
view whose preparation keeps failing (a bad cache volume, an
impossible oracle config) is quarantined for a cool-down by the serve
layer's breaker table (:class:`repro.serve.pool.BreakerTable`) instead
of re-running its expensive failing build on every request, and every
request it refuses meanwhile gets this error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..exceptions import ReproError


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded fallback: what degraded, from what, to what, and why."""

    site: str
    from_value: str
    to_value: str
    reason: str

    def as_dict(self) -> dict[str, str]:
        return {
            "site": self.site,
            "from": self.from_value,
            "to": self.to_value,
            "reason": self.reason,
        }


class DegradationLog:
    """Thread-safe, append-only record of a run's degradation events.

    One log travels with one run (session -> oracle registry); the
    serving layer folds the events into the run summary and the
    ``/metrics`` counters.
    """

    def __init__(self) -> None:
        self._events: list[DegradationEvent] = []
        self._lock = threading.Lock()

    def record(
        self, site: str, from_value: str, to_value: str, reason: str
    ) -> DegradationEvent:
        event = DegradationEvent(
            site=site, from_value=from_value, to_value=to_value, reason=reason
        )
        with self._lock:
            self._events.append(event)
        return event

    @property
    def events(self) -> tuple[DegradationEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def as_dicts(self) -> list[dict[str, str]]:
        return [event.as_dict() for event in self.events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class CircuitOpenError(ReproError):
    """A quarantined identity refused a request (503-shaped upstream)."""

    def __init__(self, detail: str, *, retry_after_seconds: float | None = None):
        super().__init__(detail)
        self.retry_after_seconds = retry_after_seconds
