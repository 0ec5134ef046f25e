"""Degradation chains: recorded fallbacks and per-identity circuit breaking.

When a component of the runtime fails persistently, the run should
*degrade*, not die — a corrupt CH cache rebuilds from scratch, a CH
contraction that itself fails falls back to the ``lazy`` backend.
Every such fallback is an observable event: the run that degraded
still answers, but its :class:`~repro.api.RunResult`
(``degradations``) and the service ``/metrics`` say exactly what was
given up, where, and why.

:class:`CircuitBreaker` is the service-side complement: a prepared
view whose preparation keeps failing (a bad cache volume, an
impossible oracle config) is quarantined for a cool-down instead of
re-running its expensive failing build on every request.  The breaker
follows the classic three states — ``closed`` (normal), ``open``
(refusing), ``half-open`` (one trial request probes recovery).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

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


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a timed half-open probe.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    reset_seconds:
        Cool-down after which one trial request is let through
        (half-open); its success closes the breaker, its failure
        re-opens it for another full cool-down.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 30.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_seconds < 0:
            raise ValueError("reset_seconds must be non-negative")
        self._failure_threshold = failure_threshold
        self._reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = CLOSED
        self._opened_at: float | None = None

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """Open -> half-open after the cool-down (lock held)."""
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self._reset_seconds
        ):
            self._state = HALF_OPEN

    def allow(self) -> bool:
        """Whether a request may proceed; a half-open probe is consumed.

        At most one trial runs per cool-down window: the transition to
        half-open admits exactly one caller (this call), and further
        calls are refused until that trial reports back.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                # Consume the probe: revert to OPEN with a fresh window
                # so concurrent callers are refused while it runs.
                self._state = OPEN
                self._opened_at = self._clock()
                return True
            return False

    def seconds_until_retry(self) -> float | None:
        """Cool-down remaining while open (``None`` when requests flow)."""
        with self._lock:
            self._maybe_half_open()
            if self._state != OPEN or self._opened_at is None:
                return None
            remaining = self._reset_seconds - (self._clock() - self._opened_at)
            return max(0.0, remaining)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._failures >= self._failure_threshold:
                self._state = OPEN
                self._opened_at = self._clock()

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = CLOSED
            self._opened_at = None
