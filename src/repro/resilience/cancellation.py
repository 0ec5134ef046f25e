"""Cooperative deadlines and cancellation for long-running scenario runs.

A resident service cannot afford a stuck simulation: one run that never
returns pins an executor slot forever.  Preemption is not an option —
the engine is pure Python and mid-tick state is not safely abortable —
so cancellation here is **cooperative**: the caller hands the run a
:class:`CancellationToken`, and the engine calls :meth:`CancellationToken.
check` at every tick boundary (and before every order submission).  A
token that has been cancelled — explicitly via :meth:`CancellationToken.
cancel` (``POST /runs/<id>/cancel``) or implicitly because its
wall-clock deadline expired — makes the next ``check()`` raise
:class:`RunCancelled`, which unwinds the run (the engine leaves one
forced checkpoint behind on the way out).

The deadline clock starts at :meth:`CancellationToken.start` — stamped
when the run actually begins executing, not when it was submitted — so
queue time never eats a run's budget.  Both the clock source and the
deadline arithmetic use ``time.monotonic`` (injectable for tests).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..exceptions import ReproError


class RunCancelled(ReproError):
    """A run was cancelled — by deadline expiry or by explicit request.

    ``partial`` carries whatever the unwinding layers could salvage
    (wall-clock timings, the graph hash, degradation events); the
    serving layer attaches it to the run record so a cancelled run is
    still accountable.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason
        self.partial: dict[str, Any] | None = None


class CancellationToken:
    """Thread-safe cancellation flag with an optional wall-clock deadline.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock budget measured from :meth:`start`; ``None`` means
        no deadline (the token only cancels explicitly).
    clock:
        Monotonic time source; injectable so tests drive expiry
        deterministically.
    """

    def __init__(
        self,
        deadline_seconds: float | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        self._clock = clock
        self._deadline_seconds = deadline_seconds
        self._started_at: float | None = None
        self._deadline_at: float | None = None
        self._reason: str | None = None
        self._lock = threading.Lock()

    @property
    def deadline_seconds(self) -> float | None:
        return self._deadline_seconds

    def start(self) -> None:
        """Stamp the deadline clock (idempotent; first call wins)."""
        with self._lock:
            if self._started_at is None:
                self._started_at = self._clock()
                if self._deadline_seconds is not None:
                    self._deadline_at = self._started_at + self._deadline_seconds

    def cancel(self, reason: str = "cancelled") -> None:
        """Cancel the token; the first recorded reason wins."""
        with self._lock:
            if self._reason is None:
                self._reason = reason

    def _poll_deadline(self) -> None:
        with self._lock:
            if (
                self._reason is None
                and self._deadline_at is not None
                and self._clock() >= self._deadline_at
            ):
                self._reason = (
                    f"deadline of {self._deadline_seconds:g}s exceeded"
                )

    @property
    def cancelled(self) -> bool:
        """Whether the token has been cancelled (deadline expiry counts)."""
        self._poll_deadline()
        with self._lock:
            return self._reason is not None

    @property
    def reason(self) -> str | None:
        with self._lock:
            return self._reason

    def remaining_seconds(self) -> float | None:
        """Budget left before deadline expiry (``None`` without one)."""
        with self._lock:
            if self._deadline_at is None:
                return None
            return self._deadline_at - self._clock()

    def check(self) -> None:
        """Raise :class:`RunCancelled` if the token is cancelled.

        The cooperative checkpoint: cheap enough to call at every tick
        boundary (one monotonic read and one lock acquisition).
        """
        self._poll_deadline()
        with self._lock:
            reason = self._reason
        if reason is not None:
            raise RunCancelled(reason)
