"""``repro.resilience`` — the stdlib-only fault-tolerance runtime.

Four building blocks, threaded through the serve, api and oracle
layers:

* **Deadlines & cancellation** (:mod:`~repro.resilience.cancellation`)
  — a :class:`CancellationToken` the engine checks cooperatively at
  tick boundaries; expiry or an explicit cancel raises
  :class:`RunCancelled`, which unwinds cleanly (partial timings
  preserved).
* **Retry with backoff + jitter** (:mod:`~repro.resilience.retry`) —
  a frozen :class:`RetryPolicy` applied at the runtime's transient
  failure points (oracle cache IO, session preparation); jitter is
  seeded, so retried runs stay reproducible.
* **Degradation chains** (:mod:`~repro.resilience.degradation`) —
  recorded fallbacks (:class:`DegradationLog` travels with each run
  into ``RunResult.degradations`` and ``/metrics``) plus the
  :class:`CircuitOpenError` a quarantined view identity refuses with
  (the serve layer's breaker table quarantines repeatedly failing
  session preparations).
* **Deterministic fault injection** (:mod:`~repro.resilience.faults`)
  — seeded :class:`FaultInjector` schedules behind the
  :func:`fault_point` hooks, powering the chaos property tests and
  ``repro serve --inject-faults``.

See ``docs/RESILIENCE.md`` for semantics and the failure-mode table.
"""

from .cancellation import CancellationToken, RunCancelled
from .degradation import (
    CircuitOpenError,
    DegradationEvent,
    DegradationLog,
)
from .faults import (
    FaultInjector,
    InjectedOSError,
    InjectedRuntimeError,
    active_injector,
    corrupt_file_if_scheduled,
    fault_point,
    injected_faults,
    install_injector,
    uninstall_injector,
)
from .retry import DEFAULT_IO_POLICY, RetryPolicy, retry_call

__all__ = [
    "CancellationToken",
    "RunCancelled",
    "RetryPolicy",
    "retry_call",
    "DEFAULT_IO_POLICY",
    "DegradationEvent",
    "DegradationLog",
    "CircuitOpenError",
    "FaultInjector",
    "InjectedOSError",
    "InjectedRuntimeError",
    "fault_point",
    "corrupt_file_if_scheduled",
    "install_injector",
    "uninstall_injector",
    "active_injector",
    "injected_faults",
]
