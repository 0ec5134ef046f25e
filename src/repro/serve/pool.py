"""Shared pool of prepared Sessions, keyed by network + oracle identity.

A resident service amortises exactly what a :class:`repro.api.Session`
memoises — road networks, generated workloads, threshold providers and
above all the distance oracle, whose preprocessing (CH contraction)
dominates cold-start time.  The pool extends that
amortisation *across requests*: every scenario that names the same
network source and the same oracle configuration lands on one pooled
session, so two concurrent requests for the same city build the oracle
exactly once (the second blocks on the session lock and reuses it —
``Session.oracle_builds`` stays at one, which the service tests
assert).

Scenarios that differ only in workload shape, algorithm or dispatch
settings still share a pooled session when their *network and oracle*
identity matches; the session's own memoisation keys keep their
workloads apart.  The seed *is* part of the identity — network
generation (grid jitter, dataset city sampling) is seeded, so a
different seed is a different graph and a different oracle.  The pool is LRU-bounded: evicting a session drops its
in-memory preparation, while any on-disk oracle cache
(``oracle.cache_dir``) keeps even a re-built session warm.

Each pool entry additionally carries a
:class:`~repro.resilience.degradation.CircuitBreaker`: a session whose
preparation keeps failing (an unreadable dataset, a poisoned cache
directory) is quarantined, and while its breaker is open every request
for that identity is refused immediately with a structured
:class:`~repro.resilience.degradation.CircuitOpenError` instead of
burning an executor slot on a preparation that is known to fail.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..api import ScenarioSpec, Session
from ..resilience.degradation import CircuitBreaker, CircuitOpenError, OPEN

#: Default bound on resident sessions (each may hold a prepared oracle
#: and a handful of memoised workloads).
DEFAULT_MAX_SESSIONS = 8


def pool_key(spec: ScenarioSpec) -> tuple:
    """The identity under which a spec's prepared state is shareable.

    Everything that determines *which network object* is built and
    *which oracle* is attached to it: the network source (dataset
    preset or grid shape), the resolved seed (networks are generated
    from it), and the resolved :class:`~repro.api.OracleSpec` — the
    same value :func:`~repro.network.oracle.configure_oracle` compares
    before reusing an attached oracle, so two specs share a session
    exactly when they would share its oracle.  Fields that only shape
    the workload or the dispatch (order counts, algorithm, dispatch
    workers) are deliberately absent — they share the pooled session.
    """
    config = spec.config()
    if spec.network == "dataset":
        network_part: tuple = ("dataset", spec.dataset)
    else:
        network_part = (
            "grid",
            spec.grid_rows,
            spec.grid_cols,
            spec.grid_edge_travel_time,
            spec.grid_jitter,
        )
    return (network_part, config.seed, config.oracle.resolved())


class SessionPool:
    """Thread-safe LRU pool of prepared :class:`~repro.api.Session` objects.

    Parameters
    ----------
    max_sessions:
        Resident-session bound; the least recently used session is
        evicted beyond it.
    oracle_cache_dir:
        Default on-disk oracle cache handed to every pooled session
        (individual specs may still override it).
    breaker_threshold / breaker_reset_seconds:
        Consecutive preparation failures that quarantine one pool
        entry, and how long the quarantine lasts before a half-open
        probe is allowed through.
    """

    def __init__(
        self,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        *,
        oracle_cache_dir: str | None = None,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 30.0,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self._max_sessions = max_sessions
        self._oracle_cache_dir = oracle_cache_dir
        self._breaker_threshold = breaker_threshold
        self._breaker_reset_seconds = breaker_reset_seconds
        self._sessions: OrderedDict[tuple, Session] = OrderedDict()
        self._breakers: dict[tuple, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._quarantine_refusals = 0

    def acquire(self, spec: ScenarioSpec) -> Session:
        """The pooled session for the spec's network/oracle identity.

        A hit returns the existing session (and refreshes its LRU
        position); a miss creates one.  The session returned is shared
        — callers must go through its thread-safe ``prepare``/``run``
        surface.  An identity whose breaker is open raises
        :class:`~repro.resilience.degradation.CircuitOpenError`
        (half-open admits one probe per reset window).
        """
        key = pool_key(spec)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is not None and not breaker.allow():
                self._quarantine_refusals += 1
                raise CircuitOpenError(
                    "session preparation for this scenario identity keeps "
                    "failing; the entry is quarantined",
                    retry_after_seconds=breaker.seconds_until_retry(),
                )
            session = self._sessions.get(key)
            if session is not None:
                self._hits += 1
                self._sessions.move_to_end(key)
                return session
            self._misses += 1
            session = Session(oracle_cache_dir=self._oracle_cache_dir)
            self._sessions[key] = session
            while len(self._sessions) > self._max_sessions:
                evicted_key, _ = self._sessions.popitem(last=False)
                self._breakers.pop(evicted_key, None)
                self._evictions += 1
            return session

    def record_failure(self, spec: ScenarioSpec) -> None:
        """Count one preparation failure against the spec's identity.

        When the failure trips the breaker the session itself is also
        evicted: whatever half-built state it holds is suspect, and the
        half-open probe after the reset window should start clean.
        """
        key = pool_key(spec)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    reset_seconds=self._breaker_reset_seconds,
                )
                self._breakers[key] = breaker
            breaker.record_failure()
            if breaker.state == OPEN:
                self._sessions.pop(key, None)

    def record_success(self, spec: ScenarioSpec) -> None:
        """A successful preparation closes the identity's breaker."""
        key = pool_key(spec)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is not None:
                breaker.record_success()

    def is_quarantined(self, spec: ScenarioSpec) -> bool:
        """Whether the spec's identity is currently refused (read-only)."""
        key = pool_key(spec)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                return False
            # Read-only: peeks at the state without consuming the
            # half-open probe that ``allow`` would (a cooled-down
            # breaker reports half-open, i.e. not quarantined).
            return breaker.state == OPEN

    def stats(self) -> dict[str, int]:
        """Pool counters for the service's ``/metrics`` endpoint."""
        with self._lock:
            oracle_builds = sum(
                session.oracle_builds for session in self._sessions.values()
            )
            quarantined = sum(
                1
                for breaker in self._breakers.values()
                if breaker.state == OPEN
            )
            return {
                "sessions": len(self._sessions),
                "max_sessions": self._max_sessions,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "oracle_builds": oracle_builds,
                "quarantined": quarantined,
                "quarantine_refusals": self._quarantine_refusals,
            }
