"""Wire types of the scenario service: requests, run records, errors.

The service speaks one vocabulary over both of its transports (HTTP
and stdin JSON-lines): a **submission** carries a
:class:`~repro.api.ScenarioSpec` document (either the flat spec mapping
itself or wrapped as ``{"spec": {...}}`` alongside transport options
such as ``wait``), and every reply is a JSON-able mapping derived from
a :class:`RunRecord`.  Validation is eager and reuses the spec layer's
precise :class:`~repro.exceptions.ConfigurationError` messages — a bad
submission never reaches the executor; it comes straight back as a
structured 400-style :class:`ProtocolError`.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..api import ScenarioSpec
from ..exceptions import ConfigurationError

#: Lifecycle states of a submitted run.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
#: The run's process died (or drained away) mid-flight; the record
#: carries the last checkpoint cursor when one survived.  Runs recovered
#: from the journal land here when they cannot be (or are not) resumed.
INTERRUPTED = "interrupted"

RUN_STATES = (QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED, INTERRUPTED)

#: States a record can never leave.
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED, INTERRUPTED})

#: Submission keys that are transport options, not spec fields.
_SUBMIT_OPTION_KEYS = frozenset({"spec", "wait", "timeout"})


class ProtocolError(Exception):
    """A request the service refuses, with an HTTP-shaped status code.

    ``payload`` is the structured body both transports return verbatim
    (the HTTP server as the response body of a 4xx, the stdin transport
    as the reply line), so clients can match on ``error`` rather than
    parse prose.
    """

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.error = error
        self.detail = detail

    @property
    def payload(self) -> dict[str, Any]:
        return {"error": self.error, "detail": self.detail, "status": self.status}


def parse_seconds(value: Any, name: str) -> float | None:
    """A transport duration (``timeout``, ``grace``): ``None`` or a JSON number.

    Anything else — text, a boolean — is a 400 ``invalid-request``.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            400, "invalid-request", f"{name} must be a number of seconds"
        )
    return float(value)


def parse_flag(value: Any, name: str) -> bool:
    """A transport switch (``wait``, ``drain``): absent, ``null`` or a JSON boolean.

    Anything else — text such as ``"no"``, a number — is a 400
    ``invalid-request``, never read as true.
    """
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ProtocolError(400, "invalid-request", f"{name} must be true or false")
    return value


def parse_submission(payload: Any) -> tuple[ScenarioSpec, dict[str, Any]]:
    """Validate a submission document into ``(spec, options)``.

    Accepts either a flat :class:`ScenarioSpec` mapping or a wrapper
    ``{"spec": {...}, "wait": bool, "timeout": seconds}``.  Spec
    problems surface as a 400-style :class:`ProtocolError` carrying the
    spec layer's precise message.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            400,
            "invalid-request",
            f"a submission must be a JSON object, got {type(payload).__name__}",
        )
    options: dict[str, Any] = {}
    if "spec" in payload:
        document = payload["spec"]
        for key in payload:
            if key not in _SUBMIT_OPTION_KEYS:
                raise ProtocolError(
                    400,
                    "invalid-request",
                    f"unknown submission key {key!r}; expected "
                    f"{sorted(_SUBMIT_OPTION_KEYS)}",
                )
        options["wait"] = parse_flag(payload.get("wait"), "wait")
        timeout = parse_seconds(payload.get("timeout"), "timeout")
        if timeout is not None:
            options["timeout"] = timeout
    else:
        document = payload
    if not isinstance(document, Mapping):
        raise ProtocolError(
            400,
            "invalid-spec",
            f"the spec document must be a JSON object, got "
            f"{type(document).__name__}",
        )
    try:
        spec = ScenarioSpec.from_dict(document)
    except ConfigurationError as exc:
        raise ProtocolError(400, "invalid-spec", str(exc)) from exc
    return spec, options


@dataclass
class RunRecord:
    """One submitted run's lifecycle, from queued to completed/failed.

    Mutable by design — the service moves it through the states and
    attaches the result summary — but only ever mutated through the
    state methods below, which also stamp the timings and set the
    ``done`` event that pollers and the stdin ``wait`` option block on.
    A small state lock makes the transitions race-free: a record in a
    terminal state never changes again, so an executor thread finishing
    a run and a transport thread cancelling it cannot both win.
    """

    run_id: str
    #: The parsed spec — or, for a run recovered from durable state
    #: whose spec this build no longer parses, the stored document
    #: verbatim (such a record is always terminal).
    spec: ScenarioSpec | dict[str, Any]
    status: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    cancellation: Any = field(default=None, repr=False)
    #: Cursor of the run's last surviving checkpoint (set on recovery
    #: and on drain interruption) — how far it got before the cut.
    checkpoint: dict[str, Any] | None = None
    #: Cursor this run resumed from, when it continued a prior attempt.
    resumed_from: dict[str, Any] | None = None
    #: Checkpoint file the executor should resume from (recovery only;
    #: never serialized).
    resume_path: str | None = field(default=None, repr=False)
    #: :meth:`as_dict` as it read when the run was queued: what a 202
    #: reply to the submission carries, however soon the run finishes.
    admitted: dict[str, Any] = field(default_factory=dict, repr=False)
    _state_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def claim(self) -> bool:
        """QUEUED → RUNNING, exactly once.

        Returns ``False`` when the record already left the queue — a
        cancel raced the executor and won; the run must not start.
        """
        with self._state_lock:
            if self.status != QUEUED:
                return False
            self.status = RUNNING
            self.started_at = time.time()
            return True

    def mark_completed(self, result: dict[str, Any]) -> None:
        with self._state_lock:
            if self.status in TERMINAL_STATES:
                return
            self.status = COMPLETED
            self.finished_at = time.time()
            self.result = result
            self.done.set()

    def mark_failed(self, error: str, detail: str) -> None:
        with self._state_lock:
            if self.status in TERMINAL_STATES:
                return
            self.status = FAILED
            self.finished_at = time.time()
            self.error = {"error": error, "detail": detail}
            self.done.set()

    def mark_cancelled(
        self, reason: str, partial: dict[str, Any] | None = None
    ) -> None:
        """Terminal ``cancelled`` state, keeping whatever partial survived."""
        with self._state_lock:
            if self.status in TERMINAL_STATES:
                return
            self.status = CANCELLED
            self.finished_at = time.time()
            self.error = {"error": "cancelled", "detail": reason}
            if partial is not None:
                self.result = partial
            self.done.set()

    def mark_interrupted(
        self, reason: str, *, checkpoint: dict[str, Any] | None = None
    ) -> None:
        """Terminal ``interrupted`` state: the run was cut, not failed.

        ``checkpoint`` is the last surviving cursor, so a client (or a
        later ``repro run --resume``) can see exactly how far the run
        got and what a resume would continue from.
        """
        with self._state_lock:
            if self.status in TERMINAL_STATES:
                return
            self.status = INTERRUPTED
            self.finished_at = time.time()
            self.error = {"error": "interrupted", "detail": reason}
            if checkpoint is not None:
                self.checkpoint = checkpoint
            self.done.set()

    def cancel_if_queued(self, reason: str) -> bool:
        """Cancel a run that never started (QUEUED → CANCELLED)."""
        with self._state_lock:
            if self.status != QUEUED:
                return False
            self.status = CANCELLED
            self.finished_at = time.time()
            self.error = {"error": "cancelled", "detail": reason}
            self.done.set()
            return True

    @property
    def latency_seconds(self) -> float | None:
        """Submit-to-finish wall clock (``None`` while in flight)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def run_seconds(self) -> float | None:
        """Start-to-finish wall clock (``None`` while in flight)."""
        if self.finished_at is None or self.started_at is None:
            return None
        return self.finished_at - self.started_at

    def as_dict(self, *, include_result: bool = True) -> dict[str, Any]:
        """The JSON-able view both transports return."""
        if isinstance(self.spec, ScenarioSpec):
            scenario: str | None = self.spec.describe()
            algorithm = self.spec.algorithm
            spec_document = self.spec.to_dict()
        else:
            scenario = None
            algorithm = self.spec.get("algorithm")
            spec_document = dict(self.spec)
        data: dict[str, Any] = {
            "run_id": self.run_id,
            "status": self.status,
            "scenario": scenario,
            "algorithm": algorithm,
            "spec": spec_document,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "latency_seconds": self.latency_seconds,
        }
        if self.error is not None:
            data["error"] = self.error
        if self.checkpoint is not None:
            data["checkpoint"] = self.checkpoint
        if self.resumed_from is not None:
            data["resumed_from"] = self.resumed_from
        if include_result and self.result is not None:
            data["result"] = self.result
        return data


def json_bytes(payload: Any) -> bytes:
    """Canonical JSON encoding used by both transports."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
