"""``repro.serve`` — the resident scenario service.

Where :mod:`repro.api` runs one scenario per call, this package keeps
the expensive state *resident* and serves many concurrent scenario
runs over it, the way a production dispatch backend would:

* :class:`ScenarioService` — the transport-agnostic core: eager spec
  validation, a bounded run executor, a shared
  :class:`~repro.serve.pool.SessionPool` (one prepared network +
  oracle per identity, however many requests name it; runs on one
  network take turns at its oracle's lock), and per-run result/event
  stores;
* :class:`ScenarioServer` — the stdlib-only asyncio HTTP surface (``POST /runs``, ``GET /runs/<id>``,
  ``GET /metrics``, ``POST /shutdown``);
* :func:`serve_stdin` — the JSON-lines stdin/stdout fallback for
  pipelines and CI;
* :class:`JsonlSink` / :class:`MemorySink` — pluggable result sinks on
  the :class:`~repro.simulation.hooks.SimulationHooks` protocol,
  usable outside the server too (``run_scenario(spec,
  hooks=JsonlSink("trace.jsonl"))``).

Start one from the command line with ``python -m repro.cli serve`` —
see ``docs/SERVING.md`` for the endpoint reference and examples.
"""

from .pool import SessionPool, pool_key
from .protocol import (
    CANCELLED,
    COMPLETED,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUN_STATES,
    RUNNING,
    TERMINAL_STATES,
    ProtocolError,
    RunRecord,
    parse_submission,
)
from .server import ScenarioServer, serve_stdin
from .service import ScenarioService
from .sinks import EventRecorder, JsonlSink, MemorySink, read_trace

__all__ = [
    "ScenarioService",
    "ScenarioServer",
    "serve_stdin",
    "SessionPool",
    "pool_key",
    "EventRecorder",
    "JsonlSink",
    "MemorySink",
    "read_trace",
    "ProtocolError",
    "RunRecord",
    "parse_submission",
    "RUN_STATES",
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "FAILED",
    "CANCELLED",
    "INTERRUPTED",
    "TERMINAL_STATES",
]
