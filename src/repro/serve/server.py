"""Transports of the scenario service: asyncio HTTP and stdin JSON-lines.

Both are stdlib-only adapters over
:class:`~repro.serve.service.ScenarioService`.

**HTTP** (:class:`ScenarioServer`) — a deliberately small HTTP/1.1
surface on ``asyncio.start_server`` (no framework, no dependency):

========  =================  ==============================================
method    path               meaning
========  =================  ==============================================
POST      ``/runs``          submit a ScenarioSpec JSON document; returns
                             202 + the queued run record.  ``{"spec": ...,
                             "wait": true}`` (or ``?wait=1``) blocks until
                             the run finished and returns the full record.
GET       ``/runs``          list retained run records (without results)
GET       ``/runs/<id>``     one run record, result included when finished
GET       ``/runs/<id>/events``  the run's retained progress events
POST      ``/runs/<id>/cancel``  cancel a queued run now, or ask a
                             running one to stop at its next tick
                             boundary; returns 202 + the record
GET       ``/metrics``       pool / oracle-lock / queue / latency counters
GET       ``/healthz``       liveness probe
POST      ``/shutdown``      stop the server; ``?drain=1`` (or a body of
                             ``{"drain": true, "grace": seconds}``) first
                             performs a graceful drain — admission stops
                             with a structured 503 ``draining`` refusal,
                             in-flight runs finish or checkpoint within
                             the grace budget, and a clean-shutdown
                             marker is journaled before the process exits
========  =================  ==============================================

Every response is JSON; refusals carry the structured
:class:`~repro.serve.protocol.ProtocolError` payload with a matching
status code.  Simulations never run on the event loop — the service's
bounded executor runs them, and ``wait`` blocks in a side thread via
``run_in_executor``.

**stdin JSON-lines** (:func:`serve_stdin`) — the no-socket fallback for
pipelines and CI: one JSON request per line on stdin, one JSON reply
per line on stdout.  ``{"op": "submit", "spec": {...}, "wait": true}``
submits (and optionally blocks), ``poll``/``events``/``metrics``/
``list`` observe, ``cancel`` stops a run, ``shutdown`` exits the loop
— ``{"op": "shutdown", "drain": true, "grace": seconds}`` first runs
the same graceful drain as ``POST /shutdown?drain=1`` and replies with
the drain summary.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, IO, Mapping
from urllib.parse import parse_qs, urlsplit

from .protocol import ProtocolError, RunRecord, json_bytes, parse_seconds
from .service import ScenarioService

#: Largest accepted request body (a spec document is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

_STATUS_PHRASES = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ScenarioServer:
    """Asyncio HTTP front end of a :class:`ScenarioService`.

    Parameters
    ----------
    service:
        The service to expose (owned by the caller; ``serve_forever``
        shuts it down when the server stops).
    host, port:
        Listen address.  ``port=0`` picks a free port — the bound
        address is available as :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        service: ScenarioService,
        host: str = "127.0.0.1",
        port: int = 8700,
        *,
        drain_grace: float = 30.0,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._drain_grace = drain_grace
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._drain_task: asyncio.Task | None = None
        self._drain_summary: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        """Serve until ``POST /shutdown`` (or :meth:`request_stop`)."""
        await self.start()
        assert self._server is not None
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            if self._drain_task is not None:
                # A graceful drain owns the wind-down (it settles the
                # in-flight runs and journals the clean-shutdown marker).
                await self._drain_task
            else:
                # Drain in-flight runs off the event loop.
                await asyncio.get_running_loop().run_in_executor(
                    None, self._service.shutdown
                )

    def request_stop(self) -> None:
        """Ask ``serve_forever`` to wind down (thread-unsafe; loop only)."""
        self._stop.set()

    def request_drain(self, grace: float | None = None) -> None:
        """Begin a graceful drain and stop once it settles (loop only).

        Admission stops immediately (the service 503s new submissions
        as ``draining``); the listener stays open so ``/metrics`` and
        ``GET /runs`` keep answering while in-flight runs finish or
        checkpoint, then the server winds down.  Idempotent — a second
        call while a drain is in progress is a no-op.
        """
        if self._drain_task is not None or self._stop.is_set():
            return
        budget = self._drain_grace if grace is None else grace
        loop = asyncio.get_running_loop()

        async def _drain_then_stop() -> None:
            self._drain_summary = await loop.run_in_executor(
                None, self._service.drain, budget
            )
            self._stop.set()

        self._drain_task = loop.create_task(_drain_then_stop())

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                status, payload = await self._handle_request(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                # The client vanished mid-request (closed the socket
                # before sending the promised body); nobody is left to
                # answer — tear the connection down cleanly and move on.
                return
            except ProtocolError as exc:
                status, payload = exc.status, exc.payload
            except Exception as exc:  # noqa: BLE001 - a bad request must not kill the loop
                status, payload = 500, {
                    "error": "internal-error",
                    "detail": f"{type(exc).__name__}: {exc}",
                    "status": 500,
                }
            body = json_bytes(payload)
            phrase = _STATUS_PHRASES.get(status, "Unknown")
            head = (
                f"HTTP/1.1 {status} {phrase}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            try:
                writer.write(head.encode("ascii") + body)
                await writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover - client gone
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - client gone
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, Any]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ProtocolError(400, "invalid-request", "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise ProtocolError(
                400, "invalid-request", f"malformed request line {request_line!r}"
            )
        method, target, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise ProtocolError(
                        400, "invalid-request", "malformed Content-Length"
                    )
                if content_length < 0:
                    raise ProtocolError(
                        400, "invalid-request", "negative Content-Length"
                    )
        if content_length > MAX_BODY_BYTES:
            # Refuse before reading a byte of the body: an oversized
            # announcement must not make the server buffer it.
            raise ProtocolError(
                413,
                "payload-too-large",
                f"body of {content_length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        body = await reader.readexactly(content_length) if content_length else b""
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        return await self._route(method.upper(), split.path, query, body)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, query: dict[str, str], body: bytes
    ) -> tuple[int, Any]:
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok"}
        if path == "/metrics" and method == "GET":
            return 200, self._service.metrics()
        if path == "/shutdown" and method == "POST":
            drain, grace = _parse_shutdown(query, body)
            if drain:
                self.request_drain(grace)
                return 202, {
                    "status": "draining",
                    "grace": self._drain_grace if grace is None else grace,
                }
            self.request_stop()
            return 200, {"status": "shutting-down"}
        if path == "/runs" and method == "POST":
            return await self._submit(query, body)
        if path == "/runs" and method == "GET":
            return 200, {
                "runs": [
                    record.as_dict(include_result=False)
                    for record in self._service.list_runs()
                ]
            }
        if path.startswith("/runs/"):
            rest = path[len("/runs/"):]
            if rest.endswith("/cancel"):
                if method != "POST":
                    raise ProtocolError(
                        405, "method-not-allowed", f"{method} {path}"
                    )
                run_id = rest[: -len("/cancel")]
                record = self._service.cancel(run_id)
                return 202, record.as_dict(include_result=False)
            if method != "GET":
                raise ProtocolError(405, "method-not-allowed", f"{method} {path}")
            if rest.endswith("/events"):
                run_id = rest[: -len("/events")]
                return 200, {"run_id": run_id, "events": self._service.events(run_id)}
            return 200, self._service.get(rest).as_dict()
        if path in ("/runs", "/metrics", "/healthz", "/shutdown"):
            raise ProtocolError(405, "method-not-allowed", f"{method} {path}")
        raise ProtocolError(404, "unknown-path", f"no route for {path}")

    async def _submit(
        self, query: dict[str, str], body: bytes
    ) -> tuple[int, Any]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(400, "invalid-json", str(exc))
        query_timeout = _query_seconds(query, "timeout")
        record, options = self._service.submit(payload)
        wait = options.get("wait") or _query_flag(query, "wait")
        timeout = options.get("timeout", query_timeout)
        if not wait:
            return 202, record.as_dict()
        loop = asyncio.get_running_loop()
        record = await loop.run_in_executor(
            None, self._service.wait, record.run_id, timeout
        )
        if not record.done.is_set():
            return 408, {
                "error": "wait-timeout",
                "detail": f"run {record.run_id} still {record.status}",
                "status": 408,
                "run": record.as_dict(include_result=False),
            }
        return 200, record.as_dict()


def _parse_shutdown(
    query: dict[str, str], body: bytes
) -> tuple[bool, float | None]:
    """``(drain?, grace)`` of a shutdown request (query or JSON body)."""
    drain = _query_flag(query, "drain")
    grace = _query_seconds(query, "grace")
    if body:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(400, "invalid-json", str(exc))
        if isinstance(payload, Mapping):
            drain = drain or bool(payload.get("drain"))
            if payload.get("grace") is not None:
                grace = parse_seconds(payload["grace"], "grace")
    return drain, grace


def _query_flag(query: dict[str, str], name: str) -> bool:
    return query.get(name, "").lower() in ("1", "true", "yes")


def _query_seconds(query: dict[str, str], name: str) -> float | None:
    """A duration from the query string, whose values are always text."""
    value: Any = query.get(name)
    if value is not None:
        try:
            value = float(value)
        except ValueError:
            pass  # not a number: parse_seconds refuses the text
    return parse_seconds(value, name)


# ----------------------------------------------------------------------
# stdin JSON-lines transport
# ----------------------------------------------------------------------
def _record_reply(record: RunRecord) -> dict[str, Any]:
    return {"ok": True, **record.as_dict()}


def serve_stdin(
    service: ScenarioService,
    in_stream: IO[str] | None = None,
    out_stream: IO[str] | None = None,
) -> int:
    """Serve JSON-lines requests until EOF or a ``shutdown`` op.

    Every input line is one request object; every reply is one JSON
    line with ``"ok"`` true/false.  Unknown ops and invalid specs are
    structured refusals (the :class:`ProtocolError` payload), never a
    crash — the loop only exits on EOF or an explicit shutdown, and the
    exit drains in-flight runs.  Returns the number of requests served.
    """
    stdin = in_stream if in_stream is not None else sys.stdin
    stdout = out_stream if out_stream is not None else sys.stdout

    def reply(payload: dict[str, Any]) -> None:
        stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        stdout.flush()

    served = 0
    try:
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            served += 1
            try:
                reply(_handle_stdin_request(service, line))
            except ProtocolError as exc:
                reply({"ok": False, **exc.payload})
            except _Shutdown as stop:
                if stop.drain:
                    summary = service.drain(stop.grace)
                    reply({"ok": True, "status": "drained", **summary})
                else:
                    reply({"ok": True, "status": "shutting-down"})
                break
    finally:
        service.shutdown(wait=True)
    return served


class _Shutdown(Exception):
    """Internal control flow: the stdin loop saw a shutdown op."""

    def __init__(self, drain: bool = False, grace: float | None = 30.0) -> None:
        super().__init__("shutdown")
        self.drain = drain
        self.grace = grace


def _handle_stdin_request(service: ScenarioService, line: str) -> dict[str, Any]:
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(400, "invalid-json", str(exc))
    if not isinstance(request, dict):
        raise ProtocolError(
            400, "invalid-request", "each line must be a JSON object"
        )
    op = request.get("op", "submit")
    if op == "submit":
        submission = {key: value for key, value in request.items() if key != "op"}
        if "spec" not in submission:
            # A flat-spec submission carries the transport options
            # inline: wrap it, so parse_submission checks them once.
            inline = {
                key: submission.pop(key)
                for key in ("wait", "timeout")
                if key in submission
            }
            submission = {"spec": submission, **inline}
        record, options = service.submit(submission)
        if options["wait"]:
            record = service.wait(record.run_id, options.get("timeout"))
        return _record_reply(record)
    if op == "poll":
        return _record_reply(service.get(_required_run_id(request)))
    if op == "cancel":
        return _record_reply(service.cancel(_required_run_id(request)))
    if op == "wait":
        record = service.wait(
            _required_run_id(request),
            parse_seconds(request.get("timeout"), "timeout"),
        )
        if not record.done.is_set():
            raise ProtocolError(
                408, "wait-timeout", f"run {record.run_id} still {record.status}"
            )
        return _record_reply(record)
    if op == "events":
        run_id = _required_run_id(request)
        return {"ok": True, "run_id": run_id, "events": service.events(run_id)}
    if op == "list":
        return {
            "ok": True,
            "runs": [
                record.as_dict(include_result=False)
                for record in service.list_runs()
            ],
        }
    if op == "metrics":
        return {"ok": True, **service.metrics()}
    if op == "shutdown":
        grace = parse_seconds(request.get("grace", 30.0), "grace")
        raise _Shutdown(drain=bool(request.get("drain")), grace=grace)
    raise ProtocolError(
        400,
        "unknown-op",
        f"unknown op {op!r}; expected submit/poll/cancel/wait/events/"
        f"list/metrics/shutdown",
    )


def _required_run_id(request: dict[str, Any]) -> str:
    run_id = request.get("run_id")
    if not isinstance(run_id, str) or not run_id:
        raise ProtocolError(400, "invalid-request", "run_id is required")
    return run_id


__all__ = [
    "ScenarioServer",
    "serve_stdin",
    "MAX_BODY_BYTES",
]
