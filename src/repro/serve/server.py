"""Transports of the scenario service: asyncio HTTP and stdin JSON-lines.

Both are stdlib-only adapters over
:class:`~repro.serve.service.ScenarioService`, and both answer every
verb they share from one op table, :func:`answer`, which returns
``(status, payload)``:

=======  ============================  ===========  ================================
op       HTTP                          stdin        status and payload
=======  ============================  ===========  ================================
submit   ``POST /runs``                ``submit``   202 + the queued record; with
                                       (default)    ``wait``, 200 + the finished
                                                    record, or 408 ``wait-timeout``
                                                    + the ``run`` so far
poll     ``GET /runs/<id>``            ``poll``     200 + the record, result included
wait     —                             ``wait``     200 or 408, as a waiting submit
cancel   ``POST /runs/<id>/cancel``    ``cancel``   202 + the record, no result
events   ``GET /runs/<id>/events``     ``events``   200 + the retained events
list     ``GET /runs``                 ``list``     200 + the records, no results
metrics  ``GET /metrics``              ``metrics``  200 + pool / oracle / queue /
                                                    latency counters
=======  ============================  ===========  ================================

``GET /healthz`` (liveness) is HTTP's own.  ``shutdown`` (``POST
/shutdown`` or the stdin op) reads its options with one parser and acts
per transport: ``{"drain": true, "grace": seconds}`` first drains —
admission stops with a structured 503 ``draining`` refusal, in-flight
runs finish or checkpoint within the grace budget, and a clean-shutdown
marker is journaled before the process exits.

HTTP writes ``(status, payload)`` as the response.  A submission's
options ride in the body (``{"spec": {...}, "wait": true, "timeout":
seconds}``) or the query (``?wait=1&timeout=seconds``); the body's
win.  stdin reads one JSON object per line and writes one
``{"ok": status < 400, **payload}`` line per request; a line without
``"op"`` is a submission, and a flat spec line may carry ``wait`` /
``timeout`` inline.  ``wait`` and ``drain`` must be JSON booleans,
``timeout`` and ``grace`` JSON numbers (query text reads ``1`` /
``true`` / ``yes`` as true and must spell a number); anything else is a
400 ``invalid-request``.  Refusals are the structured
:class:`~repro.serve.protocol.ProtocolError` payload.  Simulations never
run on the event loop: the service's executor runs them, and a waiting
HTTP submission blocks in a side thread.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Callable, IO, Mapping
from urllib.parse import parse_qs, urlsplit

from .protocol import (
    ProtocolError,
    RunRecord,
    json_bytes,
    parse_flag,
    parse_seconds,
    parse_submission,
)
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

#: ``(status, payload)``: what every op answers, on either transport.
Reply = tuple[int, dict[str, Any]]


# ----------------------------------------------------------------------
# the op table both transports answer from
# ----------------------------------------------------------------------
def answer(service: ScenarioService, op: Any, fields: Mapping[str, Any]) -> Reply:
    """Answer one verb the transports share: ``(status, payload)``.

    ``fields`` is the request: the submission document for ``submit``,
    ``run_id`` (and ``timeout`` for ``wait``) for the run verbs.  A
    waiting submission and the ``wait`` op block until the run finished
    or the timeout elapsed.  Refusals raise :class:`ProtocolError`.
    """
    handler = _OPS.get(op) if isinstance(op, str) else None
    if handler is None:
        raise ProtocolError(
            400, "unknown-op", f"unknown op {op!r}; expected {'/'.join(_OPS)}/shutdown"
        )
    return handler(service, fields)


def _submit(service: ScenarioService, fields: Mapping[str, Any]) -> Reply:
    spec, options = parse_submission(fields)
    record = service.submit_spec(spec)
    if not options.get("wait"):
        return 202, record.admitted
    return _settled(service.wait(record.run_id, options.get("timeout")))


def _wait(service: ScenarioService, fields: Mapping[str, Any]) -> Reply:
    run_id = _run_id(fields)
    return _settled(
        service.wait(run_id, parse_seconds(fields.get("timeout"), "timeout"))
    )


def _settled(record: RunRecord) -> Reply:
    """200 + the finished record, or 408 ``wait-timeout`` + the run so far."""
    if record.done.is_set():
        return 200, record.as_dict()
    return 408, {
        "error": "wait-timeout",
        "detail": f"run {record.run_id} still {record.status}",
        "status": 408,
        "run": record.as_dict(include_result=False),
    }


def _events(service: ScenarioService, fields: Mapping[str, Any]) -> Reply:
    run_id = _run_id(fields)
    return 200, {"run_id": run_id, "events": service.events(run_id)}


def _run_id(fields: Mapping[str, Any]) -> str:
    run_id = fields.get("run_id")
    if not isinstance(run_id, str) or not run_id:
        raise ProtocolError(400, "invalid-request", "run_id is required")
    return run_id


_OPS: dict[str, Callable[[ScenarioService, Mapping[str, Any]], Reply]] = {
    "submit": _submit,
    "poll": lambda service, fields: (200, service.get(_run_id(fields)).as_dict()),
    "wait": _wait,
    "cancel": lambda service, fields: (
        202,
        service.cancel(_run_id(fields)).as_dict(include_result=False),
    ),
    "events": _events,
    "list": lambda service, fields: (
        200,
        {"runs": [run.as_dict(include_result=False) for run in service.list_runs()]},
    ),
    "metrics": lambda service, fields: (200, service.metrics()),
}


def _shutdown_options(fields: Mapping[str, Any]) -> tuple[bool, float | None]:
    """``(drain?, grace)`` of a shutdown request; ``grace`` is ``None`` unset."""
    return (
        parse_flag(fields.get("drain"), "drain"),
        parse_seconds(fields.get("grace"), "grace"),
    )


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
#: Route -> method -> op.  ``<id>`` is the run id the path carries.
_ROUTES = {
    "/healthz": {"GET": "healthz"},
    "/metrics": {"GET": "metrics"},
    "/shutdown": {"POST": "shutdown"},
    "/runs": {"POST": "submit", "GET": "list"},
    "/runs/<id>": {"GET": "poll"},
    "/runs/<id>/events": {"GET": "events"},
    "/runs/<id>/cancel": {"POST": "cancel"},
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
            await loop.run_in_executor(None, self._service.drain, budget)
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

    async def _handle_request(self, reader: asyncio.StreamReader) -> Reply:
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
        return await self._answer(method.upper(), split.path, query, body)

    async def _answer(
        self, method: str, path: str, query: dict[str, str], body: bytes
    ) -> Reply:
        op, fields = _http_op(method, path)
        if op == "healthz":
            return 200, {"status": "ok"}
        if op == "shutdown":
            document = _json_body(body)
            drain, grace = _shutdown_options(
                {
                    **_query_options(query, ("drain", "grace")),
                    **(document if isinstance(document, Mapping) else {}),
                }
            )
            if not drain:
                self.request_stop()
                return 200, {"status": "shutting-down"}
            self.request_drain(grace)
            return 202, {
                "status": "draining",
                "grace": self._drain_grace if grace is None else grace,
            }
        if op != "submit":
            return answer(self._service, op, fields)
        # A submission may wait for its run: block a side thread, not the loop.
        return await asyncio.get_running_loop().run_in_executor(
            None, answer, self._service, op, _submission(query, body)
        )


def _http_op(method: str, path: str) -> tuple[str, dict[str, Any]]:
    """The op a method and path name, with the run id the path carries."""
    fields: dict[str, Any] = {}
    route = path
    if path.startswith("/runs/"):
        rest = path[len("/runs/"):]
        run_id, slash, verb = rest.rpartition("/")
        if slash and verb in ("events", "cancel"):
            route = f"/runs/<id>/{verb}"
        else:
            run_id, route = rest, "/runs/<id>"
        fields["run_id"] = run_id
    methods = _ROUTES.get(route)
    if methods is None:
        raise ProtocolError(404, "unknown-path", f"no route for {path}")
    if method not in methods:
        raise ProtocolError(405, "method-not-allowed", f"{method} {path}")
    return methods[method], fields


def _submission(query: dict[str, str], body: bytes) -> Any:
    """The submission document, with the query's options where the body has none."""
    document = _json_body(body)
    options = _query_options(query, ("wait", "timeout"))
    if not options or not isinstance(document, Mapping):
        return document
    if "spec" in document:
        return {**options, **document}
    return {"spec": document, **options}


def _json_body(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8") or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(400, "invalid-json", str(exc))


def _query_options(query: dict[str, str], names: tuple[str, ...]) -> dict[str, Any]:
    """The ``names`` options of a query string, as the values a body holds.

    Query values are always text: a flag reads ``1`` / ``true`` /
    ``yes`` as true, a duration must spell a number (else a 400).
    """
    options: dict[str, Any] = {}
    for name in names:
        if name not in query:
            continue
        text = query[name]
        if name in ("wait", "drain"):
            options[name] = text.lower() in ("1", "true", "yes")
            continue
        try:
            options[name] = float(text)
        except ValueError:
            options[name] = parse_seconds(text, name)  # refuses the text
    return options


# ----------------------------------------------------------------------
# stdin JSON-lines transport
# ----------------------------------------------------------------------
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
                op, fields = _stdin_request(line)
                if op == "shutdown":
                    drain, grace = _shutdown_options(fields)
                    if drain:
                        summary = service.drain(30.0 if grace is None else grace)
                        reply({"ok": True, "status": "drained", **summary})
                    else:
                        reply({"ok": True, "status": "shutting-down"})
                    break
                status, payload = answer(service, op, fields)
            except ProtocolError as exc:
                status, payload = exc.status, exc.payload
            reply({"ok": status < 400, **payload})
    finally:
        service.shutdown(wait=True)
    return served


def _stdin_request(line: str) -> tuple[Any, dict[str, Any]]:
    """``(op, fields)`` of one request line."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(400, "invalid-json", str(exc))
    if not isinstance(request, dict):
        raise ProtocolError(
            400, "invalid-request", "each line must be a JSON object"
        )
    op = request.pop("op", "submit")
    if op == "submit" and "spec" not in request:
        # A flat-spec submission carries the transport options inline:
        # wrap it, so parse_submission checks them once.
        inline = {
            key: request.pop(key) for key in ("wait", "timeout") if key in request
        }
        request = {"spec": request, **inline}
    return op, request


__all__ = [
    "ScenarioServer",
    "answer",
    "serve_stdin",
    "MAX_BODY_BYTES",
]
