"""Tests for the ``repro.serve`` subsystem: protocol parsing, the
session pool, sinks, the service core and both transports (HTTP and
stdin JSON-lines).

The load-bearing assertions mirror the serving layer's promises:

* a served run's decision-derived metrics are identical to a direct
  ``repro.api.run_scenario`` execution of the same spec+seed;
* two concurrent submissions naming the same network/oracle identity
  build the oracle exactly once (pool hit counter + ``oracle_builds``);
* malformed specs come back as structured 400-style refusals, on every
  entry point, without reaching the executor.
"""

from __future__ import annotations

import gc
import io
import json
import sys
import threading
import time
import warnings
import weakref

import pytest

from repro.api import ScenarioSpec, run_scenario
from repro.serve import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    JsonlSink,
    MemorySink,
    ProtocolError,
    ScenarioService,
    SessionPool,
    parse_submission,
    pool_key,
    serve_stdin,
)

_WAIT = 240.0  # generous per-run bound; small grids finish in well under a second


def _grid_spec(**overrides) -> ScenarioSpec:
    base = dict(
        network="grid",
        grid_rows=4,
        grid_cols=4,
        num_orders=12,
        num_workers=4,
        horizon=200.0,
        seed=7,
        algorithm="GDP",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _deterministic(row: dict) -> dict:
    """Summary-row fields that must agree between execution paths."""
    return {key: value for key, value in row.items() if key != "running_time"}


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_flat_spec_submission(self):
        spec, options = parse_submission(_grid_spec().to_dict())
        assert spec == _grid_spec()
        assert options == {}

    def test_wrapped_submission_carries_options(self):
        payload = {"spec": _grid_spec().to_dict(), "wait": True, "timeout": 5}
        spec, options = parse_submission(payload)
        assert spec == _grid_spec()
        assert options == {"wait": True, "timeout": 5.0}

    def test_non_mapping_submission_is_400(self):
        with pytest.raises(ProtocolError) as exc_info:
            parse_submission([1, 2, 3])
        assert exc_info.value.status == 400
        assert exc_info.value.error == "invalid-request"

    def test_unknown_wrapper_key_is_400(self):
        with pytest.raises(ProtocolError, match="unknown submission key"):
            parse_submission({"spec": _grid_spec().to_dict(), "priority": 1})

    def test_bad_timeout_is_400(self):
        with pytest.raises(ProtocolError, match="timeout"):
            parse_submission({"spec": _grid_spec().to_dict(), "timeout": "soon"})

    def test_invalid_spec_reuses_spec_layer_message(self):
        with pytest.raises(ProtocolError) as exc_info:
            parse_submission({"network": "hexagonal"})
        assert exc_info.value.status == 400
        assert exc_info.value.error == "invalid-spec"
        assert "hexagonal" in exc_info.value.detail

    def test_error_payload_is_structured(self):
        error = ProtocolError(404, "unknown-run", "no run with id 'x'")
        assert error.payload == {
            "error": "unknown-run",
            "detail": "no run with id 'x'",
            "status": 404,
        }


# ----------------------------------------------------------------------
# session pool
# ----------------------------------------------------------------------
class TestSessionPool:
    def test_key_ignores_workload_and_dispatch_fields(self):
        base = _grid_spec(oracle={"backend": "ch"})
        same = base.with_overrides(
            num_orders=30, num_workers=8, algorithm="GAS"
        )
        assert pool_key(base) == pool_key(same)

    @pytest.mark.parametrize(
        "overrides",
        (
            {"seed": 8},  # network generation is seeded
            {"grid_rows": 5},
            {"oracle": {"backend": "lazy"}},
            {"oracle": {"backend": "ch", "cache_dir": "oracle-cache"}},
        ),
    )
    def test_key_tracks_network_and_oracle_identity(self, overrides):
        base = _grid_spec(oracle={"backend": "ch"})
        assert pool_key(base) != pool_key(base.with_overrides(**overrides))

    @pytest.mark.parametrize(
        "first, second",
        (
            (
                {"backend": "ch", "cache_dir": "oracle-cache-a"},
                {"backend": "ch", "cache_dir": "oracle-cache-b"},
            ),
        ),
        ids=("ch-cache_dir",),
    )
    def test_key_tracks_every_option_the_oracle_is_built_from(self, first, second):
        """Specs that would not share an oracle must not share a session."""
        base = _grid_spec(grid_rows=8, grid_cols=8)
        assert pool_key(base.with_overrides(oracle=first)) != pool_key(
            base.with_overrides(oracle=second)
        )

    def test_key_resolves_the_kernel(self):
        """``kernel`` unset and ``"csr"`` ask for one oracle, so one session."""
        base = _grid_spec()
        unset = pool_key(base.with_overrides(oracle={"backend": "ch"}))
        named = base.with_overrides(oracle={"backend": "ch", "kernel": "csr"})
        assert pool_key(named) == unset

    def test_acquire_hits_and_misses(self):
        pool = SessionPool(max_sessions=2)
        first = pool.acquire(_grid_spec())
        again = pool.acquire(_grid_spec(algorithm="GAS"))
        other = pool.acquire(_grid_spec(seed=99))
        assert first is again
        assert other is not first
        stats = pool.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["sessions"] == 2

    def test_lru_eviction(self):
        pool = SessionPool(max_sessions=1)
        pool.acquire(_grid_spec())
        pool.acquire(_grid_spec(seed=99))
        stats = pool.stats()
        assert stats["sessions"] == 1
        assert stats["evictions"] == 1


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_memory_sink_bounds_events(self):
        sink = MemorySink(max_events=3, context={"run_id": "r1"})
        for now in range(5):
            sink.on_periodic_check(float(now))
        assert sink.dropped_events == 2
        assert [event["now"] for event in sink.events] == [2.0, 3.0, 4.0]
        assert all(event["run_id"] == "r1" for event in sink.events)

    def test_jsonl_sink_traces_a_direct_run(self, tmp_path):
        """The sink is usable outside the server: one facade call with
        ``trace_path`` leaves a complete JSONL trace."""
        trace = tmp_path / "trace.jsonl"
        result = run_scenario(_grid_spec(), trace_path=trace)
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events[0]["event"] == "run_start"
        assert events[0]["algorithm"] == "GDP"
        assert events[0]["graph_hash"] == result.graph_hash
        assert events[-1]["event"] == "run_end"
        assert events[-1]["metrics"]["orders"] == 12
        kinds = {event["event"] for event in events}
        assert "order_arrival" in kinds

    def test_jsonl_sink_as_hooks_argument(self, tmp_path):
        trace = tmp_path / "hooks.jsonl"
        with JsonlSink(trace, context={"run_id": "r9"}) as sink:
            run_scenario(_grid_spec(), hooks=sink)
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["event"] == "run_start"
        assert first["run_id"] == "r9"


# ----------------------------------------------------------------------
# the service core
# ----------------------------------------------------------------------
class TestScenarioService:
    def test_served_metrics_match_direct_run(self):
        spec = _grid_spec(oracle={"backend": "ch"})
        direct = run_scenario(spec)
        with ScenarioService(max_runs=2) as service:
            record = service.wait(service.submit_spec(spec).run_id, timeout=_WAIT)
            assert record.status == COMPLETED, record.error
            assert _deterministic(record.result["metrics"]) == (
                _deterministic(direct.metrics.summary_row())
            )
            assert record.result["graph_hash"] == direct.graph_hash

    def test_served_watter_expect_matches_direct_run(self):
        """The pooled session hands the run its memoised provider, so
        the learning-based algorithm is served bit-identically too."""
        spec = _grid_spec(
            grid_rows=5, grid_cols=5, num_orders=30, num_workers=6,
            horizon=300.0, seed=11, algorithm="WATTER-expect",
        )
        direct = run_scenario(spec)
        with ScenarioService(max_runs=1) as service:
            record = service.wait(service.submit_spec(spec).run_id, timeout=_WAIT)
            assert record.status == COMPLETED, record.error
            assert _deterministic(record.result["metrics"]) == (
                _deterministic(direct.metrics.summary_row())
            )

    def test_concurrent_submissions_share_one_oracle(self):
        """The acceptance bar: two concurrent requests naming the same
        network/oracle identity build the oracle exactly once."""
        spec_a = _grid_spec(oracle={"backend": "ch"})
        spec_b = spec_a.with_overrides(num_orders=16, algorithm="GAS")
        with ScenarioService(max_runs=2) as service:
            record_a = service.submit_spec(spec_a)
            record_b = service.submit_spec(spec_b)
            assert service.wait(record_a.run_id, timeout=_WAIT).status == COMPLETED
            assert service.wait(record_b.run_id, timeout=_WAIT).status == COMPLETED
            pool = service.metrics()["pool"]
        assert pool["misses"] == 1
        assert pool["hits"] == 1
        assert pool["sessions"] == 1
        assert pool["oracle_builds"] == 1

    def test_concurrent_ch_variants_do_not_share_an_oracle(self, tmp_path):
        """Two ch configurations of one grid, served side by side,
        each answer from their own oracle: a shared session would swap
        ``network.oracle`` under the run that attached first."""
        base = _grid_spec(grid_rows=8, grid_cols=8, num_orders=40, horizon=600.0)
        specs = [
            base.with_overrides(
                oracle={"backend": "ch", "cache_dir": str(tmp_path / name)}
            )
            for name in ("a", "b")
        ]
        direct = [run_scenario(spec) for spec in specs]
        with ScenarioService(max_runs=2) as service:
            records = [service.submit_spec(spec) for spec in specs]
            records = [
                service.wait(record.run_id, timeout=_WAIT) for record in records
            ]
            pool = service.metrics()["pool"]
        assert pool["sessions"] == 2
        assert pool["oracle_builds"] == 2
        for record, run in zip(records, direct):
            assert record.status == COMPLETED, record.error
            assert _deterministic(record.result["metrics"]) == (
                _deterministic(run.metrics.summary_row())
            )

    def test_concurrent_runs_on_one_lazy_network_match_direct_runs(self):
        """WATTER-online and GAS price candidates and ring searches by
        ``leg_matrix`` blocks, which two runs on one pooled ``lazy``
        network take turns at under its oracle's lock.  Without jitter
        every Dijkstra sum is exact, so however the runs interleave on
        the shared LRU, each must match its direct run to the last bit."""
        base = _grid_spec(
            grid_rows=7, grid_cols=7, grid_jitter=0.0, num_orders=80,
            num_workers=15, horizon=900.0, seed=3, oracle={"backend": "lazy"},
        )
        specs = [
            base.with_overrides(algorithm="WATTER-online"),
            base.with_overrides(algorithm="GAS"),
        ]
        direct = [run_scenario(spec) for spec in specs]
        with ScenarioService(max_runs=2) as service:
            records = [service.submit_spec(spec) for spec in specs]
            records = [
                service.wait(record.run_id, timeout=_WAIT) for record in records
            ]
            pool = service.metrics()["pool"]
        assert pool["sessions"] == 1
        for record, run in zip(records, direct):
            assert record.status == COMPLETED, record.error
            assert _deterministic(record.result["metrics"]) == (
                _deterministic(run.metrics.summary_row())
            )

    def test_oracle_totals_count_each_answer_once(self):
        """Two runs overlapping on one pooled ``lazy`` oracle: the served
        totals are that oracle's own counters, not the sum of two
        before/after deltas that each include the other run's work."""
        base = _grid_spec(
            grid_rows=8, grid_cols=8, num_orders=60, num_workers=12,
            horizon=900.0, seed=5, oracle={"backend": "lazy"},
        )
        specs = [
            base.with_overrides(algorithm="WATTER-online"),
            base.with_overrides(algorithm="GAS"),
        ]
        with ScenarioService(max_runs=2) as service:
            records = [service.submit_spec(spec) for spec in specs]
            for record in records:
                record = service.wait(record.run_id, timeout=_WAIT)
                assert record.status == COMPLETED, record.error
            metrics = service.metrics()
            oracle = service._pool.acquire(base).workload(base).network.oracle
            own = oracle.stats()
        assert metrics["pool"]["sessions"] == 1
        assert metrics["oracle"]["lazy"]["runs"] == 2
        assert metrics["oracle"]["lazy"]["queries"] == own.queries
        assert metrics["oracle"]["lazy"]["sssp_runs"] == own.sssp_runs
        assert metrics["batcher"]["serial_queries"] == own.queries

    def test_served_runs_hash_the_pooled_graph_once(self, monkeypatch):
        """Each run queries the pooled network itself, so the session
        keeps one graph-hash entry for it, not one per served run."""
        import repro.api.session as session_module

        hashed = []
        original = session_module.graph_signature
        monkeypatch.setattr(
            session_module,
            "graph_signature",
            lambda graph: hashed.append(graph) or original(graph),
        )
        with ScenarioService(max_runs=1) as service:
            for _ in range(3):
                record = service.wait(
                    service.submit_spec(_grid_spec()).run_id, timeout=_WAIT
                )
                assert record.status == COMPLETED, record.error
        assert len(hashed) == 1

    def test_evicted_pooled_network_is_freed(self):
        """An evicted session's network is garbage, and the oracle query
        total folded from its finished runs survives it."""
        first = _grid_spec(oracle={"backend": "lazy"})
        # Same network source, another oracle identity: a second session.
        second = first.with_overrides(oracle={"backend": "ch"})
        with ScenarioService(max_runs=1, max_sessions=1) as service:
            record = service.wait(service.submit_spec(first).run_id, timeout=_WAIT)
            assert record.status == COMPLETED, record.error
            session = service._pool.acquire(first)
            pooled = weakref.ref(session.workload(first).network)
            del session
            queries = service.metrics()["batcher"]["serial_queries"]
            record = service.wait(service.submit_spec(second).run_id, timeout=_WAIT)
            assert record.status == COMPLETED, record.error
            metrics = service.metrics()
            gc.collect()
            assert metrics["pool"]["evictions"] == 1
            assert pooled() is None
            assert metrics["batcher"]["serial_queries"] > queries > 0

    def test_malformed_submission_is_refused_eagerly(self):
        with ScenarioService() as service:
            with pytest.raises(ProtocolError) as exc_info:
                service.submit({"network": "hexagonal"})
            assert exc_info.value.status == 400
            assert exc_info.value.error == "invalid-spec"
            assert service.list_runs() == []  # never reached the executor

    def test_unknown_run_is_404(self):
        with ScenarioService() as service:
            with pytest.raises(ProtocolError) as exc_info:
                service.get("run-999999")
            assert exc_info.value.status == 404

    def test_event_store_brackets_the_run(self):
        with ScenarioService(max_runs=1, store_events=500) as service:
            record = service.wait(
                service.submit_spec(_grid_spec()).run_id, timeout=_WAIT
            )
            events = service.events(record.run_id)
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        assert all(event["run_id"] == record.run_id for event in events)

    def test_trace_dir_writes_one_file_per_run(self, tmp_path):
        with ScenarioService(max_runs=1, trace_dir=tmp_path) as service:
            record = service.wait(
                service.submit_spec(_grid_spec()).run_id, timeout=_WAIT
            )
        trace = tmp_path / f"{record.run_id}.jsonl"
        lines = trace.read_text().splitlines()
        assert json.loads(lines[0])["event"] == "run_start"
        assert json.loads(lines[-1])["event"] == "run_end"

    def test_trace_dir_sink_is_closed_when_the_run_ends(self, tmp_path, monkeypatch):
        # An unclosed file warns from its finaliser; turned into an error
        # there, the warning reaches ``sys.unraisablehook`` instead.
        leaks = []
        monkeypatch.setattr(sys, "unraisablehook", leaks.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with ScenarioService(max_runs=1, trace_dir=tmp_path) as service:
                record = service.wait(
                    service.submit_spec(_grid_spec()).run_id, timeout=_WAIT
                )
            gc.collect()
        assert record.status == COMPLETED
        assert [str(leak.exc_value) for leak in leaks] == []

    def test_failed_run_is_recorded_not_raised(self):
        # Valid spec, impossible workload source: CSV files that do not exist.
        spec = ScenarioSpec(
            network="grid", grid_rows=4, grid_cols=4, workload="csv",
            orders_csv="/nonexistent/orders.csv", num_orders=5,
            num_workers=2, horizon=100.0, seed=1, algorithm="GDP",
        )
        with ScenarioService(max_runs=1) as service:
            record = service.wait(service.submit_spec(spec).run_id, timeout=_WAIT)
        assert record.status == FAILED
        assert record.error is not None
        assert record.error["error"] in ("invalid-spec", "run-failed")

    def test_shutdown_refuses_new_submissions(self):
        service = ScenarioService()
        service.shutdown()
        with pytest.raises(ProtocolError) as exc_info:
            service.submit_spec(_grid_spec())
        assert exc_info.value.status == 503

    def test_metrics_document_shape(self):
        with ScenarioService(max_runs=1) as service:
            service.wait(service.submit_spec(_grid_spec()).run_id, timeout=_WAIT)
            metrics = service.metrics()
        assert metrics["runs"][COMPLETED] == 1
        assert metrics["runs"][QUEUED] == 0
        assert metrics["queue_depth"] == 0
        assert metrics["latency_seconds"]["count"] == 1
        assert metrics["latency_seconds"]["max"] >= 0
        # The finished run's oracle answers, all taken under the pooled
        # oracle's lock, are folded in.
        assert set(metrics["batcher"]) == {"serial_queries"}
        assert metrics["batcher"]["serial_queries"] > 0


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
class TestHttpServer:
    @pytest.fixture()
    def http_server(self):
        import asyncio

        from repro.serve import ScenarioServer

        service = ScenarioService(max_runs=2)
        server = ScenarioServer(service, port=0)
        loop = asyncio.new_event_loop()
        started = threading.Event()
        address: list = []

        async def main():
            await server.start()
            address.append(server.address)
            started.set()
            await server.serve_forever()

        thread = threading.Thread(
            target=lambda: loop.run_until_complete(main()), daemon=True
        )
        thread.start()
        assert started.wait(timeout=30)
        yield address[0], server, loop
        if thread.is_alive():
            loop.call_soon_threadsafe(server.request_stop)
            thread.join(timeout=30)
        loop.close()

    @staticmethod
    def _request(address, method, path, body=None):
        import urllib.error
        import urllib.request

        host, port = address
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"http://{host}:{port}{path}", data=data, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=_WAIT) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_full_request_cycle(self, http_server):
        address, _server, _loop = http_server
        status, body = self._request(address, "GET", "/healthz")
        assert (status, body) == (200, {"status": "ok"})

        status, body = self._request(
            address, "POST", "/runs?wait=1", _grid_spec().to_dict()
        )
        assert status == 200
        assert body["status"] == COMPLETED
        direct = run_scenario(_grid_spec())
        assert _deterministic(body["result"]["metrics"]) == (
            _deterministic(direct.metrics.summary_row())
        )
        run_id = body["run_id"]

        status, body = self._request(address, "GET", f"/runs/{run_id}")
        assert status == 200 and body["status"] == COMPLETED
        status, body = self._request(address, "GET", f"/runs/{run_id}/events")
        assert status == 200
        assert body["events"][0]["event"] == "run_start"
        status, body = self._request(address, "GET", "/runs")
        assert status == 200 and len(body["runs"]) == 1
        status, body = self._request(address, "GET", "/metrics")
        assert status == 200 and body["runs"][COMPLETED] == 1

    def test_http_refusals_are_structured(self, http_server):
        address, _server, _loop = http_server
        status, body = self._request(address, "POST", "/runs", {"network": "hex"})
        assert status == 400
        assert body["error"] == "invalid-spec"
        status, body = self._request(address, "GET", "/runs/run-999999")
        assert status == 404
        assert body["error"] == "unknown-run"
        status, body = self._request(address, "GET", "/nowhere")
        assert status == 404
        assert body["error"] == "unknown-path"
        status, body = self._request(address, "DELETE", "/metrics")
        assert status == 405

    def test_http_shutdown_stops_the_server(self, http_server):
        address, _server, loop = http_server
        status, body = self._request(address, "POST", "/shutdown")
        assert (status, body["status"]) == (200, "shutting-down")
        deadline = time.monotonic() + 30
        while loop.is_running() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not loop.is_running()

    @staticmethod
    def _raw_request(address, payload: bytes, *, close_early: bool = False):
        """Speak raw HTTP over a socket (for requests urllib refuses to send)."""
        import socket

        host, port = address
        with socket.create_connection((host, port), timeout=_WAIT) as sock:
            sock.sendall(payload)
            if close_early:
                return None, None  # hang up mid-request, no response read
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, json.loads(body) if body else None

    def test_cancel_endpoint(self, http_server):
        address, _server, _loop = http_server
        status, body = self._request(
            address, "POST", "/runs", _grid_spec().to_dict()
        )
        assert status == 202
        run_id = body["run_id"]
        status, body = self._request(address, "POST", f"/runs/{run_id}/cancel")
        assert status == 202
        assert body["run_id"] == run_id
        deadline = time.monotonic() + _WAIT
        while time.monotonic() < deadline:
            status, body = self._request(address, "GET", f"/runs/{run_id}")
            if body["status"] in (CANCELLED, COMPLETED):
                break
            time.sleep(0.01)
        # The run either never started (cancelled in the queue) or won
        # the race and finished; both are clean terminal states.
        assert body["status"] in (CANCELLED, COMPLETED)

    def test_cancel_unknown_run_is_404(self, http_server):
        address, _server, _loop = http_server
        status, body = self._request(
            address, "POST", "/runs/run-999999/cancel"
        )
        assert status == 404
        assert body["error"] == "unknown-run"

    def test_malformed_content_length_is_400(self, http_server):
        address, _server, _loop = http_server
        status, body = self._raw_request(
            address,
            b"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
        )
        assert status == 400
        assert body["error"] == "invalid-request"
        assert "Content-Length" in body["detail"]

    def test_negative_content_length_is_400(self, http_server):
        address, _server, _loop = http_server
        status, body = self._raw_request(
            address,
            b"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
        )
        assert status == 400
        assert body["error"] == "invalid-request"

    def test_oversized_body_is_413_without_reading_it(self, http_server):
        address, _server, _loop = http_server
        status, body = self._raw_request(
            address,
            b"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: 2000000\r\n\r\n",
        )
        assert status == 413
        assert body["error"] == "payload-too-large"

    def test_client_disconnect_mid_request_leaves_server_healthy(
        self, http_server
    ):
        address, _server, _loop = http_server
        # Promise a body, send half a request line, hang up abruptly.
        self._raw_request(
            address,
            b"POST /runs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"par",
            close_early=True,
        )
        self._raw_request(address, b"GET /runs", close_early=True)
        status, body = self._request(address, "GET", "/healthz")
        assert (status, body) == (200, {"status": "ok"})


# ----------------------------------------------------------------------
# stdin JSON-lines transport
# ----------------------------------------------------------------------
class TestStdinTransport:
    @staticmethod
    def _drive(lines):
        in_stream = io.StringIO(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        out_stream = io.StringIO()
        service = ScenarioService(max_runs=1)
        served = serve_stdin(service, in_stream, out_stream)
        replies = [
            json.loads(line) for line in out_stream.getvalue().splitlines()
        ]
        return served, replies, service

    def test_submit_wait_then_shutdown(self):
        served, replies, service = self._drive(
            [
                {**_grid_spec().to_dict(), "wait": True},
                {"op": "metrics"},
                {"op": "shutdown"},
            ]
        )
        assert served == 3
        submit, metrics, farewell = replies
        assert submit["ok"] and submit["status"] == COMPLETED
        assert submit["result"]["metrics"]["orders"] == 12
        assert metrics["ok"] and metrics["runs"][COMPLETED] == 1
        assert farewell == {"ok": True, "status": "shutting-down"}
        # The loop's exit drained the service.
        with pytest.raises(ProtocolError):
            service.submit_spec(_grid_spec())

    def test_wrapped_submit_and_poll(self):
        served, replies, _service = self._drive(
            [
                {"op": "submit", "spec": _grid_spec().to_dict(), "wait": True},
                {"op": "poll", "run_id": "run-000001"},
                {"op": "events", "run_id": "run-000001"},
                {"op": "list"},
            ]
        )
        assert served == 4
        submit, poll, events, listing = replies
        assert submit["status"] == COMPLETED
        assert poll["status"] == COMPLETED
        assert events["events"][-1]["event"] == "run_end"
        assert [run["run_id"] for run in listing["runs"]] == ["run-000001"]

    def test_cancel_op(self):
        served, replies, _service = self._drive(
            [
                {"op": "submit", "spec": _grid_spec().to_dict()},
                {"op": "cancel", "run_id": "run-000001"},
                {"op": "shutdown"},
            ]
        )
        assert served == 3
        _submit, cancelled, _farewell = replies
        assert cancelled["ok"]
        assert cancelled["run_id"] == "run-000001"

    def test_cancel_without_run_id_is_refused(self):
        _served, replies, _service = self._drive(
            [{"op": "cancel"}, {"op": "shutdown"}]
        )
        assert not replies[0]["ok"]

    def test_structured_refusals(self):
        _served, replies, _service = self._drive(
            [
                "not an object",
                {"op": "poll"},
                {"op": "teleport"},
                {"network": "hex"},
            ]
        )
        assert [reply["ok"] for reply in replies] == [False] * 4
        assert replies[0]["error"] == "invalid-request"
        assert replies[1]["error"] == "invalid-request"
        assert replies[2]["error"] == "unknown-op"
        assert replies[3]["error"] == "invalid-spec"
