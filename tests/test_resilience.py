"""Chaos and resilience tests for the fault-tolerance runtime.

Covers the ``repro.resilience`` building blocks in isolation (retry,
cancellation, circuit breaker, fault injector), the degradation chains
threaded through the oracle registry, and the end-to-end contract the
committed fault schedules in ``tests/fault_schedules/`` pin down: under
injected faults a run either completes with metrics identical to a
fault-free baseline, or fails with a structured error naming the fault
site — it never hangs and never silently returns different numbers.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.api import ScenarioSpec, Session
from repro.network.generators import grid_city
from repro.network.oracle import create_oracle
from repro.network.oracle.cache import (
    ch_cache_path,
    load_ch_preprocessing_outcome,
)
from repro.resilience import (
    CancellationToken,
    CircuitOpenError,
    DegradationLog,
    FaultInjector,
    InjectedOSError,
    InjectedRuntimeError,
    RetryPolicy,
    RunCancelled,
    active_injector,
    injected_faults,
    retry_call,
)
from repro.serve import (
    CANCELLED,
    COMPLETED,
    FAILED,
    QUEUED,
    ProtocolError,
    ScenarioService,
)
from repro.serve.pool import FAILURE_THRESHOLD, RESET_SECONDS, BreakerTable

SCHEDULE_DIR = Path(__file__).parent / "fault_schedules"
SCHEDULES = sorted(SCHEDULE_DIR.glob("*.json"))

_WAIT = 240.0  # generous per-run bound; the chaos CI job enforces a hard one


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


def _assert_rows_equal(got: dict, want: dict) -> None:
    """Summary rows must agree exactly, floats within fp tolerance."""
    assert set(got) == set(want)
    for key, expected in want.items():
        if key == "running_time":
            continue
        if isinstance(expected, float):
            assert got[key] == pytest.approx(expected, rel=1e-9), key
        else:
            assert got[key] == expected, key


class FakeClock:
    """Deterministic monotonic clock for deadline and breaker tests."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# retry
# ----------------------------------------------------------------------
class TestRetry:
    def test_delays_are_seeded_and_bounded(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, seed=42)
        delays = policy.delays()
        assert delays == policy.delays()  # same seed, same jitter
        assert len(delays) == 3
        assert all(delay >= 0.0 for delay in delays)
        assert delays != RetryPolicy(max_attempts=4, base_delay=0.1, seed=43).delays()

    def test_recovers_after_transient_failures(self):
        calls = []
        sleeps: list[float] = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return 7

        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        result = retry_call(flaky, policy=policy, sleep=sleeps.append)
        assert result == 7
        assert len(calls) == 3
        assert sleeps == policy.delays()[:2]

    def test_exhaustion_reraises_last_failure(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise OSError(f"attempt {len(calls)}")

        with pytest.raises(OSError, match="attempt 3"):
            retry_call(
                always_fails,
                policy=RetryPolicy(max_attempts=3, base_delay=0.01),
                sleep=lambda _: None,
            )
        assert len(calls) == 3

    def test_non_matching_exception_propagates_immediately(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(
                wrong_kind,
                policy=RetryPolicy(max_attempts=5, base_delay=0.01),
                sleep=lambda _: None,
            )
        assert len(calls) == 1

    def test_on_retry_observes_each_attempt(self):
        seen: list[tuple[int, str]] = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise OSError("blip")
            return "ok"

        retry_call(
            flaky,
            policy=RetryPolicy(max_attempts=2, base_delay=0.01),
            on_retry=lambda attempt, exc, delay: seen.append((attempt, str(exc))),
            sleep=lambda _: None,
        )
        assert seen == [(1, "blip")]


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
class TestCancellationToken:
    def test_deadline_expiry(self):
        clock = FakeClock()
        token = CancellationToken(5.0, clock=clock)
        token.start()
        token.check()  # inside budget
        clock.advance(5.1)
        with pytest.raises(RunCancelled) as exc_info:
            token.check()
        assert "deadline" in exc_info.value.reason
        assert token.cancelled

    def test_deadline_measured_from_start_not_construction(self):
        clock = FakeClock()
        token = CancellationToken(1.0, clock=clock)
        clock.advance(10.0)  # queueing time must not consume the budget
        token.start()
        token.check()
        clock.advance(1.5)
        with pytest.raises(RunCancelled):
            token.check()

    def test_start_is_idempotent(self):
        clock = FakeClock()
        token = CancellationToken(1.0, clock=clock)
        token.start()
        clock.advance(0.9)
        token.start()  # must not re-arm the deadline
        clock.advance(0.2)
        with pytest.raises(RunCancelled):
            token.check()

    def test_explicit_cancel_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        with pytest.raises(RunCancelled) as exc_info:
            token.check()
        assert exc_info.value.reason == "first"

    def test_no_deadline_never_expires(self):
        clock = FakeClock()
        token = CancellationToken(clock=clock)
        token.start()
        clock.advance(1e9)
        token.check()
        assert token.remaining_seconds() is None


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
_VIEW = ("grid", 4, 4, 7)


class TestCircuitBreaker:
    """The service's breaker table: a view identity opens after
    ``FAILURE_THRESHOLD`` consecutive failures and admits one half-open
    probe per ``RESET_SECONDS`` cool-down."""

    @staticmethod
    def _tripped(clock: FakeClock) -> BreakerTable:
        table = BreakerTable(clock=clock)
        for _ in range(FAILURE_THRESHOLD):
            table.record_failure(_VIEW)
        return table

    def test_trips_after_consecutive_failures(self):
        table = BreakerTable(clock=FakeClock())
        assert not table.is_open(_VIEW)
        for attempt in range(1, FAILURE_THRESHOLD + 1):
            table.admit(_VIEW)
            assert table.record_failure(_VIEW) == (attempt == FAILURE_THRESHOLD)
        assert table.is_open(_VIEW)
        with pytest.raises(CircuitOpenError) as exc_info:
            table.admit(_VIEW)
        assert exc_info.value.retry_after_seconds == pytest.approx(RESET_SECONDS)
        assert table.stats() == {"quarantined": 1, "quarantine_refusals": 1}
        assert not table.is_open(("grid", 5, 5, 7))

    def test_success_resets_the_failure_streak(self):
        table = BreakerTable(clock=FakeClock())
        for _ in range(FAILURE_THRESHOLD - 1):
            table.record_failure(_VIEW)
        table.record_success(_VIEW)
        for _ in range(FAILURE_THRESHOLD - 1):
            assert not table.record_failure(_VIEW)
        assert not table.is_open(_VIEW)
        table.admit(_VIEW)

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        table = self._tripped(clock)
        with pytest.raises(CircuitOpenError):
            table.admit(_VIEW)
        clock.advance(RESET_SECONDS + 0.5)
        assert not table.is_open(_VIEW)  # half-open: due its probe
        assert table.stats()["quarantined"] == 0
        table.admit(_VIEW)  # the probe
        with pytest.raises(CircuitOpenError):
            table.admit(_VIEW)  # everyone else waits for its verdict
        assert table.is_open(_VIEW)

    def test_probe_success_closes(self):
        clock = FakeClock()
        table = self._tripped(clock)
        clock.advance(RESET_SECONDS + 0.5)
        table.admit(_VIEW)
        table.record_success(_VIEW)
        assert not table.is_open(_VIEW)
        table.admit(_VIEW)
        table.admit(_VIEW)
        # Closed means the streak starts over.
        assert not table.record_failure(_VIEW)

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        table = self._tripped(clock)
        clock.advance(RESET_SECONDS + 0.5)
        table.admit(_VIEW)
        assert table.record_failure(_VIEW)
        assert table.is_open(_VIEW)
        clock.advance(RESET_SECONDS / 2)  # not a full cool-down yet
        with pytest.raises(CircuitOpenError) as exc_info:
            table.admit(_VIEW)
        assert exc_info.value.retry_after_seconds == pytest.approx(RESET_SECONDS / 2)


# ----------------------------------------------------------------------
# degradation log
# ----------------------------------------------------------------------
class TestDegradationLog:
    def test_records_structured_events(self):
        log = DegradationLog()
        log.record("oracle.backend", "ch", "lazy", "construction failed")
        assert len(log) == 1
        (event,) = log.as_dicts()
        assert event == {
            "site": "oracle.backend",
            "from": "ch",
            "to": "lazy",
            "reason": "construction failed",
        }


# ----------------------------------------------------------------------
# fault injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_unknown_schedule_key_is_rejected(self):
        # kill_calls: removed with the forked dispatch workers it killed.
        for spec in ({"explode": True}, {"kill_calls": [1]}):
            with pytest.raises(ValueError, match="unknown schedule keys"):
                FaultInjector({"some.site": spec})

    def test_from_dict_accepts_wrapper_and_ignores_metadata(self):
        injector = FaultInjector.from_dict(
            {
                "expect": "identical",
                "seed": 9,
                "spec_overrides": {"oracle": {"backend": "ch"}},
                "faults": {"oracle.cache.load": {"fail_first": 1}},
            }
        )
        assert injector.sites() == ("oracle.cache.load",)

    def test_fires_on_scheduled_calls_only(self):
        injector = FaultInjector({"io.site": {"fail_calls": [2]}})
        injector.fire("io.site")  # call 1: clean
        with pytest.raises(InjectedOSError) as exc_info:
            injector.fire("io.site")  # call 2: scheduled
        assert exc_info.value.site == "io.site"
        assert exc_info.value.call == 2
        injector.fire("io.site")  # call 3: clean again
        assert injector.counts() == {"io.site": 3}

    def test_runtime_exception_kind(self):
        injector = FaultInjector(
            {"build.site": {"fail_first": 1, "exception": "runtime"}}
        )
        with pytest.raises(InjectedRuntimeError):
            injector.fire("build.site")

    def test_corrupt_file_is_deterministic(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_a.write_text('{"payload": 1}')
        path_b.write_text('{"payload": 1}')
        schedule = {"oracle.cache.file": {"corrupt_first": 1}}
        assert FaultInjector(schedule, seed=5).corrupt_file(
            "oracle.cache.file", path_a
        )
        assert FaultInjector(schedule, seed=5).corrupt_file(
            "oracle.cache.file", path_b
        )
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_bytes().startswith(b"\x00corrupt\x00")

    def test_corrupt_never_creates_missing_files(self, tmp_path):
        missing = tmp_path / "nope.json"
        injector = FaultInjector({"oracle.cache.file": {"corrupt_first": 1}})
        assert not injector.corrupt_file("oracle.cache.file", missing)
        assert not missing.exists()

    def test_injected_faults_scopes_installation(self):
        from repro.resilience import fault_point

        injector = FaultInjector({"scoped.site": {"fail_first": 1}})
        assert active_injector() is None
        with injected_faults(injector):
            assert active_injector() is injector
            with pytest.raises(InjectedOSError):
                fault_point("scoped.site")
        assert active_injector() is None
        fault_point("scoped.site")  # no-op once uninstalled

    def test_scheduled_latency_is_applied(self):
        injector = FaultInjector({"slow.site": {"latency_seconds": 0.05}})
        started = time.perf_counter()
        injector.fire("slow.site")
        assert time.perf_counter() - started >= 0.05


# ----------------------------------------------------------------------
# oracle cache failure accounting (satellite: load failures + quarantine)
# ----------------------------------------------------------------------
class TestCacheFailureHandling:
    HOPS = 5  # the registry's default witness hop limit

    def _warm_cache(self, tmp_path):
        network = grid_city(4, 4, seed=0)
        cache_dir = tmp_path / "ch-cache"
        cache_dir.mkdir()
        create_oracle("ch", network.graph, cache_dir=str(cache_dir))
        path = ch_cache_path(cache_dir, network.graph, self.HOPS)
        assert path.exists()
        return network, cache_dir, path

    def test_unparseable_cache_is_quarantined(self, tmp_path):
        network, _cache_dir, path = self._warm_cache(tmp_path)
        path.write_text("definitely not json {")
        outcome = load_ch_preprocessing_outcome(path, network.graph, self.HOPS)
        assert outcome.payload is None
        assert outcome.corrupt
        assert outcome.load_failures >= 1
        assert outcome.quarantined is not None
        assert outcome.quarantined.name.endswith(".corrupt")
        assert outcome.quarantined.exists()
        assert not path.exists()  # the rotten file was moved aside

    def test_transient_load_failures_are_counted_in_stats(self, tmp_path):
        network, cache_dir, _path = self._warm_cache(tmp_path)
        injector = FaultInjector(
            {"oracle.cache.load": {"fail_first": 2, "exception": "os"}}
        )
        with injected_faults(injector):
            oracle = create_oracle(
                "ch", network.graph, cache_dir=str(cache_dir)
            )
        # Two failed reads, then the retried third succeeded — served
        # from cache, failures on the books.
        assert oracle.cache_load_failures == 2
        assert oracle.stats().as_dict()["ch.cache_load_failures"] == 2.0

    def test_corrupt_cache_rebuilds_and_records_degradation(self, tmp_path):
        network, cache_dir, path = self._warm_cache(tmp_path)
        log = DegradationLog()
        injector = FaultInjector({"oracle.cache.file": {"corrupt_first": 1}})
        with injected_faults(injector):
            oracle = create_oracle(
                "ch", network.graph, cache_dir=str(cache_dir), degradations=log
            )
        events = log.as_dicts()
        assert any(
            event["site"] == "oracle.cache" and event["to"] == "rebuild"
            for event in events
        )
        assert path.with_name(path.name + ".corrupt").exists()
        assert path.exists()  # rebuilt and re-persisted
        assert oracle.cache_load_failures >= 1
        nodes = list(network.graph)
        assert oracle.travel_time(nodes[0], nodes[-1]) >= 0.0


# ----------------------------------------------------------------------
# oracle backend degradation (ch build failure -> lazy stand-in)
# ----------------------------------------------------------------------
class TestOracleBackendFallback:
    def test_ch_build_failure_degrades_to_lazy_and_stays_sticky(self):
        session = Session()
        spec = _grid_spec(oracle={"backend": "ch"})
        injector = FaultInjector(
            {"oracle.ch.build": {"fail_first": 8, "exception": "runtime"}}
        )
        with injected_faults(injector):
            first = session.run(spec)
            assert any(
                event["site"] == "oracle.backend" and event["to"] == "lazy"
                for event in first.degradations
            )
            build_attempts = injector.counts()["oracle.ch.build"]
            assert build_attempts == 1
            # The stand-in is sticky: a second run must not re-run the
            # failing construction (and records no new degradation).
            second = session.run(spec)
            assert injector.counts()["oracle.ch.build"] == build_attempts
        assert second.degradations == ()
        _assert_rows_equal(
            second.metrics.summary_row(), first.metrics.summary_row()
        )


# ----------------------------------------------------------------------
# deadlines end-to-end
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_spec_field_is_validated(self):
        with pytest.raises(Exception, match="deadline"):
            _grid_spec(deadline_seconds=0.0)

    def test_deadline_cancels_run_with_partial_and_no_leaked_threads(self):
        # An auto-advancing clock expires the 1s budget a few reads in,
        # deterministically — no reliance on wall-clock race timing.
        clock = FakeClock()
        original = clock.__call__

        def ticking() -> float:
            clock.advance(0.25)
            return original()

        token = CancellationToken(1.0, clock=ticking)
        session = Session()
        spec = _grid_spec()
        threads_before = set(threading.enumerate())
        with pytest.raises(RunCancelled) as exc_info:
            session.run(spec, cancellation=token)
        assert "deadline" in exc_info.value.reason
        partial = exc_info.value.partial
        assert partial is not None
        assert set(partial["timings"]) == {
            "prepare_seconds",
            "run_seconds",
            "total_seconds",
        }
        assert partial["graph_hash"]
        assert isinstance(partial["degradations"], list)
        # A direct run is single-threaded: the unwound run may leave no
        # thread behind that was not there before it started.
        leaked = [
            thread
            for thread in threading.enumerate()
            if thread not in threads_before and thread.is_alive()
        ]
        assert leaked == []


# ----------------------------------------------------------------------
# service-level resilience (cancel, admission queue, quarantine)
# ----------------------------------------------------------------------
class TestServiceResilience:
    def test_deadline_run_reaches_cancelled_state(self):
        spec = _grid_spec(num_orders=60, horizon=2000.0, deadline_seconds=0.001)
        with ScenarioService(max_runs=1) as service:
            record = service.submit_spec(spec)
            record = service.wait(record.run_id, timeout=_WAIT)
            assert record.status == CANCELLED
            assert record.error["error"] == "cancelled"
            assert "deadline" in record.error["detail"]
            assert record.result is not None  # the partial snapshot
            assert "timings" in record.result
            metrics = service.metrics()
            assert metrics["runs"][CANCELLED] == 1

    def test_cancel_queued_run_before_it_starts(self):
        injector = FaultInjector({"session.prepare": {"latency_seconds": 0.4}})
        with injected_faults(injector):
            with ScenarioService(max_runs=1) as service:
                first = service.submit_spec(_grid_spec())
                queued = service.submit_spec(_grid_spec(seed=8))
                cancelled = service.cancel(queued.run_id, reason="superseded")
                assert cancelled.status == CANCELLED
                assert cancelled.error["detail"] == "superseded"
                first = service.wait(first.run_id, timeout=_WAIT)
                assert first.status == COMPLETED
        # The cancelled run never executed: no result beyond the marker.
        assert cancelled.result is None

    def test_cancel_running_run_stops_at_next_checkpoint(self):
        injector = FaultInjector({"session.prepare": {"latency_seconds": 0.5}})
        with injected_faults(injector):
            with ScenarioService(max_runs=1) as service:
                record = service.submit_spec(_grid_spec())
                deadline = time.monotonic() + _WAIT
                while record.status == QUEUED and time.monotonic() < deadline:
                    time.sleep(0.01)  # wait for the executor to claim it
                service.cancel(record.run_id, reason="operator said stop")
                record = service.wait(record.run_id, timeout=_WAIT)
                assert record.status == CANCELLED
                assert record.error["detail"] == "operator said stop"

    def test_cancel_unknown_run_is_404(self):
        with ScenarioService(max_runs=1) as service:
            with pytest.raises(ProtocolError) as exc_info:
                service.cancel("run-999999")
            assert exc_info.value.status == 404

    def test_admission_queue_bound_rejects_with_429(self):
        injector = FaultInjector({"session.prepare": {"latency_seconds": 0.4}})
        with injected_faults(injector):
            with ScenarioService(max_runs=1, max_queue=1) as service:
                running = service.submit_spec(_grid_spec())
                queued = service.submit_spec(_grid_spec(seed=8))
                with pytest.raises(ProtocolError) as exc_info:
                    service.submit_spec(_grid_spec(seed=9))
                assert exc_info.value.status == 429
                assert exc_info.value.error == "overloaded"
                metrics = service.metrics()
                assert metrics["rejected_total"] == 1
                assert metrics["max_queue"] == 1
                service.cancel(queued.run_id)
                assert service.wait(running.run_id, timeout=_WAIT).status == COMPLETED

    def test_persistent_prepare_failure_trips_the_breaker(self):
        spec = _grid_spec()
        injector = FaultInjector(
            {"session.prepare": {"fail_first": 50, "exception": "os"}}
        )
        with ScenarioService(max_runs=1) as service:
            record = service.wait(service.submit_spec(spec).run_id, timeout=_WAIT)
            assert record.status == COMPLETED, record.error
            assert service.metrics()["pool"]["networks"] == 1
            with injected_faults(injector):
                for _ in range(3):  # the breaker threshold
                    record = service.submit_spec(spec)
                    record = service.wait(record.run_id, timeout=_WAIT)
                    assert record.status == FAILED
                    assert record.error["error"] == "run-failed"
                    assert "session.prepare" in record.error["detail"]
                with pytest.raises(ProtocolError) as exc_info:
                    service.submit_spec(spec)
                assert exc_info.value.status == 503
                assert exc_info.value.error == "session-quarantined"
                pool = service.metrics()["pool"]
                assert pool["quarantined"] == 1
                # The trip dropped the identity's prepared view: for the
                # default view, its whole network entry.
                assert pool["networks"] == 0


# ----------------------------------------------------------------------
# committed fault schedules: identical metrics or structured failure
# ----------------------------------------------------------------------
class TestFaultSchedules:
    def test_schedule_directory_is_not_empty(self):
        assert SCHEDULES, "tests/fault_schedules/ must ship committed schedules"

    @pytest.mark.parametrize(
        "schedule_path", SCHEDULES, ids=lambda path: path.stem
    )
    def test_run_under_schedule_is_identical_or_attributed(
        self, schedule_path, tmp_path
    ):
        doc = json.loads(schedule_path.read_text())
        expect = doc["expect"]
        assert expect in {"identical", "degraded", "error"}
        overrides = dict(doc.get("spec_overrides", {}))
        needs_cache = overrides.pop("needs_cache_dir", False)
        fresh_cache = overrides.pop("fresh_cache_dir", False)
        needs_state = overrides.pop("needs_state_dir", False)
        spec = _grid_spec(**overrides)

        shared_cache = None
        if needs_cache:
            shared_cache = tmp_path / "oracle-cache"
            shared_cache.mkdir()

        # Fault-free baseline on a fresh service; with a shared cache
        # dir this also warms the CH cache the fault run will load.
        with ScenarioService(
            max_runs=1,
            oracle_cache_dir=str(shared_cache) if shared_cache else None,
        ) as baseline_service:
            record = baseline_service.submit_spec(spec)
            baseline = baseline_service.wait(record.run_id, timeout=_WAIT)
        assert baseline.status == COMPLETED, baseline.error

        fault_cache = shared_cache
        if fresh_cache:
            # Save-path schedules need a cold cache so the build + save
            # actually run under injection.
            fault_cache = tmp_path / "fault-cache"
            fault_cache.mkdir()

        durable_kwargs = {}
        if needs_state:
            # Durability schedules (journal.append / checkpoint.write)
            # only fire on a service with a state dir; a small interval
            # guarantees checkpoints actually happen on a short run.
            durable_kwargs = {
                "state_dir": tmp_path / "state",
                "checkpoint_interval": 3,
            }

        injector = FaultInjector.from_dict(doc)
        with injected_faults(injector):
            with ScenarioService(
                max_runs=1,
                oracle_cache_dir=str(fault_cache) if fault_cache else None,
                **durable_kwargs,
            ) as service:
                record = service.submit_spec(spec)
                record = service.wait(record.run_id, timeout=_WAIT)

        assert record.status in {COMPLETED, FAILED}, "a faulted run must not hang"
        if expect == "error":
            assert record.status == FAILED
            # The structured error names the fault site it died at.
            assert any(
                site in record.error["detail"] for site in injector.sites()
            ), record.error
        else:
            assert record.status == COMPLETED, record.error
            _assert_rows_equal(
                record.result["metrics"], baseline.result["metrics"]
            )
            if expect == "degraded":
                assert record.result["degradations"], (
                    "schedule promises a recorded degradation"
                )
