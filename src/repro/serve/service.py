"""The scenario service core: submit, execute, observe — no transport.

:class:`ScenarioService` is everything the server does minus the wire:
it validates submissions eagerly (:func:`~repro.serve.protocol.
parse_submission`), multiplexes accepted runs over a bounded thread
executor, prepares each run on a **pooled session**
(:class:`~repro.serve.pool.SessionPool` — one oracle per network/oracle
identity, however many concurrent requests name it), runs each request
on its own clone of the pooled orders over the pooled network itself
(whose oracle answers one query at a time under its own lock), and
streams each run's events into sinks (an in-memory store per run, plus
a JSONL trace file per run when a trace directory is configured).

Both transports in :mod:`repro.serve.server` — the asyncio HTTP server
and the stdin JSON-lines loop — are thin adapters over this class, so
tests can drive the full service lifecycle without opening a socket.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping

from ..api import RunResult, ScenarioSpec
from ..durability.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    CheckpointError,
    Checkpointer,
    RunCheckpoint,
    read_checkpoint_header,
)
from ..durability.journal import RunJournal
from ..durability.results import ResultStore
from ..exceptions import ConfigurationError, ReproError
from ..network.graph import RoadNetwork
from ..resilience.cancellation import CancellationToken, RunCancelled
from ..resilience.degradation import CircuitOpenError, DegradationLog
from ..resilience.faults import fault_point
from ..resilience.retry import RetryPolicy, retry_call
from ..simulation.hooks import CompositeHooks, SimulationHooks
from .pool import DEFAULT_MAX_SESSIONS, SessionPool
from .protocol import (
    CANCELLED,
    COMPLETED,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    ProtocolError,
    RunRecord,
    parse_submission,
)
from .sinks import JsonlSink, MemorySink

#: Default width of the run executor: enough to overlap preparation
#: and simulation of a few requests without oversubscribing the GIL.
DEFAULT_MAX_RUNS = 2

#: Default bound on finished run records kept queryable.
DEFAULT_MAX_RECORDS = 1024

#: Transient preparation failures (unreadable cache volumes, racing
#: CSV readers) get one quick retry before counting against the pool
#: entry's circuit breaker.
PREPARE_RETRY_POLICY = RetryPolicy(
    max_attempts=2, base_delay=0.05, max_delay=0.5, retry_on=(OSError,)
)


class ScenarioService:
    """Long-lived, transport-agnostic scenario execution service.

    Parameters
    ----------
    max_runs:
        Executor width — how many submitted runs may execute at once
        (further submissions queue; ``queue_depth`` in ``/metrics``).
    max_sessions:
        Bound of the shared session pool.
    trace_dir:
        When set, every run streams its events to
        ``<trace_dir>/<run_id>.jsonl`` through a
        :class:`~repro.serve.sinks.JsonlSink`.
    oracle_cache_dir:
        On-disk oracle-preprocessing cache handed to pooled sessions,
        so even a freshly started service skips CH contraction for
        known graphs.
    store_events:
        Events retained in memory per run (``GET /runs/<id>`` shows
        the tail); ``0`` disables the in-memory event store.
    max_queue:
        Bound on *queued* (accepted, not yet running) runs.  A full
        queue refuses further submissions with a 429-shaped
        ``overloaded`` error instead of accepting unbounded work;
        ``None`` keeps the queue unbounded.
    default_deadline:
        Wall-clock budget (seconds) applied to every run whose spec
        does not set its own ``deadline_seconds``; ``None`` means runs
        without a spec deadline are unlimited.
    state_dir:
        Durable service state: a write-ahead run journal
        (``journal.jsonl``), per-run result documents (``results/``)
        and simulation checkpoints (``checkpoints/``).  On startup the
        journal is replayed: finished runs are served from the result
        store, submitted-but-never-started runs are re-enqueued, and
        orphaned in-flight runs are resumed from their last checkpoint
        (or reported ``interrupted``) — a ``kill -9`` loses no accepted
        work.  Without a state dir the service is exactly as ephemeral
        as before.
    checkpoint_interval:
        Ticks between simulation checkpoints for journaled runs.
    auto_resume:
        Whether recovery re-executes orphaned in-flight runs from their
        checkpoints (default); ``False`` reports them ``interrupted``
        instead, leaving the checkpoints in place for a manual
        ``repro run --resume``.
    """

    def __init__(
        self,
        *,
        max_runs: int = DEFAULT_MAX_RUNS,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        trace_dir: str | Path | None = None,
        oracle_cache_dir: str | None = None,
        store_events: int = 1000,
        max_records: int = DEFAULT_MAX_RECORDS,
        max_queue: int | None = None,
        default_deadline: float | None = None,
        state_dir: str | Path | None = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        auto_resume: bool = True,
    ) -> None:
        if max_runs < 1:
            raise ValueError("max_runs must be at least 1")
        if store_events < 0:
            raise ValueError("store_events must be non-negative")
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be at least 1 (or None)")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive (or None)")
        self._max_queue = max_queue
        self._default_deadline = default_deadline
        self._pool = SessionPool(max_sessions, oracle_cache_dir=oracle_cache_dir)
        self._executor = ThreadPoolExecutor(
            max_workers=max_runs, thread_name_prefix="serve-run"
        )
        self._max_runs = max_runs
        self._trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._store_events = store_events
        self._max_records = max_records
        self._lock = threading.Lock()
        self._records: dict[str, RunRecord] = {}
        self._record_order: list[str] = []
        self._event_stores: dict[str, MemorySink] = {}
        self._run_ids = itertools.count(1)
        self._closed = False
        self._draining = False
        # Per-backend oracle counters accumulated from finished runs,
        # and each pooled oracle's stats when they were last folded in.
        self._oracle_counters: dict[str, dict[str, float]] = {}
        self._oracle_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: Submissions refused because the admission queue was full.
        self._rejected_total = 0
        #: Degradation events folded from finished runs, keyed by site.
        self._degradation_counters: dict[str, int] = {}
        # ---- durable state (all None/zero without a state dir) ----
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        self._checkpoint_interval = checkpoint_interval
        self._auto_resume = auto_resume
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._journal: RunJournal | None = None
        self._results: ResultStore | None = None
        self._checkpoints_written = 0
        self._checkpoint_failures = 0
        self._recovered = {
            "restored": 0,
            "requeued": 0,
            "resumed": 0,
            "interrupted": 0,
            "failed": 0,
        }
        if self._state_dir is not None:
            self._state_dir.mkdir(parents=True, exist_ok=True)
            self._journal = RunJournal(self._state_dir / "journal.jsonl")
            self._results = ResultStore(self._state_dir / "results")
            self._recover()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> RunRecord:
        """Validate one submission and enqueue its run.

        Returns the queued :class:`RunRecord` immediately; a spec the
        spec layer rejects raises a 400-style
        :class:`~repro.serve.protocol.ProtocolError` and never reaches
        the executor.
        """
        spec, _options = parse_submission(payload)
        return self.submit_spec(spec)

    def submit_spec(self, spec: ScenarioSpec) -> RunRecord:
        """Enqueue an already validated spec (the programmatic door).

        Refuses structurally before queuing work it cannot serve: a
        full admission queue comes back as a 429-shaped ``overloaded``
        error, and an identity whose session-pool circuit breaker is
        open as a 503-shaped ``session-quarantined`` error.
        """
        if self._pool.is_quarantined(spec):
            raise ProtocolError(
                503,
                "session-quarantined",
                "session preparation for this scenario identity keeps "
                "failing and is quarantined; retry after the breaker's "
                "cool-down",
            )
        with self._lock:
            if self._draining:
                raise ProtocolError(
                    503,
                    "draining",
                    "the service is draining: in-flight runs are being "
                    "finished or checkpointed, no new work is admitted",
                )
            if self._closed:
                raise ProtocolError(
                    503, "shutting-down", "the service is shutting down"
                )
            if self._max_queue is not None:
                queued = sum(
                    1
                    for run_id in self._record_order
                    if self._records[run_id].status == QUEUED
                )
                if queued >= self._max_queue:
                    self._rejected_total += 1
                    raise ProtocolError(
                        429,
                        "overloaded",
                        f"the admission queue is full ({queued} queued, "
                        f"bound {self._max_queue}); retry later",
                    )
            run_id = f"run-{next(self._run_ids):06d}"
            deadline = spec.deadline_seconds
            if deadline is None:
                deadline = self._default_deadline
            record = RunRecord(
                run_id=run_id,
                spec=spec,
                cancellation=CancellationToken(deadline),
            )
            self._records[run_id] = record
            self._record_order.append(run_id)
            self._evict_records()
            if self._store_events:
                self._event_stores[run_id] = MemorySink(
                    max_events=self._store_events, context={"run_id": run_id}
                )
        # Write-ahead: the submission is journaled before the executor
        # can touch it, so a crash at any later instant leaves a record
        # to re-enqueue from.
        self._journal_append(
            {"type": "submitted", "run_id": run_id, "spec": spec.to_dict()}
        )
        self._executor.submit(self._execute, record)
        return record

    def _journal_append(self, record: Mapping[str, Any]) -> None:
        if self._journal is not None:
            self._journal.append(record)

    def _evict_records(self) -> None:
        """Drop the oldest *finished* records beyond the bound (lock held)."""
        while len(self._record_order) > self._max_records:
            for index, run_id in enumerate(self._record_order):
                record = self._records[run_id]
                if record.status in TERMINAL_STATES:
                    del self._record_order[index]
                    del self._records[run_id]
                    self._event_stores.pop(run_id, None)
                    break
            else:
                return  # everything left is still in flight; keep it all

    # ------------------------------------------------------------------
    # crash recovery (state_dir only)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: account for every previously accepted run.

        Invariant this enforces (and the SIGKILL test asserts): every
        run the previous process journaled as ``submitted`` is either
        served from the result store, re-enqueued, resumed from its
        checkpoint, reported ``interrupted``, or — when this build no
        longer parses its spec — reported ``failed``; never silently
        lost.
        """
        assert self._journal is not None and self._results is not None
        entries = self._journal.replay()
        if not entries:
            return
        clean = entries[-1].get("type") == "clean_shutdown"
        runs: dict[str, dict[str, Any]] = {}
        highest = 0
        for entry in entries:
            run_id = entry.get("run_id")
            if not isinstance(run_id, str):
                continue
            number = _run_number(run_id)
            if number is not None:
                highest = max(highest, number)
            info = runs.setdefault(run_id, {"last": None, "spec": None})
            info["last"] = entry.get("type")
            if entry.get("type") == "submitted":
                info["spec"] = entry.get("spec")
        for run_id in self._results.run_ids():
            number = _run_number(run_id)
            if number is not None:
                highest = max(highest, number)
        # New submissions continue the id sequence instead of reusing
        # ids the journal (or the result store) already knows.
        self._run_ids = itertools.count(highest + 1)
        if clean:
            # Runs whose full documents live in the result store need no
            # journal history; dropping them bounds journal growth.
            self._journal.compact(self._results.run_ids())
        terminal = {"finished", "failed", "cancelled", "interrupted"}
        for run_id in sorted(runs, key=lambda rid: _run_number(rid) or 0):
            info = runs[run_id]
            last = info["last"]
            if last in terminal:
                continue  # served from the result store on demand
            record = self._recovered_record(run_id, info["spec"])
            if record is None:
                continue
            if record.status == FAILED:
                self._register_recovered(record, "failed")
                self._finalize_durable(record)
                continue
            if clean or last is None:
                # A clean shutdown deliberately left this run behind
                # (shutdown without drain); account for it, don't rerun.
                record.mark_interrupted(
                    "the service shut down before this run finished",
                    checkpoint=self._checkpoint_cursor(run_id),
                )
                self._register_recovered(record, "interrupted")
                self._finalize_durable(record)
                continue
            if last == "submitted":
                # Accepted but never started: run it now, same id.
                self._register_recovered(record, "requeued")
                self._executor.submit(self._execute, record)
                continue
            # Orphaned mid-flight (started/checkpointed): resume when a
            # checkpoint survived and resuming is allowed, else report.
            cursor = self._checkpoint_cursor(run_id)
            path = self._checkpoint_path(run_id)
            if self._auto_resume and path is not None and path.exists():
                record.resume_path = str(path)
                record.resumed_from = cursor
                self._register_recovered(record, "resumed")
                self._executor.submit(self._execute, record)
            else:
                record.mark_interrupted(
                    "the service died while this run was in flight",
                    checkpoint=cursor,
                )
                self._register_recovered(record, "interrupted")
                self._finalize_durable(record)

    def _recovered_record(
        self, run_id: str, spec_document: Any
    ) -> RunRecord | None:
        """A fresh QUEUED record for a journaled run.

        ``None`` when the journal kept no spec for it.  A spec that was
        accepted by an earlier build but no longer parses (a removed
        key) yields a terminal FAILED record carrying the parse error,
        so the run id keeps answering instead of turning into a 404.
        """
        if not isinstance(spec_document, Mapping):
            return None
        try:
            spec = ScenarioSpec.from_dict(spec_document)
        except ConfigurationError as exc:
            record = RunRecord(run_id=run_id, spec=dict(spec_document))
            record.mark_failed(
                "invalid-spec", f"the journaled spec no longer parses: {exc}"
            )
            return record
        deadline = spec.deadline_seconds
        if deadline is None:
            deadline = self._default_deadline
        return RunRecord(
            run_id=run_id,
            spec=spec,
            cancellation=CancellationToken(deadline),
        )

    def _register_recovered(self, record: RunRecord, how: str) -> None:
        with self._lock:
            self._records[record.run_id] = record
            self._record_order.append(record.run_id)
            if self._store_events and record.status == QUEUED:
                self._event_stores[record.run_id] = MemorySink(
                    max_events=self._store_events,
                    context={"run_id": record.run_id},
                )
            self._recovered[how] += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, record: RunRecord) -> None:
        if not record.claim():
            # A cancel won the race while the run sat in the queue.
            return
        self._journal_append({"type": "started", "run_id": record.run_id})
        try:
            result = self._run(record)
        except RunCancelled as exc:
            partial = getattr(exc, "partial", None)
            if self._draining:
                # A drain cut this run, it did not abandon it: the last
                # checkpoint stays on disk, the record says how far the
                # run got, and a restart on the same state dir can
                # resume it by hand (``repro run --resume``).
                record.mark_interrupted(
                    f"interrupted by drain: {exc.reason}",
                    checkpoint=self._checkpoint_cursor(record.run_id),
                )
            else:
                record.mark_cancelled(exc.reason, partial)
            if partial is not None:
                self._fold_degradations(partial.get("degradations") or ())
        except CheckpointError as exc:
            if record.resume_path is not None:
                # A recovered run whose checkpoint cannot be trusted is
                # *interrupted*, not failed — the original work was cut
                # by a crash, and the corrupt file must not masquerade
                # as a run error.
                record.mark_interrupted(
                    f"resume failed: {exc}", checkpoint=record.resumed_from
                )
            else:
                record.mark_failed("run-failed", str(exc))
        except CircuitOpenError as exc:
            record.mark_failed("session-quarantined", str(exc))
        except ProtocolError as exc:
            record.mark_failed(exc.error, exc.detail)
        except ConfigurationError as exc:
            record.mark_failed("invalid-spec", str(exc))
        except ReproError as exc:
            record.mark_failed("run-failed", str(exc))
        except OSError as exc:
            # Unreadable CSV paths, full disks: the run failed, the
            # service did not.
            record.mark_failed("run-failed", str(exc))
        except Exception as exc:  # noqa: BLE001 - a run must never kill the service
            record.mark_failed("internal-error", f"{type(exc).__name__}: {exc}")
        else:
            record.mark_completed(self._summarise(result))
            self._fold_degradations(result.degradations)
        self._finalize_durable(record)

    def _finalize_durable(self, record: RunRecord) -> None:
        """Persist a terminal record and journal how the run ended."""
        if record.status not in TERMINAL_STATES:
            return
        if self._results is not None:
            self._results.save(record.run_id, record.as_dict())
        terminal_types = {
            COMPLETED: "finished",
            FAILED: "failed",
            CANCELLED: "cancelled",
            INTERRUPTED: "interrupted",
        }
        entry: dict[str, Any] = {
            "type": terminal_types[record.status],
            "run_id": record.run_id,
        }
        if record.error is not None:
            entry["detail"] = record.error.get("detail")
        self._journal_append(entry)
        if record.status == COMPLETED:
            # A finished run needs no resume point; reclaim the space.
            path = self._checkpoint_path(record.run_id)
            if path is not None:
                path.unlink(missing_ok=True)

    def _checkpoint_path(self, run_id: str) -> Path | None:
        if self._state_dir is None:
            return None
        return self._state_dir / "checkpoints" / f"{run_id}.ckpt"

    def _checkpoint_cursor(self, run_id: str) -> dict[str, Any] | None:
        """Cursor of the run's newest on-disk checkpoint, if readable."""
        path = self._checkpoint_path(run_id)
        if path is None or not path.exists():
            return None
        try:
            header = read_checkpoint_header(path)
        except CheckpointError:
            return None
        cursor = header.get("cursor")
        return dict(cursor) if isinstance(cursor, dict) else None

    def _run(self, record: RunRecord) -> RunResult:
        spec = record.spec
        session = self._pool.acquire(spec)
        # One log spans preparation and the run so fallbacks taken while
        # standing the oracle up (corrupt-cache rebuild, CH demoted to
        # lazy) surface in the run's result and the service metrics.
        degradations = DegradationLog()

        def prepare():
            # The injectable fault site sits inside the retried call, so
            # a scheduled ``fail_first`` exercises exactly this path.
            fault_point("session.prepare")
            return session.prepare(spec, degradations=degradations)

        # Thread-safe preparation: concurrent requests for one
        # network/oracle identity block here while the first builds.
        # Transient IO failures get one quick retry; a failure that
        # survives it counts against the identity's circuit breaker.
        try:
            workload = retry_call(prepare, policy=PREPARE_RETRY_POLICY)
        except Exception:
            self._pool.record_failure(spec)
            raise
        self._pool.record_success(spec)
        # Orders carry mutable lifecycle bookkeeping and the pooled
        # workload is every run's on this session, so each run gets its
        # own clones (ids kept).  The network is the pooled one: its
        # oracle serialises queries itself.  Workers need no clone —
        # ``make_dispatcher`` puts fresh copies in each run's fleet.
        run_workload = replace(
            workload, orders=[replace(order) for order in workload.orders]
        )
        provider = None
        if spec.algorithm == "WATTER-expect" and record.resume_path is None:
            # The memoised provider (fitted to the spec's own source),
            # exactly as a direct Session.run(spec) would bootstrap it —
            # passing the cloned workload below must not change which
            # provider serves the run.  (A resumed dispatcher carries
            # its provider inside the checkpoint.)
            provider = session.expect_provider(spec)
        sink = None
        if self._trace_dir is not None:
            sink = JsonlSink(
                self._trace_dir / f"{record.run_id}.jsonl",
                context={"run_id": record.run_id},
            )
        hooks = self._hooks_for(record, degradations, sink)
        try:
            result = session.run(
                spec,
                hooks=hooks,
                workload=run_workload,
                provider=provider,
                cancellation=record.cancellation,
                degradations=degradations,
                resume_from=record.resume_path,
            )
        finally:
            if sink is not None:
                sink.close()
        self._fold_oracle_counters(spec, workload.network)
        return result

    def _hooks_for(
        self,
        record: RunRecord,
        degradations: DegradationLog | None,
        sink: JsonlSink | None,
    ) -> SimulationHooks | None:
        hooks: list[SimulationHooks | None] = []
        with self._lock:
            hooks.append(self._event_stores.get(record.run_id))
        hooks.append(sink)
        checkpoint_path = self._checkpoint_path(record.run_id)
        if checkpoint_path is not None:
            hooks.append(
                _ServiceCheckpointer(
                    self,
                    record,
                    checkpoint_path,
                    interval=self._checkpoint_interval,
                    degradations=degradations,
                )
            )
        hooks = [hook for hook in hooks if hook is not None]
        if not hooks:
            return None
        if len(hooks) == 1:
            return hooks[0]
        return CompositeHooks(hooks)

    @staticmethod
    def _summarise(result: RunResult) -> dict[str, Any]:
        metrics = result.metrics.summary_row()
        oracle_stats = result.oracle_stats
        return {
            "metrics": metrics,
            "graph_hash": result.graph_hash,
            "timings": dict(result.timings),
            "oracle_stats": dict(oracle_stats) if oracle_stats else None,
            "degradations": [dict(event) for event in result.degradations],
        }

    def _fold_degradations(self, events) -> None:
        with self._lock:
            for event in events:
                site = event.get("site", "unknown") if isinstance(event, Mapping) else "unknown"
                self._degradation_counters[site] = (
                    self._degradation_counters.get(site, 0) + 1
                )

    def _fold_oracle_counters(self, spec: ScenarioSpec, network: RoadNetwork) -> None:
        """Fold in the pooled oracle's own advance since it was last read.

        Not the run's ``oracle_stats``: that is a before/after delta of
        the pooled oracle, so runs overlapping on it would count each
        other's answers.  Keyed by the oracle object, so every answer
        counts once, whichever run asked it.
        """
        backend = spec.config().oracle.backend
        oracle = network.oracle
        with self._lock:
            with oracle.lock:
                stats = oracle.stats()
            seen = self._oracle_seen.get(oracle)
            self._oracle_seen[oracle] = stats
            advance = (stats if seen is None else stats - seen).as_dict()
            counters = self._oracle_counters.setdefault(backend, {})
            counters["runs"] = counters.get("runs", 0) + 1
            for key, value in advance.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                counters[key] = counters.get(key, 0) + value

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def get(self, run_id: str) -> RunRecord:
        """The record of one run (404-style error when unknown).

        With a state dir, runs that finished in a *previous* process
        (or were evicted from the in-memory window) are served from the
        durable result store — restart-transparent to clients polling
        a run id.
        """
        with self._lock:
            record = self._records.get(run_id)
        if record is None and self._results is not None:
            document = self._results.load(run_id)
            if document is not None:
                with self._lock:
                    self._recovered["restored"] += 1
                return _record_from_document(run_id, document)
        if record is None:
            raise ProtocolError(404, "unknown-run", f"no run with id {run_id!r}")
        return record

    def wait(self, run_id: str, timeout: float | None = None) -> RunRecord:
        """Block until the run finished (or ``timeout`` elapsed)."""
        record = self.get(run_id)
        record.done.wait(timeout)
        return record

    def cancel(self, run_id: str, reason: str = "cancelled by request") -> RunRecord:
        """Request cancellation of a queued or running run.

        A queued run is cancelled immediately (the executor's claim
        then no-ops); a running run is asked to stop at its next tick
        boundary — the record reaches ``cancelled`` when the engine
        unwinds.  Cancelling a finished run changes nothing.
        """
        record = self.get(run_id)
        if record.cancel_if_queued(reason):
            return record
        if record.cancellation is not None:
            record.cancellation.cancel(reason)
        return record

    def events(self, run_id: str) -> list[dict[str, Any]]:
        """The retained event stream of one run (empty if disabled)."""
        self.get(run_id)  # 404 on unknown ids, even with the store off
        with self._lock:
            store = self._event_stores.get(run_id)
        return store.events if store is not None else []

    def list_runs(self) -> list[RunRecord]:
        """All retained records, oldest first."""
        with self._lock:
            return [self._records[run_id] for run_id in self._record_order]

    def metrics(self) -> dict[str, Any]:
        """The ``/metrics`` document: pool, oracle, queue and latency.

        ``batcher.serial_queries`` is the ``queries`` total of the
        per-backend oracle counters: the answers (cells and scalar
        reads) the pooled oracles served under their locks, workload
        generation included, each counted once and folded in as a run
        finishes.  It only grows, whatever the pool evicts.  (The
        ``batcher`` key keeps the name ``benchmarks/e2e/serve_load.py``
        reads.)
        """
        with self._lock:
            records = [self._records[run_id] for run_id in self._record_order]
            oracle_counters = {
                backend: dict(counters)
                for backend, counters in self._oracle_counters.items()
            }
            rejected_total = self._rejected_total
            degradations = dict(self._degradation_counters)
        by_status = {
            state: 0
            for state in (
                QUEUED,
                RUNNING,
                COMPLETED,
                FAILED,
                CANCELLED,
                INTERRUPTED,
            )
        }
        latencies = []
        for record in records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
            if record.latency_seconds is not None:
                latencies.append(record.latency_seconds)
        return {
            "runs": by_status,
            "queue_depth": by_status[QUEUED],
            "max_queue": self._max_queue,
            "rejected_total": rejected_total,
            "max_concurrent_runs": self._max_runs,
            "default_deadline_seconds": self._default_deadline,
            "degradations": degradations,
            "pool": self._pool.stats(),
            "batcher": {
                "serial_queries": sum(
                    counters.get("queries", 0) for counters in oracle_counters.values()
                )
            },
            "oracle": oracle_counters,
            "durability": self._durability_metrics(),
            "latency_seconds": {
                "count": len(latencies),
                "total": sum(latencies),
                "mean": sum(latencies) / len(latencies) if latencies else None,
                "max": max(latencies) if latencies else None,
            },
        }

    def _durability_metrics(self) -> dict[str, Any] | None:
        if self._state_dir is None:
            return None
        assert self._journal is not None and self._results is not None
        return {
            "state_dir": str(self._state_dir),
            "draining": self._draining,
            "journal_appends": self._journal.appends,
            "journal_append_failures": self._journal.append_failures,
            "journal_compactions": self._journal.compactions,
            "checkpoints_written": self._checkpoints_written,
            "checkpoint_write_failures": self._checkpoint_failures,
            "results_saved": self._results.saves,
            "recovered": dict(self._recovered),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, grace: float | None = 30.0) -> dict[str, Any]:
        """Graceful shutdown: stop admission, settle in-flight work, exit clean.

        Admission stops immediately (submissions come back as a
        503-shaped ``draining`` error).  In-flight and queued runs get
        ``grace`` seconds to finish on their own; whatever is still
        unfinished after the budget is cut at its next tick boundary —
        the engine writes one final forced checkpoint and the record
        lands in ``interrupted`` with its last cursor, resumable on the
        next start.  Finally a ``clean_shutdown`` marker is journaled
        (which is what lets the next startup compact the journal).

        Returns a summary: how many runs finished, were interrupted,
        or were already terminal when the drain began.
        """
        with self._lock:
            already = self._draining or self._closed
            self._draining = True
        summary = {"finished": 0, "interrupted": 0}
        if not already:
            deadline = (
                None if grace is None else time.monotonic() + max(grace, 0.0)
            )
            while True:
                pending = [
                    record
                    for record in self.list_runs()
                    if record.status not in TERMINAL_STATES
                ]
                if not pending:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    for record in pending:
                        if record.cancellation is not None:
                            record.cancellation.cancel(
                                "drain grace budget exhausted"
                            )
                        # Never-started runs have no engine to unwind;
                        # settle them here (claim() then refuses).
                        if record.status == QUEUED:
                            record.mark_interrupted(
                                "interrupted by drain before starting",
                                checkpoint=None,
                            )
                            self._finalize_durable(record)
                    deadline = None  # keep waiting for the unwinding runs
                time.sleep(0.05)
        self.shutdown(wait=True)
        for record in self.list_runs():
            if record.status == INTERRUPTED:
                summary["interrupted"] += 1
            elif record.status in TERMINAL_STATES:
                summary["finished"] += 1
        return summary

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions and (optionally) drain in-flight runs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
        # The marker that distinguishes "process exited" from "process
        # died": its presence at the journal's tail is what authorises
        # compaction on the next startup.
        self._journal_append({"type": "clean_shutdown"})
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)


class _ServiceCheckpointer(Checkpointer):
    """A per-run checkpointer that also journals and counts its writes."""

    def __init__(
        self,
        service: ScenarioService,
        record: RunRecord,
        path: Path,
        *,
        interval: int,
        degradations: DegradationLog | None = None,
    ) -> None:
        super().__init__(path, interval=interval, degradations=degradations)
        self._service = service
        self._record = record

    def on_checkpoint(self, checkpoint: RunCheckpoint) -> None:
        before = self.writes
        super().on_checkpoint(checkpoint)
        if self.writes > before:
            cursor = checkpoint.cursor.as_dict()
            self._record.checkpoint = cursor
            self._service._checkpoints_written += 1
            self._service._journal_append(
                {
                    "type": "checkpointed",
                    "run_id": self._record.run_id,
                    "cursor": cursor,
                }
            )
        else:
            self._service._checkpoint_failures += 1


def _run_number(run_id: str) -> int | None:
    """The sequence number inside a service-issued ``run-%06d`` id."""
    if not run_id.startswith("run-"):
        return None
    try:
        return int(run_id[4:])
    except ValueError:
        return None


def _record_from_document(run_id: str, document: Mapping[str, Any]) -> RunRecord:
    """Rehydrate a terminal record from its durable result document.

    A stored spec this build no longer parses is echoed verbatim: the
    run happened (or was refused) under the build that accepted it, and
    its record must keep answering.
    """
    stored_spec = document.get("spec") or {}
    try:
        spec: Any = ScenarioSpec.from_dict(stored_spec)
    except ConfigurationError:
        spec = dict(stored_spec) if isinstance(stored_spec, Mapping) else {}
    record = RunRecord(run_id=run_id, spec=spec)
    record.status = document.get("status", COMPLETED)
    record.submitted_at = document.get("submitted_at") or record.submitted_at
    record.started_at = document.get("started_at")
    record.finished_at = document.get("finished_at")
    result = document.get("result")
    record.result = dict(result) if isinstance(result, Mapping) else None
    error = document.get("error")
    record.error = dict(error) if isinstance(error, Mapping) else None
    checkpoint = document.get("checkpoint")
    record.checkpoint = (
        dict(checkpoint) if isinstance(checkpoint, Mapping) else None
    )
    resumed = document.get("resumed_from")
    record.resumed_from = dict(resumed) if isinstance(resumed, Mapping) else None
    record.done.set()
    return record
