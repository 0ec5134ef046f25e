"""Durability tests: journal, checkpoints, recovery, locks, drain.

The contract this file pins down (ISSUE 8):

* the write-ahead run journal survives torn writes and is compacted on
  clean startup,
* a run interrupted at *any* checkpoint boundary and resumed produces
  metrics identical to an uninterrupted run — across dispatchers and
  oracle backends,
* a service restarted on its ``--state-dir`` accounts for every
  previously accepted run (finished runs are served from the result
  store, queued runs re-enqueued, orphaned in-flight runs resumed or
  reported ``interrupted``) — even after ``kill -9``,
* two processes sharing one oracle cache directory contract a CH
  hierarchy exactly once, and a dead builder's lock is taken over,
* a graceful drain refuses new work with a structured 503, settles
  in-flight runs within its budget and journals a clean shutdown.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, Session
from repro.durability import (
    CheckpointError,
    InterProcessLock,
    LockTimeout,
    ResultStore,
    RunJournal,
    read_jsonl_tolerant,
)
from repro.durability.checkpoint import read_checkpoint_header
from repro.resilience import FaultInjector, injected_faults
from repro.serve import (
    COMPLETED,
    FAILED,
    INTERRUPTED,
    JsonlSink,
    ProtocolError,
    ScenarioService,
    read_trace,
)
from tests.conftest import interrupt_and_checkpoint

_WAIT = 240.0
_REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _spec(algorithm: str = "GDP", oracle: str = "lazy", **overrides) -> ScenarioSpec:
    base = dict(
        network="grid",
        grid_rows=5,
        grid_cols=5,
        num_orders=30,
        num_workers=5,
        horizon=600.0,
        seed=11,
        algorithm=algorithm,
        oracle={"backend": oracle},
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _comparable(metrics) -> dict:
    """Metrics as a dict, minus wall-clock and per-run oracle counters."""
    row = asdict(metrics)
    row.pop("running_time_total")
    row.pop("running_time_per_order")
    row.pop("oracle_stats")
    return row


def _rows_equal(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, expected in want.items():
        if key == "running_time":
            continue
        if isinstance(expected, float):
            assert got[key] == pytest.approx(expected, rel=1e-9), key
        else:
            assert got[key] == expected, key


# ----------------------------------------------------------------------
# tolerant JSONL + run journal
# ----------------------------------------------------------------------
class TestTolerantJsonl:
    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_jsonl_tolerant(tmp_path / "absent.jsonl")) == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"c": 3, "tru', encoding="utf-8")
        assert list(read_jsonl_tolerant(path)) == [{"a": 1}, {"b": 2}]

    def test_blank_and_garbled_interior_lines_are_skipped(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"a": 1}\n\nnot json\n{"b": 2}\n', encoding="utf-8")
        assert list(read_jsonl_tolerant(path)) == [{"a": 1}, {"b": 2}]


class TestRunJournal:
    def test_append_replay_round_trip_stamps_timestamps(self, tmp_path):
        with RunJournal(tmp_path / "journal.jsonl") as journal:
            assert journal.append({"type": "submitted", "run_id": "run-1"})
            assert journal.append({"type": "started", "run_id": "run-1"})
        entries = RunJournal(tmp_path / "journal.jsonl").replay()
        assert [entry["type"] for entry in entries] == ["submitted", "started"]
        assert all("ts" in entry for entry in entries)

    def test_compaction_drops_named_runs_and_markers(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append({"type": "submitted", "run_id": "run-1"})
        journal.append({"type": "finished", "run_id": "run-1"})
        journal.append({"type": "submitted", "run_id": "run-2"})
        journal.append({"type": "clean_shutdown"})
        dropped = journal.compact({"run-1"})
        assert dropped >= 2
        assert journal.compactions == 1
        remaining = journal.replay()
        assert [entry["type"] for entry in remaining] == ["submitted"]
        assert remaining[0]["run_id"] == "run-2"
        # The reopened handle still appends to the compacted file.
        journal.append({"type": "started", "run_id": "run-2"})
        assert [e["type"] for e in journal.replay()] == ["submitted", "started"]
        journal.close()

    def test_append_failures_are_counted_not_raised(self, tmp_path):
        injector = FaultInjector(
            {"journal.append": {"fail_first": 50, "exception": "os"}}
        )
        with injected_faults(injector):
            journal = RunJournal(tmp_path / "journal.jsonl")
            assert journal.append({"type": "submitted", "run_id": "run-1"}) is False
        assert journal.append_failures > 0
        journal.close()


class TestResultStore:
    def test_round_trip_and_listing(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        assert store.save("run-000001", {"status": "completed"})
        assert store.load("run-000001") == {"status": "completed"}
        assert store.load("run-missing") is None
        assert store.run_ids() == {"run-000001"}
        store.delete("run-000001")
        assert store.run_ids() == set()

    def test_run_ids_with_path_separators_are_sanitised(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        assert store.save("../escape", {"x": 1})
        files = list((tmp_path / "results").glob("*.json"))
        assert len(files) == 1
        # The separator is neutralised: the file stays inside the store.
        assert files[0].parent == tmp_path / "results"
        assert "/" not in files[0].name


# ----------------------------------------------------------------------
# checkpoint files
# ----------------------------------------------------------------------
class TestCheckpointFiles:
    def test_corrupted_blob_fails_the_crc_check(self, tmp_path):
        session = Session()
        spec = _spec()
        path = tmp_path / "run.ckpt"
        interrupt_and_checkpoint(session, spec, path, cut=3)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="(?i)crc|corrupt"):
            session.run(spec, resume_from=path)

    def test_truncated_file_is_a_checkpoint_error(self, tmp_path):
        session = Session()
        spec = _spec()
        path = tmp_path / "run.ckpt"
        interrupt_and_checkpoint(session, spec, path, cut=3)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            session.run(spec, resume_from=path)

    def test_header_is_json_with_cursor_and_meta(self, tmp_path):
        session = Session()
        spec = _spec()
        path = tmp_path / "run.ckpt"
        interrupt_and_checkpoint(session, spec, path, cut=4)
        header = read_checkpoint_header(path)
        assert header["cursor"]["ticks"] >= 4
        assert header["meta"]["algorithm"] == spec.algorithm
        assert header["meta"]["total_orders"] == spec.num_orders

    def test_resume_with_mismatched_spec_is_refused(self, tmp_path):
        session = Session()
        spec = _spec(algorithm="GDP")
        path = tmp_path / "run.ckpt"
        interrupt_and_checkpoint(session, spec, path, cut=3)
        with pytest.raises(CheckpointError, match="GDP"):
            session.run(spec.with_overrides(algorithm="WATTER-online"), resume_from=path)

    def test_older_format_version_is_refused(self, tmp_path):
        """A v2 checkpoint pickles a config with no ``.oracle``, a v3 one
        a fleet with no release heap, a v4 one a config with dispatch
        fields and an engine persistent id, a v5 one a GDP schedule
        without its legs, a v6 one a fleet from before its spatial index
        was built on first use, a v7 one a pool with a check period and
        statistics, a v8 one an oracle spec with cache_size and
        witness_hops, a v9 one a spatial index holding a lock (a
        ``("lock", ...)`` persistent id), a v10 one was written when the
        ``("graph",)`` id stood for a networkx graph, a v11 one pickles
        orders carrying a ``status``, a v12 one a config carrying an
        ``oracle``; the header check refuses all eleven before anything
        is unpickled."""
        session = Session()
        spec = _spec()
        path = tmp_path / "run.ckpt"
        interrupt_and_checkpoint(session, spec, path, cut=3)
        header_line, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        assert header["format"] == 13
        for older in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12):
            header["format"] = older
            path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + blob)
            with pytest.raises(CheckpointError, match=f"unsupported format {older}"):
                read_checkpoint_header(path)
            with pytest.raises(CheckpointError, match=f"unsupported format {older}"):
                session.run(spec, resume_from=path)

    def test_missing_checkpoint_file_is_refused(self, tmp_path):
        with pytest.raises(CheckpointError):
            Session().run(_spec(), resume_from=tmp_path / "never-written.ckpt")


# ----------------------------------------------------------------------
# the acceptance property: interrupt anywhere, resume, identical metrics
# ----------------------------------------------------------------------
_BASELINES: dict[tuple[str, str], dict] = {}


def _baseline(session: Session, algorithm: str, oracle: str) -> dict:
    key = (algorithm, oracle)
    if key not in _BASELINES:
        _BASELINES[key] = _comparable(
            session.run(_spec(algorithm, oracle)).metrics
        )
    return _BASELINES[key]


class TestResumeEquivalence:
    @pytest.mark.parametrize("oracle", ["lazy", "ch"])
    @pytest.mark.parametrize(
        "algorithm", ["GDP", "WATTER-online", "WATTER-expect", "nonsharing"]
    )
    def test_interrupted_resume_matches_uninterrupted(
        self, algorithm, oracle, tmp_path
    ):
        session = Session()
        spec = _spec(algorithm, oracle)
        baseline = _baseline(session, algorithm, oracle)
        path = tmp_path / "cut.ckpt"
        interrupt_and_checkpoint(session, spec, path, cut=5, interval=2)
        resumed = session.run(spec, resume_from=path)
        assert _comparable(resumed.metrics) == baseline

    def test_resume_in_a_fresh_session_carries_the_graph_hash(self, tmp_path):
        """The resuming session hashes the graph itself (nothing was
        prepared) and stamps the same hash the interrupted run did."""
        from repro.network.oracle import graph_signature

        spec = _spec()
        path = tmp_path / "cut.ckpt"
        interrupt_and_checkpoint(Session(), spec, path, cut=3)
        session = Session()
        resumed = session.run(spec, resume_from=path)
        assert resumed.graph_hash == graph_signature(session.network(spec).graph)
        assert read_checkpoint_header(path)["meta"]["graph_hash"] == resumed.graph_hash

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(min_value=1, max_value=25), interval=st.integers(1, 5))
    def test_any_checkpoint_boundary_resumes_identically(
        self, tmp_path, cut, interval
    ):
        session = Session()
        spec = _spec("GDP", "lazy")
        baseline = _baseline(session, "GDP", "lazy")
        path = tmp_path / f"cut-{cut}-{interval}.ckpt"
        interrupt_and_checkpoint(session, spec, path, cut=cut, interval=interval)
        resumed = session.run(spec, resume_from=path)
        assert _comparable(resumed.metrics) == baseline


# ----------------------------------------------------------------------
# service recovery on a state dir
# ----------------------------------------------------------------------
def _service_spec(**overrides) -> ScenarioSpec:
    """A run long enough (many ticks) to snapshot mid-flight."""
    return _spec(
        grid_rows=8,
        grid_cols=8,
        num_orders=150,
        num_workers=10,
        horizon=4000.0,
        seed=23,
        **overrides,
    )


def _snapshot(state: Path, image: Path) -> None:
    """Copy a live state dir: the fake ``kill -9`` image.

    The service keeps writing while the copy runs, so a checkpoint's
    ``.tmp`` file renamed into place (or a finished run's checkpoint
    deleted) between listing and copying is simply absent from the
    image instead of failing the copy.
    """

    def copy_if_present(src: str, dst: str) -> None:
        try:
            shutil.copy2(src, dst)
        except FileNotFoundError:
            pass

    shutil.copytree(state, image, copy_function=copy_if_present)


@pytest.fixture(scope="module")
def crash_image(tmp_path_factory) -> tuple[Path, str, dict]:
    """Run a durable service, snapshot its state dir mid-run (a fake
    ``kill -9`` image), then let the original finish for the baseline.

    Module-scoped: recovery tests each copy the pristine image before
    restarting a service on it.
    """
    tmp_path = tmp_path_factory.mktemp("crash")
    state = tmp_path / "state"
    with ScenarioService(
        max_runs=1, state_dir=state, checkpoint_interval=2
    ) as service:
        record = service.submit_spec(_service_spec())
        run_id = record.run_id
        journal = state / "journal.jsonl"
        deadline = time.monotonic() + _WAIT
        while time.monotonic() < deadline:
            types = [e.get("type") for e in read_jsonl_tolerant(journal)]
            if "checkpointed" in types:
                break
            time.sleep(0.002)
        else:  # pragma: no cover - diagnostic
            pytest.fail("run never checkpointed")
        image = tmp_path / "crash-image"
        _snapshot(state, image)
        finished = service.wait(run_id, timeout=_WAIT)
        assert finished.status == COMPLETED, finished.error
        baseline = finished.result["metrics"]
    image_types = [
        e.get("type")
        for e in read_jsonl_tolerant(image / "journal.jsonl")
        if e.get("run_id") == run_id
    ]
    assert "started" in image_types and "finished" not in image_types, (
        "the snapshot must have caught the run in flight"
    )
    return image, run_id, baseline


class TestServiceRecovery:
    def test_orphaned_run_is_resumed_to_identical_metrics(
        self, crash_image, tmp_path
    ):
        pristine, run_id, baseline = crash_image
        image = tmp_path / "image"
        shutil.copytree(pristine, image)
        with ScenarioService(max_runs=1, state_dir=image) as service:
            assert service.metrics()["durability"]["recovered"]["resumed"] == 1
            record = service.wait(run_id, timeout=_WAIT)
            assert record.status == COMPLETED, record.error
            assert record.resumed_from is not None
            _rows_equal(record.result["metrics"], baseline)

    def test_orphaned_run_is_interrupted_without_auto_resume(
        self, crash_image, tmp_path
    ):
        pristine, run_id, _ = crash_image
        image = tmp_path / "image"
        shutil.copytree(pristine, image)
        with ScenarioService(
            max_runs=1, state_dir=image, auto_resume=False
        ) as service:
            record = service.get(run_id)
            assert record.status == INTERRUPTED
            assert record.checkpoint is not None
            assert record.checkpoint["ticks"] >= 1
        # Interruption is terminal: a second restart must not revive it.
        with ScenarioService(max_runs=1, state_dir=image) as service:
            assert service.get(run_id).status == INTERRUPTED

    def test_submitted_but_never_started_run_is_requeued(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        journal = RunJournal(state / "journal.jsonl")
        journal.append(
            {
                "type": "submitted",
                "run_id": "run-000007",
                "spec": _spec().to_dict(),
            }
        )
        journal.close()
        with ScenarioService(max_runs=1, state_dir=state) as service:
            assert service.metrics()["durability"]["recovered"]["requeued"] == 1
            record = service.wait("run-000007", timeout=_WAIT)
            assert record.status == COMPLETED, record.error
            # The run-id sequence continues past recovered ids.
            fresh = service.submit_spec(_spec())
            assert fresh.run_id == "run-000008"
            service.wait(fresh.run_id, timeout=_WAIT)

    def test_journaled_run_with_a_removed_key_restarts_as_failed(self, tmp_path):
        """An accepted run whose spec this build no longer parses must
        not vanish: it restarts as ``failed`` with the parse error, is
        journaled and stored, and keeps answering after a second
        restart."""
        state = tmp_path / "state"
        state.mkdir()
        journal = RunJournal(state / "journal.jsonl")
        stale = {
            "run-000002": (
                {**_spec().to_dict(), "oracle": {"backend": "landmark"}},
                "landmark",
            ),
            "run-000003": (
                {**_spec().to_dict(), "dispatch_workers": 2},
                "dispatch_workers",
            ),
            "run-000004": (
                {**_spec().to_dict(), "oracle": {"backend": "overlay"}},
                "overlay",
            ),
            "run-000005": (
                {**_spec().to_dict(), "oracle": {"backend": "ch", "kernel": "dict"}},
                "csr is the only kernel",
            ),
            "run-000006": (
                {**_spec().to_dict(), "oracle": {"backend": "matrix"}},
                "unknown oracle backend 'matrix'",
            ),
        }
        for run_id, (document, _) in stale.items():
            journal.append({"type": "submitted", "run_id": run_id, "spec": document})
        journal.close()
        for restart in (1, 2):
            with ScenarioService(max_runs=1, state_dir=state) as service:
                for run_id, (document, removed) in stale.items():
                    record = service.get(run_id)
                    assert record.status == FAILED
                    assert record.error["error"] == "invalid-spec"
                    assert removed in record.error["detail"]
                    assert record.as_dict()["spec"] == document
                # Counted once; a later restart serves them from the store.
                recovered = service.metrics()["durability"]["recovered"]
                assert recovered["failed"] == (len(stale) if restart == 1 else 0)
                assert service.submit_spec(_spec()).run_id == f"run-{6 + restart:06d}"
            if restart == 1:
                for run_id in stale:
                    types = [
                        e.get("type")
                        for e in read_jsonl_tolerant(state / "journal.jsonl")
                        if e.get("run_id") == run_id
                    ]
                    assert types == ["submitted", "failed"]

    def test_every_accepted_run_is_accounted_for_after_crash(self, tmp_path):
        state = tmp_path / "state"
        with ScenarioService(
            max_runs=1, state_dir=state, checkpoint_interval=2
        ) as service:
            # One long run plus two short satellites: the image catches
            # a mix of in-flight and still-queued accepted work.
            ids = [service.submit_spec(_service_spec()).run_id]
            ids += [service.submit_spec(_spec(seed=s)).run_id for s in (1, 2)]
            journal = state / "journal.jsonl"
            deadline = time.monotonic() + _WAIT
            while time.monotonic() < deadline:
                types = [e.get("type") for e in read_jsonl_tolerant(journal)]
                if "started" in types:
                    break
                time.sleep(0.002)
            image = tmp_path / "crash-image"
            _snapshot(state, image)
            for run_id in ids:
                service.wait(run_id, timeout=_WAIT)
        accepted = {
            e["run_id"]
            for e in read_jsonl_tolerant(image / "journal.jsonl")
            if e.get("type") == "submitted"
        }
        assert accepted == set(ids)
        with ScenarioService(max_runs=1, state_dir=image) as service:
            for run_id in ids:
                record = service.wait(run_id, timeout=_WAIT)
                assert record.status in (COMPLETED, INTERRUPTED), (
                    f"{run_id} must never be lost or hung: {record.status}"
                )

    def test_clean_restart_compacts_journal_and_serves_results(self, tmp_path):
        state = tmp_path / "state"
        with ScenarioService(max_runs=1, state_dir=state) as service:
            run_id = service.submit_spec(_spec()).run_id
            record = service.wait(run_id, timeout=_WAIT)
            assert record.status == COMPLETED
            baseline = record.result["metrics"]
        with ScenarioService(max_runs=1, state_dir=state) as service:
            assert service.metrics()["durability"]["journal_compactions"] == 1
            served = service.get(run_id)
            assert served.status == COMPLETED
            _rows_equal(served.result["metrics"], baseline)
            # The compacted journal no longer carries the finished run.
            types = [
                e.get("type") for e in read_jsonl_tolerant(state / "journal.jsonl")
            ]
            assert "finished" not in types

    def test_drain_interrupts_inflight_run_resumably(self, tmp_path):
        state = tmp_path / "state"
        service = ScenarioService(
            max_runs=1, state_dir=state, checkpoint_interval=1
        )
        record = service.submit_spec(_service_spec())
        deadline = time.monotonic() + _WAIT
        while time.monotonic() < deadline and record.status == "queued":
            time.sleep(0.002)
        summary = service.drain(grace=0.05)
        assert summary["finished"] + summary["interrupted"] == 1
        final = service.get(record.run_id)
        assert final.status in (COMPLETED, INTERRUPTED)
        types = [e.get("type") for e in read_jsonl_tolerant(state / "journal.jsonl")]
        assert types[-1] == "clean_shutdown"
        # New submissions are refused with the structured draining error.
        with pytest.raises(ProtocolError) as refusal:
            service.submit_spec(_spec())
        assert refusal.value.status == 503
        # Drain-interrupted runs stay terminal on restart (the operator
        # chose to stop them; only crash orphans are auto-resumed).
        with ScenarioService(max_runs=1, state_dir=state) as restarted:
            assert restarted.get(record.run_id).status == final.status


# ----------------------------------------------------------------------
# subprocess crash / drain (the served process itself dies)
# ----------------------------------------------------------------------
def _start_serve(state: Path, *extra: str) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ, PYTHONPATH=_REPO_SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--max-runs",
            "1",
            "--state-dir",
            str(state),
            "--checkpoint-interval",
            "2",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    assert "listening on" in line, f"unexpected serve banner: {line!r}"
    base = line.strip().rsplit(" ", 1)[-1]
    return proc, base


def _post(base: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    data = json.dumps(body).encode() if body is not None else b""
    request = urllib.request.Request(base + path, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
class TestServedProcessCrash:
    def test_sigkilled_service_recovers_on_restart(self, tmp_path):
        state = tmp_path / "state"
        proc, base = _start_serve(state)
        try:
            status, run = _post(base, "/runs", _service_spec().to_dict())
            assert status == 202, run
            run_id = run["run_id"]
            journal = state / "journal.jsonl"
            deadline = time.monotonic() + _WAIT
            while time.monotonic() < deadline:
                types = [e.get("type") for e in read_jsonl_tolerant(journal)]
                if "checkpointed" in types:
                    break
                time.sleep(0.005)
            else:  # pragma: no cover - diagnostic
                pytest.fail("served run never checkpointed")
            proc.kill()  # SIGKILL: no handlers, no flushes, no goodbyes
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
        # Restart on the same state dir: the accepted run is either
        # resumed to completion or reported interrupted — never lost.
        with ScenarioService(max_runs=1, state_dir=state) as service:
            recovered = service.metrics()["durability"]["recovered"]
            assert recovered["resumed"] + recovered["interrupted"] == 1
            record = service.wait(run_id, timeout=_WAIT)
            assert record.status in (COMPLETED, INTERRUPTED)
            if record.status == COMPLETED:
                assert record.resumed_from is not None

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        state = tmp_path / "state"
        proc, base = _start_serve(state, "--drain-grace", "30")
        try:
            status, run = _post(
                base, "/runs", {"spec": _spec().to_dict(), "wait": True}
            )
            assert status == 200 and run["status"] == "completed", run
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
        types = [e.get("type") for e in read_jsonl_tolerant(state / "journal.jsonl")]
        assert types[-1] == "clean_shutdown"


# ----------------------------------------------------------------------
# cross-process oracle-cache locking
# ----------------------------------------------------------------------
_CH_CHILD = """
import json, sys
from repro.network.generators import grid_city
from repro.network.oracle import create_oracle
from repro.resilience import FaultInjector, install_injector

# Stretch the contraction so concurrent starters genuinely overlap.
install_injector(FaultInjector({"oracle.ch.build": {"latency_seconds": 0.5}}))
network = grid_city(rows=6, cols=6, edge_travel_time=60.0, jitter=0.0, seed=0)
oracle = create_oracle("ch", network.graph, cache_dir=sys.argv[1])
print(json.dumps({
    "hit": bool(getattr(oracle, "cache_hit", False)),
    "distance": oracle.travel_time(0, 35),
}))
"""


class TestCacheLocking:
    def test_two_processes_build_the_hierarchy_exactly_once(self, tmp_path):
        cache = tmp_path / "oracle-cache"
        cache.mkdir()
        env = dict(os.environ, PYTHONPATH=_REPO_SRC)
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _CH_CHILD, str(cache)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = []
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            outputs.append(json.loads(out.strip().splitlines()[-1]))
        # Exactly one process contracted; the other warm-loaded the
        # winner's save (under the lock) — and both answer identically.
        assert sorted(o["hit"] for o in outputs) == [False, True]
        assert outputs[0]["distance"] == outputs[1]["distance"]
        cache_files = list(cache.glob("ch-*.json"))
        assert len(cache_files) == 1
        mtime = cache_files[0].stat().st_mtime_ns
        # A third, warm process: pure lock-free read path, no rewrite.
        third = subprocess.run(
            [sys.executable, "-c", _CH_CHILD, str(cache)],
            capture_output=True,
            env=env,
            text=True,
            timeout=120,
        )
        assert third.returncode == 0, third.stderr
        assert json.loads(third.stdout.strip().splitlines()[-1])["hit"] is True
        assert cache_files[0].stat().st_mtime_ns == mtime

    def test_lock_excludes_a_second_handle_until_released(self, tmp_path):
        path = tmp_path / "build.lock"
        first = InterProcessLock(path)
        first.acquire()
        try:
            second = InterProcessLock(path, timeout=0.2)
            with pytest.raises(LockTimeout):
                second.acquire()
        finally:
            first.release()
        with InterProcessLock(path, timeout=1.0) as lock:
            assert lock.held


# ----------------------------------------------------------------------
# JSONL sink durability (satellite)
# ----------------------------------------------------------------------
class TestJsonlSinkDurability:
    def test_events_are_durable_before_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, context={"run_id": "run-1"})
        sink.on_periodic_check(10.0)
        sink.on_periodic_check(20.0)
        # Read back while the sink still holds the handle: every event
        # must already be flushed (and fsynced) to the file.
        events = read_trace(path)
        assert [e["now"] for e in events] == [10.0, 20.0]
        assert all(e["run_id"] == "run-1" for e in events)
        sink.close()

    def test_read_trace_tolerates_a_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.on_periodic_check(10.0)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "periodic_check", "now"')  # torn mid-write
        events = read_trace(path)
        assert len(events) == 1
        assert events[0]["now"] == 10.0


# ----------------------------------------------------------------------
# CLI checkpoint/resume flags
# ----------------------------------------------------------------------
class TestCliDurability:
    def test_run_checkpoint_dir_then_resume(self, tmp_path, capsys):
        from repro.cli import main

        spec = _spec()
        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        ckpt_dir = tmp_path / "ckpts"
        code = main(
            [
                "run",
                "--spec",
                str(spec_file),
                "--checkpoint-dir",
                str(ckpt_dir),
                "--checkpoint-interval",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "checkpoint(s) written" in output
        ckpt = ckpt_dir / f"{spec.algorithm}.ckpt"
        assert ckpt.exists()
        # The completed run's checkpoint resumes to the same final
        # metrics (a completed cursor simply replays the drain tail).
        code = main(
            ["run", "--spec", str(spec_file), "--resume", str(ckpt)]
        )
        assert code == 0
        assert f"resumed from {ckpt}" in capsys.readouterr().out

    def test_run_refuses_multi_algorithm_checkpointing(self, tmp_path):
        from repro.cli import main

        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps(_spec().to_dict()))
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "--spec",
                    str(spec_file),
                    "--checkpoint-dir",
                    str(tmp_path / "ckpts"),
                    "--algorithms",
                    "GDP",
                    "WATTER-online",
                ]
            )
