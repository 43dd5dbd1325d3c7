"""Unit tests for the run store: journal, locks, store, index, CLI.

The crash/resume *integration* path (SIGKILL a live study subprocess,
resume, byte-compare reports) lives in ``test_crash_resume.py``; here
each crash-safety mechanism is exercised in isolation.
"""

import errno
import json
import multiprocessing
import os
import signal
import socket
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.experiment import (
    ExperimentConfig,
    ResultCache,
    run_experiment,
)
from repro.core.parallel import SweepRunner, _terminate_workers
from repro.diagnose.saturation import SaturationSearch
from repro.runstore import (
    GracefulShutdown,
    LockHeldError,
    PidfileLock,
    RunJournal,
    RunStore,
    RunStoreError,
    ShutdownRequested,
    effective_status,
    query_cells,
    rebuild_index,
)
from repro.runstore.journal import decode_line, encode_record
from repro.runstore.store import list_runs

_RESULT = None


def _tiny_config(**overrides):
    base = dict(
        direction="tx",
        message_size=1024,
        affinity="none",
        n_connections=2,
        warmup_ms=1,
        measure_ms=2,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _tiny_result():
    """One shared seconds-scale result for store/journal tests."""
    global _RESULT
    if _RESULT is None:
        _RESULT = run_experiment(_tiny_config())
    return _RESULT


# ---------------------------------------------------------------------------
# Journal: checksummed append, replay, corrupt-tail recovery
# ---------------------------------------------------------------------------


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.open(path)
        journal.append({"type": "cell", "key": "k1", "label": "a",
                        "payload": {"x": 1}})
        # A record of another type (an older journal's diagnosis wave
        # checkpoint) round-trips too, and is not a cell.
        journal.append({"type": "wave", "wave": 1, "states": {}})
        journal.close()
        replayed = RunJournal.load(path)
        assert replayed.n_cells == 1
        assert replayed.cell_payload("k1") == {"x": 1}
        assert [r["type"] for r in replayed.records] == ["cell", "wave"]
        assert replayed.truncated_bytes == 0

    def test_decode_rejects_torn_and_garbled_lines(self):
        line = encode_record({"type": "cell", "key": "k"})
        raw = line.encode("utf-8")
        assert decode_line(raw) == {"type": "cell", "key": "k"}
        assert decode_line(raw[:-5]) is None  # no trailing newline
        assert decode_line(b"deadbeef0000 {\"broken\n") is None
        corrupt = bytearray(raw)
        corrupt[3] = ord("0") if corrupt[3] != ord("0") else ord("1")
        assert decode_line(bytes(corrupt)) is None
        assert decode_line(b"\xff\xfe garbage\n") is None

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.open(path)
        journal.append({"type": "cell", "key": "k1", "payload": 1})
        journal.append({"type": "cell", "key": "k2", "payload": 2})
        journal.close()
        good_size = os.path.getsize(path)
        with open(path, "ab") as fh:  # a SIGKILL mid-append
            fh.write(b"0123456789ab {\"type\": \"cell\", \"key")
        with pytest.warns(RuntimeWarning, match="corrupt trailing"):
            recovered = RunJournal.open(path)
        recovered.close()
        assert len(recovered.records) == 2
        assert os.path.getsize(path) == good_size

    def test_mid_file_corruption_drops_suffix(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.open(path)
        journal.append({"type": "cell", "key": "k1", "payload": 1})
        journal.close()
        with open(path, "ab") as fh:
            fh.write(b"not a record\n")
            fh.write(encode_record(
                {"type": "cell", "key": "k2", "payload": 2}
            ).encode("utf-8"))
        with pytest.warns(RuntimeWarning):
            recovered = RunJournal.open(path)
        recovered.close()
        # Records after a torn region cannot be trusted: replay stops
        # at the last good prefix.
        assert [r["key"] for r in recovered.records] == ["k1"]

    def test_enospc_degrades_to_memory_only(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal.open(path)

        class FullDisk:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def flush(self):
                pass

            def fileno(self):
                return -1

            def close(self):
                pass

        journal._fh = FullDisk()
        with pytest.warns(RuntimeWarning, match="no longer be resumed"):
            journal.append({"type": "cell", "key": "k1", "payload": 1})
        assert journal.degraded
        # Second append: silent (warn once), memory still ingests.
        journal.append({"type": "cell", "key": "k2", "payload": 2})
        assert journal.n_cells == 2
        journal.close()


# ---------------------------------------------------------------------------
# Pidfile lock: exclusion, stale reclamation, cross-host refusal
# ---------------------------------------------------------------------------


def _exit_immediately():
    pass


class TestPidfileLock:
    def test_acquire_release(self, tmp_path):
        path = str(tmp_path / "lock.pid")
        lock = PidfileLock(path)
        lock.acquire()
        pid, host = lock._read()
        assert pid == os.getpid()
        assert host == socket.gethostname()
        lock.release()
        assert not os.path.exists(path)

    def test_reentrant_same_pid(self, tmp_path):
        path = str(tmp_path / "lock.pid")
        PidfileLock(path).acquire()
        second = PidfileLock(path)
        second.acquire()  # our own pid: no error
        assert second.owned

    def test_live_pid_refused(self, tmp_path):
        path = str(tmp_path / "lock.pid")
        # pid 1 is always alive (os.kill(1, 0) -> EPERM counts as
        # alive); same hostname so the liveness probe applies.
        with open(path, "w") as fh:
            fh.write("1 %s\n" % socket.gethostname())
        with pytest.raises(LockHeldError, match="live pid 1"):
            PidfileLock(path).acquire()

    def test_stale_lock_reclaimed(self, tmp_path):
        proc = multiprocessing.Process(target=_exit_immediately)
        proc.start()
        proc.join()
        dead_pid = proc.pid
        path = str(tmp_path / "lock.pid")
        with open(path, "w") as fh:
            fh.write("%d %s\n" % (dead_pid, socket.gethostname()))
        with pytest.warns(RuntimeWarning, match="stale"):
            lock = PidfileLock(path).acquire()
        assert lock.owned
        pid, _ = lock._read()
        assert pid == os.getpid()

    def test_cross_host_never_reclaimed(self, tmp_path):
        path = str(tmp_path / "lock.pid")
        with open(path, "w") as fh:
            fh.write("99999999 some-other-host\n")
        with pytest.raises(LockHeldError, match="cross-host"):
            PidfileLock(path).acquire()

    def test_torn_lock_reclaimed(self, tmp_path):
        path = str(tmp_path / "lock.pid")
        with open(path, "w") as fh:
            fh.write("not-a-pid")
        with pytest.warns(RuntimeWarning):
            assert PidfileLock(path).acquire().owned


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_sigterm_raises_shutdown_requested(self):
        with pytest.raises(ShutdownRequested) as exc_info:
            with GracefulShutdown():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # never reached: the handler raises
        assert exc_info.value.signum == signal.SIGTERM
        assert exc_info.value.name == "SIGTERM"

    def test_is_base_exception(self):
        # The sweep's per-cell `except Exception` fault tolerance must
        # not swallow a shutdown.
        assert not issubclass(ShutdownRequested, Exception)

    def test_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


# ---------------------------------------------------------------------------
# RunStore: manifest lifecycle, counters, artifacts, ENOSPC
# ---------------------------------------------------------------------------


class TestRunStore:
    def test_create_record_resume_replay(self, tmp_path):
        root = str(tmp_path)
        config = _tiny_config()
        result = _tiny_result()
        store = RunStore.create("sweep", args={"seed": 3}, root=root,
                                run_id="r1")
        assert store.lookup_cell(config) is None
        store.record_cell(config, result)
        assert store.executed == 1
        store.finalize("interrupted")

        resumed = RunStore.resume("r1", root=root)
        hit = resumed.lookup_cell(config)
        assert hit is not None
        assert resumed.replayed == 1
        assert hit.to_dict() == result.to_dict()  # bit-identical payload
        assert len(resumed.manifest["sessions"]) == 2
        resumed.finalize("completed")
        manifest = json.load(
            open(os.path.join(root, "r1", "manifest.json"))
        )
        assert manifest["status"] == "completed"
        assert manifest["sessions"][-1]["replayed"] == 1

    def test_explicit_run_id_collision(self, tmp_path):
        root = str(tmp_path)
        RunStore.create("sweep", root=root, run_id="dup").finalize(
            "completed")
        with pytest.raises(RunStoreError, match="already exists"):
            RunStore.create("sweep", root=root, run_id="dup")

    def test_concurrent_create_refused_by_lock(self, tmp_path):
        root = str(tmp_path)
        store = RunStore.create("sweep", root=root, run_id="live")
        # Simulate a second *process*: rewrite the pidfile with a live
        # foreign pid, then try to resume.
        with open(store.lock.path, "w") as fh:
            fh.write("1 %s\n" % socket.gethostname())
        with pytest.raises(LockHeldError):
            RunStore.resume("live", root=root)

    def test_effective_status_crashed(self, tmp_path):
        root = str(tmp_path)
        store = RunStore.create("sweep", root=root, run_id="dead")
        directory = store.directory
        # Simulate SIGKILL: lock left behind with a dead pid.
        proc = multiprocessing.Process(target=_exit_immediately)
        proc.start()
        proc.join()
        with open(store.lock.path, "w") as fh:
            fh.write("%d %s\n" % (proc.pid, socket.gethostname()))
        manifest = json.load(
            open(os.path.join(directory, "manifest.json"))
        )
        assert manifest["status"] == "running"
        assert effective_status(directory, manifest) == "crashed"

    def test_parent_wave_records_still_resume(self, tmp_path, capsys):
        # Diagnosis journals written before the wave checkpoint was
        # dropped hold a ``wave`` record after each bisection wave.
        # They must still open, resume (replaying every journaled cell
        # into a byte-identical report), index, list and show.
        from repro.cli import main
        from repro.diagnose import run_diagnosis

        root = str(tmp_path)
        params = dict(directions=("tx",), modes=("none",),
                      knobs=("copy-engine",), steps=1,
                      message_size=1024, n_connections=2, warmup_ms=1,
                      measure_ms=2, seed=3)
        fresh = RunStore.create("diagnose", root=root, run_id="fresh")
        want = run_diagnosis(runner=SweepRunner(jobs=1, journal=fresh),
                             **params)
        fresh.finalize("completed")
        cells = list(fresh.journal.records)
        assert len(cells) == 3  # ceiling, one bisection probe, one knob

        old = RunStore.create("diagnose", root=root, run_id="old")
        for wave, record in enumerate(cells[:2], start=1):
            old.journal.append(record)
            old.journal.append({
                "type": "wave",
                "wave": wave,
                "states": {"tx/none": {
                    "phase": "bisect" if wave == 1 else "done",
                    "closed_loop": cells[0]["payload"],
                }},
            })
        old.finalize("interrupted")

        resumed = RunStore.resume("old", root=root)
        got = run_diagnosis(runner=SweepRunner(jobs=1, journal=resumed),
                            **params)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            want, sort_keys=True)
        assert (resumed.replayed, resumed.executed) == (2, 1)
        resumed.finalize("completed")
        kinds = [r["type"] for r in RunJournal.load(
            os.path.join(resumed.directory, "journal.jsonl")).records]
        assert kinds == ["cell", "wave", "cell", "wave", "cell"]

        assert rebuild_index(root) == (2, 6)
        assert len(query_cells(root=root, mode="none")) == 6
        assert main(["runs", "--root", root, "list"]) == 0
        assert main(["runs", "--root", root, "show", "old"]) == 0
        out = capsys.readouterr().out
        assert "3 cell(s), 5 record(s)" in out

    def test_artifact_enospc_warns_and_continues(self, tmp_path,
                                                 monkeypatch):
        store = RunStore.create("sweep", root=str(tmp_path), run_id="a")

        def full_disk(path, text, durable=True):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.runstore.store.atomic_write_text",
                            full_disk)
        with pytest.warns(RuntimeWarning, match="continuing degraded"):
            store.write_artifact("report.txt", "hello")
        # Still finalizes cleanly (manifest path is unaffected).
        monkeypatch.undo()
        store.finalize("completed")
        assert store.status == "completed"


# ---------------------------------------------------------------------------
# ResultCache.put degrades on disk errors (satellite)
# ---------------------------------------------------------------------------


class TestCachePutDegradation:
    def test_mkstemp_failure_keeps_memory_entry(self, tmp_path,
                                                monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"))
        config = _tiny_config()
        result = _tiny_result()

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.core.experiment.tempfile.mkstemp",
                            full_disk)
        with pytest.warns(RuntimeWarning, match="in-memory caching"):
            cache.put(config, result)
        assert cache.get(config) is result  # memory layer survived
        # Warn-once: a second failing put is silent.
        import warnings as warnings_mod
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            cache.put(config, result)

    def test_write_failure_removes_tempfile(self, tmp_path,
                                            monkeypatch):
        directory = tmp_path / "cache"
        cache = ResultCache(str(directory))

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.core.experiment.os.replace",
                            full_disk)
        with pytest.warns(RuntimeWarning):
            cache.put(_tiny_config(), _tiny_result())
        assert not any(
            name.endswith(".part") for name in os.listdir(directory)
        )


# ---------------------------------------------------------------------------
# SweepRunner integration: journal replay and worker reaping
# ---------------------------------------------------------------------------


def _sleep_forever():
    time.sleep(600)


class TestRunnerJournal:
    def test_journal_hit_skips_execution(self, tmp_path, monkeypatch):
        root = str(tmp_path)
        config = _tiny_config()
        store = RunStore.create("sweep", root=root, run_id="j")
        runner = SweepRunner(jobs=1, journal=store)
        first = runner.run([config])[0]
        assert store.executed == 1
        store.finalize("interrupted")

        resumed = RunStore.resume("j", root=root)

        def boom(*args, **kwargs):
            raise AssertionError("journaled cell was re-executed")

        monkeypatch.setattr("repro.core.parallel.run_experiment", boom)
        runner2 = SweepRunner(jobs=1, journal=resumed)
        second = runner2.run([config])[0]
        assert second.to_dict() == first.to_dict()
        assert resumed.replayed == 1
        assert resumed.executed == 0
        resumed.finalize("completed")

    def test_terminate_workers_reaps_pids(self):
        executor = ProcessPoolExecutor(max_workers=2)
        executor.submit(_sleep_forever)
        executor.submit(_sleep_forever)
        # Let both workers spawn.
        deadline = time.monotonic() + 10
        while (len(executor._processes) < 2
               and time.monotonic() < deadline):
            time.sleep(0.05)
        pids = [p.pid for p in executor._processes.values()]
        # _terminate_workers owns the shutdown: it must snapshot the
        # worker list before shutdown() drops executor._processes.
        reaped = _terminate_workers(executor)
        assert set(reaped) == set(pids)
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # no leaked live processes


# ---------------------------------------------------------------------------
# SaturationSearch checkpointing
# ---------------------------------------------------------------------------


class TestSearchState:
    def test_state_roundtrip(self, tmp_path):
        # A search's state is never persisted: resume rebuilds it by
        # replaying the journaled probe cells, and the rebuilt search
        # must match the original and continue identically.
        root = str(tmp_path)
        store = RunStore.create("diagnose", root=root, run_id="s")
        search = SaturationSearch(_tiny_config(), steps=2)
        runner = SweepRunner(jobs=1, journal=store)
        for _ in range(2):  # ceiling probe, first bisection probe
            (result,) = runner.run([search.next_config()])
            search.observe(result)
        store.finalize("interrupted")

        resumed = RunStore.resume("s", root=root)
        clone = SaturationSearch(_tiny_config(), steps=2)
        runner = SweepRunner(jobs=1, journal=resumed)
        for _ in range(2):
            (result,) = runner.run([clone.next_config()])
            clone.observe(result)
        assert (resumed.replayed, resumed.executed) == (2, 0)
        resumed.finalize("completed")
        assert clone.phase == search.phase == "bisect"
        assert clone.probes == search.probes
        assert clone._lo == search._lo and clone._hi == search._hi
        assert clone.summary() == search.summary()
        assert (clone.next_config().to_dict()
                == search.next_config().to_dict())


# ---------------------------------------------------------------------------
# Index + runs CLI (list/show/query/gc) on synthetic runs
# ---------------------------------------------------------------------------


def _make_run(root, run_id, status="completed"):
    store = RunStore.create("scale", args={"seed": 7}, root=root,
                            run_id=run_id)
    store.record_cell(_tiny_config(), _tiny_result())
    store.write_artifact("report.txt", "report for %s\n" % run_id)
    store.finalize(status)
    return store


class TestIndexAndCli:
    def test_rebuild_and_query(self, tmp_path):
        root = str(tmp_path)
        _make_run(root, "r1")
        _make_run(root, "r2", status="incomplete")
        n_runs, n_cells = rebuild_index(root)
        assert (n_runs, n_cells) == (2, 2)
        rows = query_cells(root=root, mode="none", size=1024)
        assert {row["run_id"] for row in rows} == {"r1", "r2"}
        assert all(row["throughput_gbps"] > 0 for row in rows)
        assert query_cells(root=root, mode="rss") == []
        only_done = query_cells(root=root, status="completed")
        assert {row["run_id"] for row in only_done} == {"r1"}

    def test_runs_cli_list_show_query(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path)
        _make_run(root, "r1")
        assert main(["runs", "--root", root, "list"]) == 0
        out = capsys.readouterr().out
        assert "r1" in out and "completed" in out
        assert main(["runs", "--root", root, "show", "r1"]) == 0
        out = capsys.readouterr().out
        assert "report.txt" in out
        assert main(["runs", "--root", root, "query",
                     "--mode", "none"]) == 0
        assert "r1" in capsys.readouterr().out
        assert main(["runs", "--root", root, "show", "nope"]) == 2

    def test_runs_gc_keeps_newest(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path)
        for i in range(3):
            _make_run(root, "r%d" % i)
            time.sleep(0.02)  # distinct created stamps for ordering
        assert main(["runs", "--root", root, "gc", "--keep", "1"]) == 0
        kept = [run_id for run_id, _, _ in list_runs(root)]
        assert kept == ["r2"]

    def test_query_sql_rejects_non_select(self, tmp_path):
        from repro.runstore.index import query_sql

        root = str(tmp_path)
        _make_run(root, "r1")
        rebuild_index(root)
        with pytest.raises(ValueError):
            query_sql("DELETE FROM runs", root=root)
        rows = query_sql("SELECT run_id FROM runs", root=root)
        assert rows == [{"run_id": "r1"}]
