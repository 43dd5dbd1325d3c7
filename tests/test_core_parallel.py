"""Tests for the hardened ResultCache and the parallel SweepRunner.

The headline property: a parallel sweep and a serial sweep produce
byte-identical ``ExperimentResult.to_dict()`` payloads for every cell,
which is what makes the cache atomicity/corruption fixes load-bearing.
"""

import json
import multiprocessing
import os

import pytest

from repro.core.experiment import (
    DEFAULT_CACHE,
    ExperimentConfig,
    ExperimentResult,
    ResultCache,
    run_experiment,
)
from repro.core.metrics import run_size_sweep
from repro.core.parallel import SweepRunner, default_jobs
from repro.runstore import RunStore
from repro.runstore.journal import RunJournal
from repro.runstore.store import JOURNAL_NAME


def _tiny(**overrides):
    """A seconds-scale configuration for parallelism tests."""
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


def _canon(result):
    return json.dumps(result.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Hardened cache: lazy env, atomic put, corrupt-entry-as-miss
# ---------------------------------------------------------------------------


class TestCacheHardening:
    def test_env_dir_resolved_lazily(self, tmp_path, monkeypatch):
        cache = ResultCache()  # constructed before the env is set
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert cache.directory == str(tmp_path)
        assert DEFAULT_CACHE.directory == str(tmp_path)
        monkeypatch.delenv("REPRO_RESULTS_DIR")
        assert cache.directory == ".repro-results"

    def test_explicit_dir_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", "/nonexistent")
        cache = ResultCache(directory=str(tmp_path))
        assert cache.directory == str(tmp_path)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cfg = _tiny()
        bad = cache._path(cfg)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(bad, "w") as fh:
            fh.write('{"config": {"direction": "tx", trunca')  # torn write
        assert cache.get(cfg) is None
        assert not os.path.exists(bad)

    def test_corrupt_entry_recovered_transparently(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cfg = _tiny()
        result = run_experiment(cfg, cache=cache)
        # Corrupt the on-disk entry behind a fresh cache's back.
        with open(cache._path(cfg), "w") as fh:
            fh.write("not json at all")
        fresh = ResultCache(directory=str(tmp_path))
        recovered = run_experiment(cfg, cache=fresh)
        assert _canon(recovered) == _canon(result)
        # And the re-run repaired the disk entry.
        with open(cache._path(cfg)) as fh:
            assert json.load(fh)["config"]["direction"] == "tx"

    def test_failed_put_leaves_no_partial_files(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cfg = _tiny()
        unserializable = ExperimentResult.from_dict(
            {"config": cfg.to_dict(), "oops": object()}
        )
        with pytest.raises(TypeError):
            cache.put(cfg, unserializable)
        assert os.listdir(str(tmp_path)) == []

    def test_clear_sweeps_stale_tempfiles(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cfg = _tiny()
        result = run_experiment(cfg, cache=cache)
        assert result is not None
        stale = os.path.join(str(tmp_path), ".put-stale.part")
        with open(stale, "w") as fh:
            fh.write("{}")
        cache.clear()
        assert os.listdir(str(tmp_path)) == []


# ---------------------------------------------------------------------------
# Concurrent writers
# ---------------------------------------------------------------------------


def _hammer_put(directory, payload_blob, n_puts):
    """Worker: repeatedly put one entry into a shared directory."""
    payload = json.loads(payload_blob)
    cache = ResultCache(directory=directory)
    cfg = ExperimentConfig(**payload["config"])
    result = ExperimentResult.from_dict(payload)
    for _ in range(n_puts):
        cache.put(cfg, result)


class TestConcurrentPut:
    def test_many_processes_one_directory(self, tmp_path):
        cfg = _tiny()
        result = run_experiment(cfg)
        blob = _canon(result)
        procs = [
            multiprocessing.Process(
                target=_hammer_put, args=(str(tmp_path), blob, 25)
            )
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        # Exactly the one entry, fully-formed JSON, no temp debris.
        names = os.listdir(str(tmp_path))
        assert names == [os.path.basename(ResultCache(
            directory=str(tmp_path))._path(cfg))]
        fresh = ResultCache(directory=str(tmp_path))
        assert _canon(fresh.get(cfg)) == blob


# ---------------------------------------------------------------------------
# SweepRunner: parallel == serial, dedup, cache write-through
# ---------------------------------------------------------------------------


class TestSweepRunner:
    def _grid(self):
        return [
            _tiny(message_size=size, affinity=mode)
            for size in (128, 1024)
            for mode in ("none", "full")
        ]

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        configs = self._grid()
        serial = [run_experiment(c) for c in configs]
        runner = SweepRunner(
            jobs=2, cache=ResultCache(directory=str(tmp_path))
        )
        parallel = runner.run(configs)
        for s, p in zip(serial, parallel):
            assert _canon(s) == _canon(p)

    def test_serial_fallback_matches_too(self, tmp_path):
        configs = self._grid()[:2]
        expected = [run_experiment(c) for c in configs]
        runner = SweepRunner(
            jobs=1, cache=ResultCache(directory=str(tmp_path))
        )
        got = runner.run(configs)
        for e, g in zip(expected, got):
            assert _canon(e) == _canon(g)

    def test_duplicate_configs_simulated_once(self, tmp_path):
        cfg = _tiny()
        messages = []
        runner = SweepRunner(
            jobs=2,
            cache=ResultCache(directory=str(tmp_path)),
            progress=messages.append,
        )
        results = runner.run([cfg, _tiny(), cfg])
        assert len(results) == 3
        assert _canon(results[0]) == _canon(results[1]) == _canon(results[2])
        assert sum(1 for m in messages if m.startswith("running")) == 1
        assert len(os.listdir(str(tmp_path))) == 1

    def test_cache_hits_skip_the_pool(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cfg = _tiny()
        seeded = run_experiment(cfg, cache=cache)
        messages = []
        runner = SweepRunner(jobs=2, cache=cache, progress=messages.append)
        (hit,) = runner.run([cfg])
        assert _canon(hit) == _canon(seeded)
        assert any(m.startswith("cached") for m in messages)
        assert not any(m.startswith("running") for m in messages)

    def test_run_size_sweep_parallel_equals_serial(self, tmp_path):
        kw = dict(
            sizes=(1024,),
            modes=("none", "full"),
            n_connections=2,
            warmup_ms=1,
            measure_ms=2,
        )
        serial = run_size_sweep("tx", **kw)
        parallel = run_size_sweep(
            "tx",
            runner=SweepRunner(
                jobs=2, cache=ResultCache(directory=str(tmp_path))
            ),
            **kw
        )
        assert serial.keys() == parallel.keys()
        for cell in serial:
            assert _canon(serial[cell]) == _canon(parallel[cell])


# ---------------------------------------------------------------------------
# Single writer: the parent journals, then caches, each cell exactly once
# ---------------------------------------------------------------------------


class TestPersistenceOrder:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_journal_before_cache_once_per_key(self, tmp_path, monkeypatch,
                                               jobs):
        store = RunStore.create("sweep", root=str(tmp_path / "runs"))
        journal_path = os.path.join(store.directory, JOURNAL_NAME)
        put_log = str(tmp_path / "puts.log")
        put = ResultCache.put

        def logged_put(cache, config, result):
            # A file, not a list: forked workers inherit this wrapper,
            # and their calls must be visible to the parent too.
            journaled = config.key() in RunJournal.load(journal_path).cells
            with open(put_log, "a") as fh:
                fh.write("%s %d\n" % (config.key(), journaled))
            put(cache, config, result)

        monkeypatch.setattr(ResultCache, "put", logged_put)
        runner = SweepRunner(
            jobs=jobs, cache=ResultCache(str(tmp_path / "cache")),
            journal=store,
        )
        sweep = run_size_sweep(
            "tx", sizes=(1024,), modes=("none", "full"), runner=runner,
            n_connections=2, warmup_ms=1, measure_ms=2, seed=3,
        )
        store.finalize("completed")
        assert all(r is not None for r in sweep.values())
        keys = sorted(
            _tiny(message_size=size, affinity=mode).key()
            for size, mode in sweep
        )
        with open(put_log) as fh:
            puts = [line.split() for line in fh]
        # Every put saw its key already journaled on disk...
        assert all(journaled == "1" for _, journaled in puts), puts
        # ...and each key was cached exactly once.
        assert sorted(key for key, _ in puts) == keys


# ---------------------------------------------------------------------------
# Fault tolerance: failing/hanging cells don't sink the sweep
# ---------------------------------------------------------------------------


def _bad():
    """A cell that raises inside run_experiment (worker-safe)."""
    return _tiny(message_size=2048,
                 cost_overrides={"no_such_cost": 1})


class TestSweepFaultTolerance:
    def test_raising_cell_keeps_other_results(self, tmp_path):
        runner = SweepRunner(
            jobs=2, cache=ResultCache(directory=str(tmp_path)), retries=0
        )
        good, bad = _tiny(), _bad()
        results = runner.run([good, bad])
        assert results[0] is not None
        assert results[1] is None
        assert not runner.report.ok
        (failure,) = runner.report.failures
        assert failure.kind == "error"
        assert "no_such_cost" in failure.error
        assert failure.label in runner.report.summary()

    def test_retries_then_quarantine_serial(self, tmp_path):
        messages = []
        runner = SweepRunner(
            jobs=1, cache=ResultCache(directory=str(tmp_path)),
            progress=messages.append, retries=2,
        )
        (result,) = runner.run([_bad()])
        assert result is None
        # one initial attempt + two same-seed retries
        assert sum(1 for m in messages if m.startswith("running")) == 3
        assert runner.report.failures[0].attempts == 3
        # a later run on the same runner skips the quarantined cell
        messages.clear()
        (again,) = runner.run([_bad()])
        assert again is None
        assert not any(m.startswith("running") for m in messages)
        assert any(m.startswith("quarantined") for m in messages)
        assert not runner.report.ok

    def test_watchdog_times_out_hung_cell(self, tmp_path):
        hog = _tiny(message_size=128, n_connections=8, measure_ms=10_000)
        runner = SweepRunner(
            jobs=1, cache=ResultCache(directory=str(tmp_path)),
            timeout=0.5, retries=0,
        )
        (result,) = runner.run([hog])
        assert result is None
        (failure,) = runner.report.failures
        assert failure.kind == "timeout"

    def test_parallel_watchdog_keeps_fast_cells(self, tmp_path):
        hog = _tiny(message_size=128, n_connections=8, measure_ms=10_000)
        fast = _tiny()
        runner = SweepRunner(
            jobs=2, cache=ResultCache(directory=str(tmp_path)),
            timeout=1.0, retries=0,
        )
        results = runner.run([fast, hog])
        assert results[0] is not None
        assert results[1] is None
        assert runner.report.failures[0].kind == "timeout"

    def test_failed_cells_render_as_fail(self):
        from repro.core.report import render_figure3, render_figure4

        good = run_experiment(_tiny())
        sweep = {(1024, "none"): good, (1024, "full"): None}
        fig3 = render_figure3(sweep, (1024,), ("none", "full"), "tx")
        fig4 = render_figure4(sweep, (1024,), ("none", "full"), "tx")
        assert "FAIL" in fig3 and "--" in fig3
        assert "FAIL" in fig4


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_garbage_env_warns_then_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='lots'"):
            assert default_jobs() == (os.cpu_count() or 1)
