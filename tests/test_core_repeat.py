"""Tests for multi-seed replication."""

import pytest

from repro.core.experiment import ExperimentConfig
from repro.core.parallel import SweepRunner
from repro.core.repeat import Summary, gain_statistics, replicate


class TestSummary:
    def test_single_value(self):
        s = Summary([4.0])
        assert s.mean == 4.0 and s.stdev == 0.0

    def test_statistics(self):
        s = Summary([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.stdev == pytest.approx(1.0)
        assert (s.minimum, s.maximum) == (1.0, 3.0)
        assert s.cv == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Summary([])


SMALL = dict(n_connections=4, warmup_ms=6, measure_ms=8)


class TestReplicate:
    def test_throughput_stable_across_seeds(self):
        config = ExperimentConfig(direction="tx", message_size=16384,
                                  affinity="full", **SMALL)
        summary = replicate(config, seeds=(3, 9))
        assert summary.mean > 0.2
        # Seed noise should be modest in a steady-state window.
        assert summary.cv < 0.2

    def test_metric_selection(self):
        config = ExperimentConfig(direction="tx", message_size=16384,
                                  affinity="full", **SMALL)
        summary = replicate(config, seeds=(3,), metric="cost_ghz_per_gbps")
        assert summary.mean > 0.3


class TestGainStatistics:
    def test_affinity_gain_positive_for_every_seed(self):
        summary = gain_statistics(
            "tx", 65536, "full", seeds=(3, 9), **SMALL
        )
        assert summary.minimum > 0.0
        assert summary.mean > 0.03


class _FakeResult:
    def __init__(self, config):
        # Deterministic per-cell metric so gains are checkable: the
        # affinity modes get distinct throughputs per seed.
        bump = {"none": 0.0, "full": 1.0}.get(config.affinity, 0.5)
        self.throughput_gbps = 1.0 + 0.1 * config.seed + bump
        self.cost_ghz_per_gbps = 1.0


class TestDuplicateSeedDedupe:
    """Regression: duplicated (seed, affinity) cells used to collapse in
    ``dict(zip(pairs, results))`` while the Summary still counted the
    duplicated seeds twice."""

    @pytest.fixture
    def fake_runs(self, monkeypatch):
        calls = []

        def fake_run_experiment(config, cache=None, progress=None):
            calls.append((config.seed, config.affinity))
            return _FakeResult(config)

        monkeypatch.setattr(
            "repro.core.parallel.run_experiment", fake_run_experiment
        )
        return calls

    def test_replicate_collapses_duplicate_seeds(self, fake_runs):
        config = ExperimentConfig(direction="tx", message_size=1024,
                                  affinity="full", **SMALL)
        with pytest.warns(RuntimeWarning, match="duplicate sweep cells"):
            summary = replicate(config, seeds=(3, 3, 5))
        # The duplicate seed is neither re-run nor double-counted.
        assert len(fake_runs) == 2
        assert len(summary.values) == 2

    def test_replicate_unique_seeds_do_not_warn(self, fake_runs, recwarn):
        config = ExperimentConfig(direction="tx", message_size=1024,
                                  affinity="full", **SMALL)
        summary = replicate(config, seeds=(3, 5))
        assert len(summary.values) == 2
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]

    def test_gain_statistics_collapses_duplicate_seeds(self, fake_runs):
        with pytest.warns(RuntimeWarning, match="duplicate sweep cells"):
            summary = gain_statistics(
                "tx", 1024, "full", seeds=(3, 3, 9), **SMALL
            )
        # 2 unique seeds x 2 modes, each run exactly once.
        assert len(fake_runs) == 4
        assert len(summary.values) == 2
        expected = [
            _FakeResult(ExperimentConfig(
                direction="tx", message_size=1024, affinity="full",
                seed=s, **SMALL)).throughput_gbps
            / _FakeResult(ExperimentConfig(
                direction="tx", message_size=1024, affinity="none",
                seed=s, **SMALL)).throughput_gbps
            - 1.0
            for s in (3, 9)
        ]
        assert summary.values == pytest.approx(expected)

    def test_gain_statistics_mode_equal_to_baseline(self, fake_runs):
        # mode == baseline duplicates every pair; the gain is honestly
        # zero and each cell still runs only once.
        with pytest.warns(RuntimeWarning, match="duplicate sweep cells"):
            summary = gain_statistics(
                "tx", 1024, "none", baseline="none", seeds=(3,), **SMALL
            )
        assert len(fake_runs) == 1
        assert summary.values == [0.0]


class TestFailedCells:
    """A failed cell must not surface as whatever the summary math
    trips over (``ValueError`` serially, ``AttributeError`` on a
    ``None`` hole in parallel): both raise one ``RuntimeError`` that
    names the failed cells from ``runner.report``."""

    TINY = dict(n_connections=2, warmup_ms=1, measure_ms=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_replicate_raises_naming_failed_cells(self, jobs):
        # Flow Director needs a multi-queue NIC: every seed fails.
        config = ExperimentConfig(direction="tx", message_size=1024,
                                  affinity="flow-director", **self.TINY)
        runner = SweepRunner(jobs=jobs, retries=0)
        with pytest.raises(RuntimeError, match="tx-1024-flow-director"):
            replicate(config, seeds=(3, 5), runner=runner)
        assert len(runner.report.failures) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_gain_statistics_raises_naming_failed_cells(self, jobs):
        runner = SweepRunner(jobs=jobs, retries=0)
        with pytest.raises(RuntimeError) as info:
            gain_statistics("tx", 1024, "flow-director", seeds=(3,),
                            runner=runner, **self.TINY)
        # Only the flow-director cell failed; the baseline ran.
        (failure,) = runner.report.failures
        assert failure.label == "tx-1024-flow-director"
        assert failure.label in str(info.value)
        assert "tx-1024-none" not in str(info.value)
