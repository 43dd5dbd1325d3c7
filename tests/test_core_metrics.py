"""Tests for the Figure 3/4 sweep helpers."""

import pytest

from repro.core.experiment import ExperimentConfig, ResultCache, run_experiment
from repro.core.metrics import (
    bandwidth_series,
    best_gain,
    cost_reduction,
    cost_series,
    run_size_sweep,
    throughput_gain,
    utilization_series,
)
from repro.core.parallel import SweepRunner
from repro.core.report import render_figure3, render_figure4


@pytest.fixture(scope="module")
def mini_sweep(tmp_path_factory):
    """A tiny 2-size x 2-mode sweep on a reduced machine."""
    cache = ResultCache(str(tmp_path_factory.mktemp("sweep")))
    return run_size_sweep(
        "tx",
        sizes=(1024, 32768),
        modes=("none", "full"),
        runner=SweepRunner(jobs=1, cache=cache),
        n_connections=4,
        warmup_ms=6,
        measure_ms=8,
        seed=7,
    )


class TestSweep:
    def test_grid_complete(self, mini_sweep):
        assert set(mini_sweep) == {
            (1024, "none"), (1024, "full"),
            (32768, "none"), (32768, "full"),
        }

    def test_bandwidth_series_shape(self, mini_sweep):
        series = bandwidth_series(mini_sweep, (1024, 32768),
                                  modes=("none", "full"))
        assert len(series["none"]) == 2
        assert all(v > 0 for v in series["full"])

    def test_utilization_series(self, mini_sweep):
        series = utilization_series(mini_sweep, (1024, 32768),
                                    modes=("none", "full"))
        assert all(0.0 < u <= 1.0 for u in series["none"])

    def test_cost_series_decreases_with_size(self, mini_sweep):
        series = cost_series(mini_sweep, (1024, 32768),
                             modes=("none", "full"))
        for mode in ("none", "full"):
            assert series[mode][0] > series[mode][1]

    def test_gain_and_reduction_consistency(self, mini_sweep):
        gain = throughput_gain(mini_sweep, 32768, "full")
        reduction = cost_reduction(mini_sweep, 32768, "full")
        assert gain > 0
        assert reduction > 0
        assert best_gain(mini_sweep, (1024, 32768), "full") >= gain or (
            best_gain(mini_sweep, (1024, 32768), "full")
            == throughput_gain(mini_sweep, 1024, "full")
        )

    def test_renderers(self, mini_sweep):
        fig3 = render_figure3(mini_sweep, (1024, 32768), ("none", "full"),
                              "tx")
        fig4 = render_figure4(mini_sweep, (1024, 32768), ("none", "full"),
                              "tx")
        assert "Figure 3" in fig3 and "1024" in fig3
        assert "Figure 4" in fig4 and "GHz/Gbps" in fig4


class TestNoneCells:
    """Failed sweep cells (``None`` from a fault-tolerant runner) must
    propagate as holes, not crash the series/gain helpers."""

    @pytest.fixture()
    def holey_sweep(self, mini_sweep):
        sweep = dict(mini_sweep)
        sweep[(32768, "full")] = None  # quarantined cell
        return sweep

    def test_series_propagate_none(self, holey_sweep):
        for helper in (bandwidth_series, utilization_series, cost_series):
            series = helper(holey_sweep, (1024, 32768),
                            modes=("none", "full"))
            assert series["full"][1] is None
            assert series["full"][0] is not None
            assert all(v is not None for v in series["none"])

    def test_gain_none_when_cell_failed(self, holey_sweep):
        assert throughput_gain(holey_sweep, 32768, "full") is None
        assert cost_reduction(holey_sweep, 32768, "full") is None
        # The healthy size still compares.
        assert throughput_gain(holey_sweep, 1024, "full") is not None

    def test_gain_none_when_baseline_failed(self, mini_sweep):
        sweep = dict(mini_sweep)
        sweep[(1024, "none")] = None
        assert throughput_gain(sweep, 1024, "full") is None

    def test_best_gain_skips_failed_sizes(self, holey_sweep):
        gain = best_gain(holey_sweep, (1024, 32768), "full")
        assert gain == throughput_gain(holey_sweep, 1024, "full")

    def test_best_gain_none_when_all_failed(self, mini_sweep):
        sweep = {key: None for key in mini_sweep}
        assert best_gain(sweep, (1024, 32768), "full") is None

    def test_missing_cell_treated_like_none(self, mini_sweep):
        sweep = dict(mini_sweep)
        del sweep[(32768, "full")]
        series = bandwidth_series(sweep, (1024, 32768),
                                  modes=("none", "full"))
        assert series["full"][1] is None

    def test_renderers_survive_holes(self, holey_sweep):
        fig3 = render_figure3(holey_sweep, (1024, 32768),
                              ("none", "full"), "tx")
        fig4 = render_figure4(holey_sweep, (1024, 32768),
                              ("none", "full"), "tx")
        assert "FAIL" in fig3 and "FAIL" in fig4


class TestDeterminism:
    def test_same_config_same_result(self):
        cfg = ExperimentConfig(
            direction="tx", message_size=8192, affinity="full",
            n_connections=2, warmup_ms=4, measure_ms=6, seed=13,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.throughput_gbps == b.throughput_gbps
        assert a.bin_vector("engine") == b.bin_vector("engine")
        assert a.to_dict() == b.to_dict()
