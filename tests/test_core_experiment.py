"""Tests for experiment configuration, execution and caching."""

import gc
import json

import pytest

from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    ResultCache,
    run_experiment,
)
from repro.cpu.events import CYCLES


class TestConfig:
    def test_key_is_stable(self):
        a = ExperimentConfig(direction="tx", message_size=128)
        b = ExperimentConfig(direction="tx", message_size=128)
        assert a.key() == b.key()

    def test_key_differs_across_configs(self):
        a = ExperimentConfig(affinity="none")
        b = ExperimentConfig(affinity="full")
        assert a.key() != b.key()

    def test_label(self):
        cfg = ExperimentConfig(direction="rx", message_size=128,
                               affinity="irq")
        assert cfg.label() == "rx-128-irq"

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            ExperimentConfig(direction="sideways")

    def test_roundtrip_dict(self):
        cfg = ExperimentConfig(direction="rx", message_size=4096, seed=11)
        clone = ExperimentConfig(**cfg.to_dict())
        assert clone.key() == cfg.key()


class TestResult:
    def test_serialization_roundtrip(self, tx_pair):
        none, _ = tx_pair
        blob = json.dumps(none.to_dict())
        back = ExperimentResult.from_dict(json.loads(blob))
        assert back.throughput_gbps == none.throughput_gbps
        assert back.bin_vector("engine") == none.bin_vector("engine")
        assert back.function_events().keys() == none.function_events().keys()

    def test_sanity_of_measurement(self, tx_pair):
        none, full = tx_pair
        assert none.total_bytes > 0
        assert none.throughput_gbps > 0.1
        assert 0.5 < none.utilization <= 1.0
        assert none.cost_ghz_per_gbps > 0.2
        assert none["rx_drops"] == 0
        assert none["rto_fires"] == 0

    def test_affinity_improves_throughput(self, tx_pair):
        none, full = tx_pair
        assert full.throughput_gbps > none.throughput_gbps
        assert full.cost_ghz_per_gbps < none.cost_ghz_per_gbps

    def test_no_aff_routes_all_irqs_to_cpu0(self, tx_pair):
        none, full = tx_pair
        assert none.device_irqs[1] == 0
        assert none.device_irqs[0] > 0
        # Full affinity splits interrupts.
        assert full.device_irqs[0] > 0 and full.device_irqs[1] > 0

    def test_function_events_merge(self, tx_pair):
        none, _ = tx_pair
        merged = none.function_events()
        per_cpu = [none.function_events(cpu_index=i) for i in (0, 1)]
        name = "tcp_sendmsg"
        total = sum(
            fns[name][1][CYCLES] for fns in per_cpu if name in fns
        )
        assert merged[name][1][CYCLES] == total

    def test_summary_mentions_config(self, tx_pair):
        none, _ = tx_pair
        assert "tx-65536-none" in none.summary()


class TestCache:
    def test_put_get_roundtrip(self, tmp_path, tx_pair):
        none, _ = tx_pair
        cache = ResultCache(directory=str(tmp_path))
        cfg = ExperimentConfig(**none.config)
        assert cache.get(cfg) is None
        cache.put(cfg, none)
        hit = cache.get(cfg)
        assert hit is not None
        assert hit.throughput_gbps == none.throughput_gbps

    def test_disk_persistence(self, tmp_path, tx_pair):
        none, _ = tx_pair
        cfg = ExperimentConfig(**none.config)
        ResultCache(directory=str(tmp_path)).put(cfg, none)
        fresh = ResultCache(directory=str(tmp_path))
        assert fresh.get(cfg) is not None

    def test_run_experiment_uses_cache(self, tmp_path, tx_pair):
        none, _ = tx_pair
        cfg = ExperimentConfig(**none.config)
        cache = ResultCache(directory=str(tmp_path))
        cache.put(cfg, none)
        result = run_experiment(cfg, cache=cache)
        assert result.to_dict() == none.to_dict()

    def test_clear(self, tmp_path, tx_pair):
        none, _ = tx_pair
        cfg = ExperimentConfig(**none.config)
        cache = ResultCache(directory=str(tmp_path))
        cache.put(cfg, none)
        cache.clear()
        assert cache.get(cfg) is None


class TestMemoryRelease:
    """Each cell's machine is freed before ``run_experiment`` returns."""

    @staticmethod
    def _config(aggregated, n_cpus):
        return ExperimentConfig(
            workload="ttcp", direction="rx", affinity="rss",
            n_connections=64 if aggregated else 8, n_cpus=n_cpus,
            n_queues=2 if aggregated else 1,
            aggregation="class" if aggregated else "exact",
            message_size=16384, warmup_ms=1, measure_ms=1, seed=7,
        )

    def test_consecutive_cells_leave_nothing_tracked(self):
        from repro.kernel.machine import Machine
        from repro.net.stack import NetworkStack

        def machines():
            # Ids only: holding the objects would keep them alive.
            return {id(o) for o in gc.get_objects()
                    if isinstance(o, (Machine, NetworkStack))}

        # Machines other tests still hold (fixtures, live results).
        before = machines()
        cells = [(False, 2), (True, 8), (False, 8), (True, 2),
                 (False, 2), (True, 8)]
        counts = []
        # With automatic collection off, only run_experiment's own
        # collection can free a finished machine.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for aggregated, n_cpus in cells:
                run_experiment(self._config(aggregated, n_cpus))
                assert machines() <= before, (aggregated, n_cpus)
                counts.append(len(gc.get_objects()))
        finally:
            if was_enabled:
                gc.enable()
        # The first cell of each kind may intern shared state; after
        # that the process holds no more objects from cell to cell (a
        # leaked machine would be thousands).
        assert max(counts[2:]) - counts[1] <= 64, counts
