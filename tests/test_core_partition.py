"""Tests for the workload-partition analysis."""

import pytest

from repro.apps.webserve import WebServerWorkload
from repro.core.experiment import ExperimentConfig
from repro.core.modes import apply_affinity
from repro.core.partition import (
    Partition,
    partition_cycles,
    projected_gain,
)
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.stack import NetworkStack

MS = 2_000_000


class TestProjectionMath:
    def test_full_fast_path(self):
        p = Partition(1.0, 0.0, 0.0)
        # 20% cheaper fast path -> 25% more throughput.
        assert projected_gain(p, 0.20) == pytest.approx(0.25)

    def test_no_fast_path_no_gain(self):
        p = Partition(0.0, 0.3, 0.7)
        assert projected_gain(p, 0.5) == pytest.approx(0.0)

    def test_partial_share(self):
        p = Partition(0.5, 0.1, 0.4)
        gain = projected_gain(p, 0.2)
        assert 0.0 < gain < 0.2


class TestTtcpPartition:
    def test_bulk_workload_is_pure_fast_path(self, tx_pair):
        none, _ = tx_pair
        partition = partition_cycles(none)
        assert partition.fast_path > 0.99
        assert partition.setup == 0.0
        assert partition.application == 0.0


class TestWebPartition:
    @pytest.fixture(scope="class")
    def web_result(self):
        machine = Machine(n_cpus=2, seed=12)
        stack = NetworkStack(machine, NetParams(), n_connections=4,
                             mode="web", message_size=16384)
        workload = WebServerWorkload(machine, stack, 16384,
                                     app_instructions=60_000)
        tasks = workload.spawn_all()
        apply_affinity(machine, stack, tasks, "none")
        machine.start()
        stack.start_peers()
        machine.run_for(8 * MS)
        machine.reset_measurement()
        machine.run_for(12 * MS)
        from repro.core.experiment import ExperimentResult

        return ExperimentResult.from_machine(
            ExperimentConfig(direction="tx", message_size=16384),
            machine, stack, workload,
        )

    def test_three_components_present(self, web_result):
        partition = partition_cycles(web_result)
        assert partition.fast_path > 0.5
        assert partition.setup > 0.0
        assert partition.application > 0.0
        total = partition.fast_path + partition.setup + partition.application
        assert total == pytest.approx(1.0)
