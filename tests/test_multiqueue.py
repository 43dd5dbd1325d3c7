"""Multi-queue steering: Toeplitz RSS, Flow Director, HT-safe IRQs.

Covers the hardware steering subsystem end to end: the Toeplitz hash
against the published Microsoft RSS verification vectors, purity of
the RSS queue function (a steering decision depends on nothing but
the flow 4-tuple), the Flow Director retarget/reordering physics on a
contended machine, and the hyperthreading regression -- interrupt
steering must target physical-core representatives, never the second
logical sibling.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.modes import apply_affinity, spread_queue_irqs
from repro.kernel.interrupts import IrqRotator
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.rss import (
    FD_SAMPLE_RATE,
    FlowDirector,
    NicSteering,
    RssIndirection,
    flow_tuple_bytes,
)
from repro.net.stack import QUEUE_VECTOR_BASE, NetworkStack
from tests.toeplitz import toeplitz_hash


def _fast_config(mode, **overrides):
    kwargs = dict(
        direction="rx",
        message_size=16384,
        affinity=mode,
        n_connections=8,
        n_cpus=4,
        n_queues=4,
        warmup_ms=2,
        measure_ms=3,
        seed=7,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestToeplitz:
    # The TCP/IPv4 rows of the Microsoft RSS verification suite: the
    # hash input is src_ip . dst_ip . src_port . dst_port with the
    # canonical 40-byte key.
    def test_ms_vector_1(self):
        data = (bytes((66, 9, 149, 187)) + bytes((161, 142, 100, 80))
                + (2794).to_bytes(2, "big") + (1766).to_bytes(2, "big"))
        assert toeplitz_hash(data) == 0x51CCC178

    def test_ms_vector_2(self):
        data = (bytes((199, 92, 111, 2)) + bytes((65, 69, 140, 83))
                + (14230).to_bytes(2, "big") + (4739).to_bytes(2, "big"))
        assert toeplitz_hash(data) == 0xC626B0EA

    def test_ms_vector_ip_only(self):
        data = bytes((66, 9, 149, 187)) + bytes((161, 142, 100, 80))
        assert toeplitz_hash(data) == 0x323E8FC2

    def test_rejects_oversized_input(self):
        with pytest.raises(ValueError):
            toeplitz_hash(bytes(37))


class TestRssPurity:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_queue_is_pure_function_of_flow(self, conn_id):
        """Two independent steering instances agree on every flow, and
        repeated lookups never drift: pure-RSS steering is a static
        function of the 4-tuple."""
        a = NicSteering(nic=None, n_queues=4)
        b = NicSteering(nic=None, n_queues=4)
        q = a.rss_queue_for(conn_id)
        assert b.rss_queue_for(conn_id) == q
        assert a.rss_queue_for(conn_id) == q
        assert q == RssIndirection(4).lookup(
            toeplitz_hash(flow_tuple_bytes(conn_id))
        )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=1, max_value=16))
    def test_queue_in_range(self, conn_id, n_queues):
        assert 0 <= NicSteering(None, n_queues).rss_queue_for(conn_id) \
            < n_queues

    def test_flows_spread_across_queues(self):
        """The Knuth port spread defeats Toeplitz GF(2) linearity:
        consecutive conn_ids must not collapse onto one queue."""
        steering = NicSteering(None, 4)
        queues = {steering.rss_queue_for(c) for c in range(16)}
        assert len(queues) >= 3


class TestFlowDirector:
    def test_samples_every_nth_frame(self):
        fd = FlowDirector(n_queues=4)
        for _ in range(FD_SAMPLE_RATE - 1):
            assert fd.sample_tx(0, cpu_index=2) is None
        assert fd.sample_tx(0, cpu_index=2) == 2
        assert fd.samples == 1 and fd.retargets == 1
        assert fd.match(0) == 2

    def test_same_queue_is_not_a_retarget(self):
        fd = FlowDirector(n_queues=4)
        for _ in range(2 * FD_SAMPLE_RATE):
            fd.sample_tx(0, cpu_index=2)
        assert fd.samples == 2 and fd.retargets == 1

    def test_filter_overrides_rss(self):
        steering = NicSteering(None, 4)
        steering.enable_flow_director()
        rss_queue = steering.rss_queue_for(0)
        other = (rss_queue + 1) % 4
        steering.flow_director.filters[0] = other
        assert steering.queue_for(0) == other


class TestSteeredRuns:
    def test_rss_is_reorder_free(self):
        """Static steering keeps every flow on one queue: zero
        out-of-order segments, zero duplicate ACKs, frames spread
        across all queues."""
        result = run_experiment(_fast_config("rss"))
        steering = result.to_dict()["steering"]
        assert steering["flow_director"] is False
        assert steering["fd_samples"] == 0
        assert steering["reorder_depth_peak"] == 0
        assert steering["dup_acks_out"] == 0
        assert steering["peer_retransmits"] == 0
        assert sum(1 for n in steering["rx_steered"] if n > 0) >= 3
        assert result.throughput_gbps > 0

    def test_flow_director_races_reorder_contended_flows(self):
        """The acceptance corner: 16 flows over 8 queues on 16 CPUs.
        Consumer migrations retarget filters mid-flight, stranding
        frames on the old queue -- visible as out-of-order segments,
        duplicate ACKs and a spurious peer retransmit."""
        result = run_experiment(_fast_config(
            "flow-director", n_cpus=16, n_queues=8, n_connections=16))
        steering = result.to_dict()["steering"]
        assert steering["flow_director"] is True
        assert steering["fd_samples"] > 0
        assert steering["fd_retargets"] > 0
        assert steering["reorder_depth_peak"] > 0
        assert steering["dup_acks_out"] > 0
        assert result.throughput_gbps > 0

    def test_flow_director_needs_multiqueue(self):
        with pytest.raises(ValueError):
            run_experiment(_fast_config("flow-director", n_queues=1,
                                        n_cpus=2),
                           cache=None)


class TestConfigStability:
    def test_single_queue_key_unchanged(self):
        """``n_queues=1`` must serialize exactly like the pre-existing
        config -- otherwise every cached result from earlier revisions
        is silently invalidated."""
        old_style = ExperimentConfig(direction="rx", message_size=4096)
        explicit = ExperimentConfig(direction="rx", message_size=4096,
                                    n_queues=1)
        assert "n_queues" not in old_style.to_dict()
        assert old_style.to_dict() == explicit.to_dict()
        assert old_style.label() == explicit.label()

    def test_multiqueue_key_and_label(self):
        config = ExperimentConfig(direction="rx", message_size=4096,
                                  affinity="rss", n_queues=4)
        assert config.to_dict()["n_queues"] == 4
        assert "+4q" in config.label()

    def test_rejects_bad_queue_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(direction="rx", message_size=4096, n_queues=0)


class TestHyperthreadSteering:
    """IRQ steering must target physical cores, never HT siblings."""

    def test_core_representatives(self):
        ht = Machine(n_cpus=4, hyperthreading=True)
        assert list(ht.core_representatives()) == [0, 2, 4, 6]
        assert ht.core_first(5) == 4 and ht.core_first(4) == 4
        flat = Machine(n_cpus=4)
        assert list(flat.core_representatives()) == [0, 1, 2, 3]
        assert flat.core_first(3) == 3

    def test_spread_queue_irqs_lands_on_representatives(self):
        machine = Machine(n_cpus=2, seed=3, hyperthreading=True)
        # Built for its side effect: registering the queue IRQ lines.
        NetworkStack(machine, NetParams(), n_connections=4,
                     mode="rx", message_size=4096, n_queues=4)
        vectors = [QUEUE_VECTOR_BASE + q for q in range(4)]
        assignment = spread_queue_irqs(machine, vectors)
        reps = set(machine.core_representatives())
        assert set(assignment.values()) <= reps
        # 4 queues over 2 physical cores: both cores serve queues.
        assert set(assignment.values()) == reps

    def test_irq_rotator_avoids_siblings(self):
        machine = Machine(n_cpus=4, seed=3, hyperthreading=True)
        stack = NetworkStack(machine, NetParams(), n_connections=2,
                             mode="tx", message_size=4096)
        vectors = [conn.nic.vector for conn in stack.connections]
        rotator = IrqRotator(machine, vectors)
        reps = set(machine.core_representatives())
        seen = set()
        for _ in range(64):
            rotator._rotate()
            for vector in vectors:
                mask = machine.ioapic.get(vector).smp_affinity
                cpu = mask.bit_length() - 1
                assert mask == 1 << cpu  # single-CPU mask
                assert cpu in reps
                seen.add(cpu)
        rotator.stop()
        # With 64 random draws over 2 cores the rotator visited both.
        assert seen == reps

    def test_rss_mode_steers_to_representatives(self):
        """The legacy software-RSS controller on an HT machine points
        every flow's IRQ at a core's first sibling."""
        from repro.apps.ttcp import TtcpWorkload

        machine = Machine(n_cpus=2, seed=3, hyperthreading=True)
        stack = NetworkStack(machine, NetParams(), n_connections=4,
                             mode="tx", message_size=16384)
        workload = TtcpWorkload(machine, stack, 16384)
        tasks = workload.spawn_all()
        applied = apply_affinity(machine, stack, tasks, "rss")
        machine.start()
        machine.run_for(6_000_000)
        reps = set(machine.core_representatives())
        for conn in stack.connections:
            mask = machine.ioapic.get(conn.nic.vector).smp_affinity
            cpu = mask.bit_length() - 1
            assert mask == 1 << cpu
            assert cpu in reps
        applied["controller"].stop()
