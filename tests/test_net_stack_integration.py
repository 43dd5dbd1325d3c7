"""End-to-end integrity tests for the assembled stack.

These run short full-system simulations and check conservation
invariants that no calibration tweak may break: bytes delivered equal
bytes sent, sequences advance without gaps, buffers are conserved, no
packets are dropped or retransmitted in the loss-free testbed.
"""

import pytest

from repro.apps.ttcp import TtcpWorkload
from repro.core.modes import apply_affinity
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.stack import NetworkStack
from tests.proc_interrupts import deliveries

MS = 2_000_000


def build(mode, message_size, n_connections=4, affinity="none", seed=9):
    machine = Machine(n_cpus=2, seed=seed)
    stack = NetworkStack(
        machine, NetParams(), n_connections=n_connections, mode=mode,
        message_size=message_size,
    )
    workload = TtcpWorkload(machine, stack, message_size)
    tasks = workload.spawn_all()
    apply_affinity(machine, stack, tasks, affinity)
    machine.start()
    if mode == "rx":
        stack.start_peers()
    return machine, stack, workload


def run(machine, ms):
    machine.run_for(ms * MS)


class TestTxIntegrity:
    @pytest.fixture(scope="class")
    def tx(self):
        machine, stack, workload = build("tx", 65536)
        run(machine, 15)
        return machine, stack, workload

    def test_data_flows(self, tx):
        _, _, workload = tx
        assert workload.total_bytes() > 0
        assert all(b > 0 for b in workload.bytes_done)

    def test_sequence_consistency(self, tx):
        _, stack, _ = tx
        for conn in stack.connections:
            sock = conn.sock
            assert sock.snd_una <= sock.snd_nxt <= conn.write_seq
            # The peer acknowledged exactly what it received.
            assert conn.peer.rcv_nxt <= sock.snd_nxt

    def test_no_drops_or_rtos(self, tx):
        _, stack, _ = tx
        assert sum(n.rx_drops for n in stack.nics) == 0
        assert sum(c.rto_fires for c in stack.connections) == 0

    def test_wmem_bounded_by_sndbuf(self, tx):
        _, stack, _ = tx
        for conn in stack.connections:
            assert 0 <= conn.sock.wmem_queued <= stack.params.sndbuf

    def test_window_respected(self, tx):
        _, stack, _ = tx
        for conn in stack.connections:
            assert conn.sock.in_flight <= stack.params.max_window

    def test_skb_conservation(self, tx):
        _, stack, _ = tx
        pools = stack.pools
        # Live skbs: send queues + backlogs + rings + pending + driver
        # completion queues.  Everything else must be back in a slab.
        live = 0
        for conn in stack.connections:
            live += len(conn.sock.send_queue)
            live += len(conn.sock.receive_queue)
            live += len(conn.sock.backlog)
        for nic in stack.nics:
            for rxq in nic.rxqs:
                live += len(rxq.rx_posted) + len(rxq.rx_pending)
                live += len(rxq.tx_done)
        for softnet in stack.softnet:
            live += len(softnet.backlog) + len(softnet.completion_queue)
        # In-flight clones on the wire: tx frames scheduled but not yet
        # completed are bounded by in-flight windows.
        outstanding = pools.head_cache.live
        in_flight_bound = sum(
            c.sock.in_flight // 1000 + 2 for c in stack.connections
        )
        assert outstanding <= live + in_flight_bound + len(stack.connections)


class TestRxIntegrity:
    @pytest.fixture(scope="class")
    def rx(self):
        machine, stack, workload = build("rx", 65536)
        run(machine, 15)
        return machine, stack, workload

    def test_data_flows(self, rx):
        _, _, workload = rx
        assert workload.total_bytes() > 0

    def test_bytes_conserved(self, rx):
        _, stack, workload = rx
        for conn in stack.connections:
            sock = conn.sock
            queued = sum(s.remaining for s in sock.receive_queue)
            backlogged = sum(s.len for s in sock.backlog)
            read = workload.bytes_done[conn.conn_id]
            # peer sent == read + still queued + backlogged + on wire /
            # in rings.  All terms non-negative and peer >= read.
            assert conn.peer.snd_nxt >= read + queued + backlogged
            assert sock.rcv_nxt <= conn.peer.snd_nxt

    def test_rcvbuf_bounded(self, rx):
        _, stack, _ = rx
        for conn in stack.connections:
            assert 0 <= conn.sock.rmem_queued <= stack.params.rcvbuf

    def test_no_drops(self, rx):
        _, stack, _ = rx
        assert sum(n.rx_drops for n in stack.nics) == 0

    def test_in_order_delivery(self, rx):
        _, stack, _ = rx
        for conn in stack.connections:
            queue = conn.sock.receive_queue
            for a, b in zip(queue, queue[1:]):
                assert a.end_seq == b.seq


class TestSmallMessages:
    def test_tx_128_coalesces_wire_segments(self):
        machine, stack, workload = build("tx", 128, n_connections=2)
        frames = [0] * len(stack.connections)
        for conn in stack.connections:
            def counting_on_frame(packet, peer=conn.peer,
                                  on_frame=conn.peer.on_frame):
                frames[peer.conn_id] += not packet.is_ack
                on_frame(packet)

            conn.peer.on_frame = counting_on_frame
        run(machine, 10)
        for conn in stack.connections:
            # Nagle: the wire carried far fewer frames than writes.
            writes = workload.messages_done[conn.conn_id]
            assert writes > 0
            assert 0 < frames[conn.conn_id] < writes

    def test_rx_128_partial_reads(self):
        machine, stack, workload = build("rx", 128, n_connections=2)
        run(machine, 10)
        assert workload.total_bytes() > 0
        # Reads consume MSS skbs a slice at a time.
        for conn in stack.connections:
            for skb in conn.sock.receive_queue:
                assert 0 <= skb.consumed <= skb.len


class TestAffinityModesRun:
    @pytest.mark.parametrize("affinity", ["none", "proc", "irq", "full"])
    def test_all_modes_move_data(self, affinity):
        machine, stack, workload = build(
            "tx", 16384, n_connections=4, affinity=affinity
        )
        run(machine, 8)
        assert workload.total_bytes() > 0
        assert sum(n.rx_drops for n in stack.nics) == 0

    def test_full_affinity_pins_interrupts_and_processes(self):
        machine, stack, workload = build(
            "tx", 16384, n_connections=4, affinity="full"
        )
        run(machine, 8)
        # Connections 0-1 entirely on CPU0, 2-3 on CPU1.
        assert deliveries(machine.procstat, stack.nics[0].vector)[1] == 0
        assert deliveries(machine.procstat, stack.nics[3].vector)[0] == 0
        for i, task in enumerate(workload.tasks):
            expected = 0 if i < 2 else 1
            assert task.prev_cpu == expected
