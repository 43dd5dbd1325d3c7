"""Focused tests on the TCP transmit/receive code paths."""


from repro.apps.ttcp import TtcpWorkload
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.stack import NetworkStack

MS = 2_000_000


def build(mode="tx", size=65536, n=1, params=None, seed=2):
    machine = Machine(n_cpus=2, seed=seed)
    stack = NetworkStack(machine, params or NetParams(), n_connections=n,
                         mode=mode, message_size=size)
    workload = TtcpWorkload(machine, stack, size)
    workload.spawn_all()
    machine.start()
    if mode == "rx":
        stack.start_peers()
    return machine, stack, workload


class TestTransmitPath:
    def test_segmentation_to_mss(self):
        machine, stack, _ = build("tx", size=65536)
        machine.run_for(10 * MS)
        conn = stack.connections[0]
        # Every completed wire frame carried at most one MSS.
        assert conn.peer.rcv_nxt > 0
        assert conn.sock.segs_out >= conn.peer.rcv_nxt // stack.params.mss

    def test_nagle_holds_partial_with_data_in_flight(self):
        machine, stack, _ = build("tx", size=200)
        machine.run_for(5 * MS)
        sock = stack.connections[0].sock
        # Coalescing means wire segments >> 200B on average.
        if sock.segs_out > 10:
            avg = sock.snd_nxt / sock.segs_out
            assert avg > 400

    def test_retransmit_queue_cleaned_by_acks(self):
        machine, stack, _ = build("tx", size=65536)
        machine.run_for(10 * MS)
        sock = stack.connections[0].sock
        # Acked skbs were freed: queue holds only in-flight + unsent.
        queued_bytes = sum(s.len for s in sock.send_queue)
        assert queued_bytes <= stack.params.sndbuf * 2
        assert sock.snd_una > 0

    def test_tx_completions_free_clones(self):
        machine, stack, _ = build("tx", size=65536)
        machine.run_for(10 * MS)
        pools = stack.pools
        # Heads outstanding should stay bounded (no clone leak).
        assert pools.head_cache.outstanding() < 600

    def test_rexmit_timer_armed_and_cancelled(self):
        machine, stack, _ = build("tx", size=65536)
        machine.run_for(10 * MS)
        conn = stack.connections[0]
        assert conn.sock.rexmit_timer.armed > 0
        assert conn.rto_fires == 0


class TestReceivePath:
    def test_acks_flow_back_to_peer(self):
        machine, stack, _ = build("rx", size=65536)
        machine.run_for(10 * MS)
        sock = stack.connections[0].sock
        assert sock.acks_out > 0
        peer = stack.connections[0].peer
        assert peer.snd_una > 0  # our ACKs advanced the peer

    def test_delack_timer_armed(self):
        # With ack_every high, segments arm the delayed-ACK timer
        # (window-update ACKs may still cancel it before it fires).
        params = NetParams(ack_every=64)
        machine, stack, _ = build("rx", size=65536, params=params)
        machine.run_for(30 * MS)
        sock = stack.connections[0].sock
        assert sock.delack_timer.armed > 0

    def test_backlog_used_when_reader_owns_socket(self):
        # Needs CPU contention so segments arrive while a reader holds
        # its socket: use the full 8-connection configuration.
        machine, stack, _ = build("rx", size=65536, n=8)
        machine.run_for(15 * MS)
        total = sum(c.sock.backlogged_total for c in stack.connections)
        assert total > 0

    def test_flow_control_prevents_overrun(self):
        machine, stack, _ = build("rx", size=65536)
        machine.run_for(15 * MS)
        sock = stack.connections[0].sock
        assert sock.rmem_queued <= stack.params.rcvbuf
        assert sum(n.rx_drops for n in stack.nics) == 0


class TestWireLevel:
    def test_wire_is_not_the_bottleneck(self):
        """The paper's regime: the CPU saturates before the wire."""
        machine, stack, workload = build("tx", size=65536, n=1)
        machine.run_for(10 * MS)
        per_conn_gbps = (
            workload.total_bytes() * 8.0
            / (machine.engine.now / machine.hz) / 1e9
        )
        assert per_conn_gbps < stack.params.wire_gbps

    def test_interrupt_coalescing_bounds_irq_rate(self):
        machine, stack, _ = build("tx", size=65536, n=1)
        machine.run_for(10 * MS)
        nic = stack.nics[0]
        assert nic.irqs_fired > 0
        frames = nic.frames_out + nic.rxqs[0].frames_steered
        assert frames / nic.irqs_fired > 1.5
