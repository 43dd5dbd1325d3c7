"""Focused tests on the TCP transmit/receive code paths."""


from repro.apps.ttcp import TtcpWorkload
from repro.cpu.events import CYCLES
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


def wire_data_lengths(peer):
    """Record the payload length of every data frame ``peer`` receives."""
    lengths = []
    on_frame = peer.on_frame

    def recording_on_frame(packet):
        if not packet.is_ack and packet.len:
            lengths.append(packet.len)
        on_frame(packet)

    peer.on_frame = recording_on_frame
    return lengths


def function_cycles(machine, name):
    """Cycles the profile charged to function ``name`` so far."""
    entry = machine.accounting.per_function().get(name)
    return 0 if entry is None else entry[1][CYCLES]


class TestTransmitPath:
    def test_segmentation_to_mss(self):
        machine, stack, _ = build("tx", size=65536)
        conn = stack.connections[0]
        lengths = wire_data_lengths(conn.peer)
        machine.run_for(10 * MS)
        # Every wire frame carried at most one MSS.
        assert conn.peer.rcv_nxt > 0
        assert lengths and max(lengths) <= stack.params.mss
        assert len(lengths) >= conn.peer.rcv_nxt // stack.params.mss

    def test_nagle_holds_partial_with_data_in_flight(self):
        machine, stack, _ = build("tx", size=200)
        lengths = wire_data_lengths(stack.connections[0].peer)
        machine.run_for(5 * MS)
        # Coalescing means wire segments >> 200B on average.
        assert len(lengths) > 10
        assert sum(lengths) / len(lengths) > 400

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
        assert pools.head_cache.live < 600

    def test_rexmit_timer_armed_and_cancelled(self):
        machine, stack, _ = build("tx", size=65536)
        machine.run_for(10 * MS)
        conn = stack.connections[0]
        # A transmitter arms only the retransmit timer: every mod_timer
        # charge is that timer's.
        assert function_cycles(machine, "mod_timer") > 0
        assert conn.rto_fires == 0


class TestReceivePath:
    def test_acks_flow_back_to_peer(self):
        machine, stack, _ = build("rx", size=65536)
        machine.run_for(10 * MS)
        peer = stack.connections[0].peer
        assert peer.snd_una > 0  # our ACKs advanced the peer

    def test_delack_timer_armed(self):
        # With ack_every high, segments arm the delayed-ACK timer
        # (window-update ACKs may still cancel it before it fires).
        params = NetParams(ack_every=64)
        machine, stack, _ = build("rx", size=65536, params=params)
        machine.run_for(30 * MS)
        # A receiver sends no data, so it never arms the retransmit
        # timer: every mod_timer charge arms the delayed-ACK timer.
        assert function_cycles(machine, "mod_timer") > 0

    def test_backlog_used_when_reader_owns_socket(self):
        # Needs CPU contention so segments arrive while a reader holds
        # its socket: use the full 8-connection configuration.
        machine, stack, _ = build("rx", size=65536, n=8)
        backlogged = []

        class RecordingBacklog(list):
            def append(self, skb):
                backlogged.append(skb.seq)
                list.append(self, skb)

        for conn in stack.connections:
            conn.sock.backlog = RecordingBacklog()
        machine.run_for(15 * MS)
        assert backlogged

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
        sent = wire_data_lengths(stack.connections[0].peer)
        machine.run_for(10 * MS)
        nic = stack.nics[0]
        irqs = sum(q.irqs_fired for q in nic.rxqs)
        assert irqs > 0
        frames = len(sent) + nic.rxqs[0].frames_steered
        assert frames / irqs > 1.5
