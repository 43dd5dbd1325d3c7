"""Unit tests for the NIC model and the ideal peer."""

import pytest

from repro.cpu.events import LLC_MISSES
from repro.kernel.machine import Machine
from repro.net.nic import Nic
from repro.net.packet import ack_packet, data_packet
from repro.net.params import NetParams
from repro.net.peer import Peer
from repro.net.skbuff import SkbPools


@pytest.fixture
def rig():
    class Rig:
        pass

    r = Rig()
    r.machine = Machine(n_cpus=2, seed=1)
    r.params = NetParams()
    r.nic = Nic(r.machine, 0, 0x19, r.params)
    r.rxq = r.nic.rxqs[0]
    r.machine.register_irq(
        __import__("repro.kernel.interrupts", fromlist=["IrqLine"]).IrqLine(
            0x19, "eth0", lambda ctx: None
        )
    )
    r.pools = SkbPools(r.machine, r.params)
    for _ in range(32):
        r.rxq.post_rx(r.pools.alloc_nocharge(0))
    return r


class TestPacket:
    def test_wire_len_includes_headers(self):
        pkt = data_packet(0, 0, 1460)
        assert pkt.wire_len == 1460 + 54

    def test_ack_minimum_frame(self):
        pkt = ack_packet(0, 1000, 64240)
        assert pkt.wire_len == 60
        assert pkt.is_ack

    def test_end_seq(self):
        pkt = data_packet(1, 100, 50)
        assert pkt.end_seq == 150


class TestSingleQueueDevice:
    """The paper's single-vector NIC is a Nic with one RxQueue that
    owns nothing: ring, vector and TX lock are the device's own."""

    def test_one_queue_shares_the_device_resources(self, rig):
        nic = rig.nic
        assert len(nic.rxqs) == 1 and nic.steering is None
        rxq = nic.rxqs[0]
        assert rxq.qid == 0
        assert rxq.ring is nic.rx_ring
        assert rxq.tx_lock is nic.tx_lock
        assert rxq.vector == nic.vector == 0x19
        assert nic.tx_lock_for(7) is nic.tx_lock
        assert nic.rxq_for(7) is rxq

    def test_one_queue_allocates_nothing(self):
        machine = Machine(n_cpus=2, seed=1)
        before = len(machine.space.objects)
        Nic(machine, 3, 0x1A, NetParams())
        added = [obj.name for obj in machine.space.objects[before:]]
        assert added == [
            "eth3:tx_ring", "eth3:rx_ring", "eth3:regs", "lock:tx_lock:eth3",
        ]

    def test_frames_and_irqs_count_on_queue_and_device(self, rig):
        rig.nic.deliver_frame(data_packet(0, 0, 1460))
        rig.machine.engine.run(
            until=rig.params.wire_cycles(1514)
            + rig.params.coalesce_cycles + 100
        )
        assert rig.rxq.frames_steered == 1
        assert rig.rxq.irqs_fired == rig.nic.irqs_fired == 1


class TestNicReceive:
    def test_frame_dma_after_wire_delay(self, rig):
        rig.nic.deliver_frame(data_packet(0, 0, 1460))
        assert rig.nic.frames_in == 0  # not yet: wire serialization
        rig.machine.engine.run(until=rig.params.wire_cycles(1514) + 10)
        assert rig.nic.frames_in == 1
        assert len(rig.rxq.rx_pending) == 1

    def test_wire_serializes_back_to_back_frames(self, rig):
        for seq in (0, 1460):
            rig.nic.deliver_frame(data_packet(0, seq, 1460))
        one_frame = rig.params.wire_cycles(1460 + 54)
        rig.machine.engine.run(until=one_frame + 10)
        assert rig.nic.frames_in == 1
        rig.machine.engine.run(until=2 * one_frame + 10)
        assert rig.nic.frames_in == 2

    def test_rx_dma_invalidates_buffer(self, rig):
        # Warm the posted buffer in CPU0's cache, then receive into it.
        skb = rig.rxq.rx_posted[0]
        cpu = rig.machine.cpus[0]
        spec = rig.machine.functions.register("toucher", "engine")
        first_line = [(skb.data.addr, 64)]
        cpu.charge(spec, 10, reads=[(skb.data.addr, 256)])
        line = skb.data.addr // 64
        memsys = rig.machine.memsys
        assert memsys.sharers_of(line) == 1 << cpu.domain
        misses = cpu.totals[LLC_MISSES]
        cpu.charge(spec, 10, reads=first_line)
        assert cpu.totals[LLC_MISSES] == misses  # cached
        rig.nic.deliver_frame(data_packet(0, 0, 1460))
        rig.machine.engine.run(until=rig.params.wire_cycles(1514) + 10)
        assert memsys.sharers_of(line) == 0
        cpu.charge(spec, 10, reads=first_line)
        assert cpu.totals[LLC_MISSES] == misses + 1  # invalidated

    def test_drops_when_ring_empty(self, rig):
        rig.rxq.rx_posted = []
        rig.nic.deliver_frame(data_packet(0, 0, 1460))
        rig.machine.engine.run(until=rig.params.wire_cycles(1514) + 10)
        assert rig.nic.rx_drops == 1

    def test_skb_carries_packet(self, rig):
        pkt = data_packet(0, 2920, 1460)
        rig.nic.deliver_frame(pkt)
        rig.machine.engine.run(until=rig.params.wire_cycles(1514) + 10)
        _, skb = rig.rxq.rx_pending[0]
        assert skb.pkt is pkt
        assert skb.seq == 2920 and skb.len == 1460


class TestCoalescing:
    def test_interrupt_after_frame_threshold(self, rig):
        for i in range(rig.params.coalesce_frames):
            rig.nic.deliver_frame(data_packet(0, i * 1460, 1460))
        rig.machine.engine.run(
            until=rig.params.wire_cycles(1514) * 10
        )
        assert rig.nic.irqs_fired == 1

    def test_interrupt_after_timeout_for_single_frame(self, rig):
        rig.nic.deliver_frame(data_packet(0, 0, 1460))
        rig.machine.engine.run(
            until=rig.params.wire_cycles(1514)
            + rig.params.coalesce_cycles + 100
        )
        assert rig.nic.irqs_fired == 1

    def test_no_rearm_until_claimed(self, rig):
        for i in range(rig.params.coalesce_frames * 2):
            rig.nic.deliver_frame(data_packet(0, i * 1460, 1460))
        rig.machine.engine.run(until=rig.params.wire_cycles(1514) * 40)
        assert rig.nic.irqs_fired == 1  # latched until the ISR claims
        rig.rxq.claim()
        assert rig.rxq.rx_pending == []


class TestSinkPeer:
    def test_acks_every_other_segment(self, rig):
        peer = Peer(rig.machine, rig.nic, 0, rig.params, "sink")
        peer.on_frame(data_packet(0, 0, 1460))
        assert peer.acks_sent == 0
        peer.on_frame(data_packet(0, 1460, 1460))
        assert peer.acks_sent == 1
        assert peer.rcv_nxt == 2920

    def test_flush_timer_acks_stragglers(self, rig):
        peer = Peer(rig.machine, rig.nic, 0, rig.params, "sink")
        peer.on_frame(data_packet(0, 0, 1460))
        from repro.net.peer import SINK_FLUSH_CYCLES

        rig.machine.engine.run(
            until=rig.machine.engine.now + SINK_FLUSH_CYCLES + 10
        )
        assert peer.acks_sent == 1


class TestSourcePeer:
    def test_respects_advertised_window(self, rig):
        peer = Peer(rig.machine, rig.nic, 0, rig.params, "source")
        peer.peer_rcv_window = 4 * rig.params.mss
        peer.start_stream()
        assert peer.segments_sent == 4

    def test_ack_advances_stream(self, rig):
        peer = Peer(rig.machine, rig.nic, 0, rig.params, "source")
        peer.peer_rcv_window = 2 * rig.params.mss
        peer.start_stream()
        sent = peer.segments_sent
        peer.on_frame(ack_packet(0, rig.params.mss, 2 * rig.params.mss))
        assert peer.segments_sent == sent + 1

    def test_zero_window_stalls(self, rig):
        peer = Peer(rig.machine, rig.nic, 0, rig.params, "source")
        peer.peer_rcv_window = 2 * rig.params.mss
        peer.start_stream()
        sent = peer.segments_sent
        peer.on_frame(ack_packet(0, 0, 0))
        assert peer.segments_sent == sent

    def test_mode_validation(self, rig):
        with pytest.raises(ValueError):
            Peer(rig.machine, rig.nic, 0, rig.params, "bogus")
        sink = Peer(rig.machine, rig.nic, 0, rig.params, "sink")
        with pytest.raises(RuntimeError):
            sink.start_stream()
