"""Unit and property tests for socket state (struct sock)."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.machine import Machine
from repro.mem.layout import AddressSpace
from repro.net.params import NetParams
from repro.net.skbuff import SKB_HEAD_SIZE, SkBuff
from repro.net.sock import (
    BUF_RANGE_SIZES,
    TCB_BYTES,
    TCB_RANGE_SIZES,
    Sock,
)


@pytest.fixture
def sock():
    machine = Machine(n_cpus=2, seed=1)
    return Sock(machine, NetParams(), 0, "test")


def make_skb(seq=0, length=0):
    space = AddressSpace()
    skb = SkBuff(space.alloc("h", SKB_HEAD_SIZE), space.alloc("d", 2048))
    skb.seq = seq
    skb.len = length
    skb.end_seq = seq + length
    return skb


class TestMemoryRegions:
    def test_tcb_and_buf_regions_disjoint(self, sock):
        tcb_addr, tcb_size = sock.tcb_range(TCB_BYTES)
        buf_addr, buf_size = sock.buf_range(64)
        assert tcb_addr + tcb_size <= buf_addr

    def test_tcb_read_clamped(self, sock):
        addr, size = sock.tcb_range(10_000)
        assert size == TCB_BYTES

    def test_prebuilt_tables_match_ranges(self, sock):
        assert sock.tcb == {n: sock.tcb_range(n) for n in TCB_RANGE_SIZES}
        assert sock.buf == {n: sock.buf_range(n) for n in BUF_RANGE_SIZES}
        assert max(TCB_RANGE_SIZES) <= TCB_BYTES
        tcb_end = sock.obj.addr + TCB_BYTES
        assert all(addr + size <= tcb_end for addr, size in sock.tcb.values())
        assert all(addr >= tcb_end for addr, _ in sock.buf.values())


class TestTransmitState:
    def test_sndbuf_accounting(self, sock):
        assert sock.sndbuf_free() == sock.params.sndbuf
        assert sock.can_queue_skb()
        skb = make_skb(0, 1000)
        sock.send_queue.append(skb)
        sock.wmem_queued += skb.truesize
        assert sock.sndbuf_free() == sock.params.sndbuf - skb.truesize

    def test_window_allows(self, sock):
        sock.snd_wnd = 3000
        sock.snd_nxt = 2000
        sock.snd_una = 0
        assert sock.window_allows(1000)
        assert not sock.window_allows(1001)

    def test_ack_clean_frees_only_sent_and_acked(self, sock):
        skbs = [make_skb(i * 1000, 1000) for i in range(3)]
        for skb in skbs:
            sock.send_queue.append(skb)
            sock.wmem_queued += skb.truesize
        sock.send_head = 2  # two sent, one unsent
        sock.snd_nxt = 2000
        freed = sock.ack_clean(1000)
        assert freed == [skbs[0]]
        assert sock.send_head == 1
        assert sock.snd_una == 1000

    def test_ack_clean_ignores_old_ack(self, sock):
        sock.snd_una = 5000
        assert sock.ack_clean(3000) == []
        assert sock.snd_una == 5000

    def test_tail_unsent(self, sock):
        assert sock.tail_unsent() is None
        skb = make_skb(0, 100)
        sock.send_queue.append(skb)
        assert sock.tail_unsent() is skb
        sock.send_head = 1  # fully sent
        assert sock.tail_unsent() is None

    @given(st.lists(st.integers(min_value=1, max_value=1460),
                    min_size=1, max_size=30))
    def test_ack_clean_conserves_wmem(self, lengths):
        machine = Machine(n_cpus=2, seed=1)
        sock = Sock(machine, NetParams(), 0, "prop")
        seq = 0
        for length in lengths:
            skb = make_skb(seq, length)
            seq += length
            sock.send_queue.append(skb)
            sock.wmem_queued += skb.truesize
        sock.send_head = len(lengths)
        sock.snd_nxt = seq
        freed = sock.ack_clean(seq)
        assert len(freed) == len(lengths)
        assert sock.wmem_queued == 0
        assert sock.snd_una == seq


class TestReceiveState:
    def test_receive_data_in_order(self, sock):
        skb = make_skb(0, 1460)
        sock.receive_data(skb)
        assert sock.rcv_nxt == 1460
        assert sock.rmem_queued == skb.truesize

    def test_out_of_order_rejected(self, sock):
        with pytest.raises(RuntimeError):
            sock.receive_data(make_skb(100, 100))

    def test_advertised_window_shrinks_with_queue(self, sock):
        start = sock.advertised_window()
        skb = make_skb(0, 1460)
        sock.receive_data(skb)
        assert sock.advertised_window() <= start

    def test_window_never_negative(self, sock):
        seq = 0
        while sock.rcvbuf_free() >= 2048:
            skb = make_skb(seq, 1460)
            sock.receive_data(skb)
            seq += 1460
        assert sock.advertised_window() >= 0

    def test_window_update_due(self, sock):
        # Queue enough truesize that the advertised window drops below
        # its 64240 clamp and starts tracking buffer occupancy.
        seq = 0
        for _ in range(15):
            sock.receive_data(make_skb(seq, 1460))
            seq += 1460
        assert sock.advertised_window() < sock.params.max_window
        sock.last_window_advertised = sock.advertised_window()
        assert not sock.window_update_due()
        # Drain: free enough truesize to re-open by 2 MSS.
        sock.receive_queue.clear()
        sock.rmem_queued = 0
        assert sock.window_update_due()

    @given(st.lists(st.integers(min_value=1, max_value=1460), max_size=40))
    def test_rcv_nxt_monotone(self, lengths):
        machine = Machine(n_cpus=2, seed=1)
        sock = Sock(machine, NetParams(), 0, "prop")
        seq = 0
        last = 0
        for length in lengths:
            if sock.rcvbuf_free() < 2048 + SKB_HEAD_SIZE:
                break
            sock.receive_data(make_skb(seq, length))
            seq += length
            assert sock.rcv_nxt >= last
            last = sock.rcv_nxt
