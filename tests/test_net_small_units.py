"""Small-unit coverage: packets, copies, dev layer, params."""

import pytest

from repro.kernel.machine import Machine
from repro.net.copies import charge_rx_copy, charge_tx_copy
from repro.net.dev import SoftnetData
from repro.net.packet import (
    HEADER_WIRE_BYTES,
    MIN_FRAME,
    ack_packet,
    control_packet,
    data_packet,
)
from repro.net.params import (
    FUNCTION_PROFILES,
    NetParams,
    RX_COPY_INSTR_PER_LINE,
    TX_COPY_INSTR_PER_LINE,
    base_instructions,
    register_profiles,
)
from repro.net.skbuff import HEAD_RANGE_SIZES, SKB_HEAD_SIZE, SkbPools, SkBuff


class TestPacketHelpers:
    def test_data_packet_fields(self):
        pkt = data_packet(3, 1000, 500, ack_seq=99, window=4096)
        assert (pkt.conn_id, pkt.seq, pkt.end_seq) == (3, 1000, 1500)
        assert pkt.ack_seq == 99 and pkt.window == 4096
        assert pkt.ctl is None and not pkt.is_ack

    def test_control_packet(self):
        pkt = control_packet(1, "syn")
        assert pkt.ctl == "syn" and pkt.len == 0
        assert pkt.wire_len == MIN_FRAME

    def test_wire_len_floor(self):
        assert data_packet(0, 0, 1).wire_len == MIN_FRAME
        assert data_packet(0, 0, 100).wire_len == 100 + HEADER_WIRE_BYTES

    def test_repr(self):
        assert "ack" in repr(ack_packet(0, 5, 10))
        assert "data" in repr(data_packet(0, 5, 10))


class TestNetParams:
    def test_wire_cycles_scale_with_bytes(self):
        params = NetParams()
        assert params.wire_cycles(1500) > params.wire_cycles(64)

    def test_wire_rate_math(self):
        # 1 Gb/s at 2 GHz: 16 cycles per byte.
        params = NetParams(wire_gbps=1.0)
        assert params.cycles_per_wire_byte == pytest.approx(16.0)

    def test_derived_cycle_values(self):
        params = NetParams(one_way_delay_us=50, coalesce_us=20,
                           delack_ms=40, rto_ms=200)
        assert params.one_way_delay_cycles == 100_000
        assert params.coalesce_cycles == 40_000
        assert params.delack_cycles == 80_000_000
        assert params.rto_cycles == 400_000_000


class TestFunctionProfiles:
    def test_every_profile_registers(self):
        machine = Machine(n_cpus=2, seed=1)
        specs = register_profiles(machine.functions)
        assert set(specs) == set(FUNCTION_PROFILES)

    def test_bins_are_known(self):
        from repro.cpu.function import BINS

        for name, prof in FUNCTION_PROFILES.items():
            assert prof["bin"] in BINS, name

    def test_base_instructions(self):
        assert base_instructions("tcp_sendmsg") > 0
        with pytest.raises(KeyError):
            base_instructions("nonexistent_fn")

    def test_reregistration_returns_same_spec(self):
        machine = Machine(n_cpus=2, seed=1)
        a = register_profiles(machine.functions)
        b = register_profiles(machine.functions)
        assert a["tcp_sendmsg"] is b["tcp_sendmsg"]


class TestCopies:
    @pytest.fixture
    def rig(self):
        machine = Machine(n_cpus=2, seed=1)
        spec_tx = machine.functions.register("tx_copy_t", "copies",
                                             branch_frac=0.02)
        spec_rx = machine.functions.register("rx_copy_t", "copies",
                                             branch_frac=0.1)
        src = machine.space.alloc("src", 4096)
        dst = machine.space.alloc("dst", 4096)
        return machine, spec_tx, spec_rx, src, dst

    def test_tx_copy_instruction_density(self, rig):
        machine, spec_tx, _, src, dst = rig
        from repro.cpu.events import INSTRUCTIONS

        before = machine.cpus[0].totals[INSTRUCTIONS]
        charge_tx_copy(machine.states[0].softirq_ctx, spec_tx,
                       (src.addr, 1460), (dst.addr, 1460), 1460)
        instr = machine.cpus[0].totals[INSTRUCTIONS] - before
        lines = -(-1460 // 64)
        assert instr == 100 + lines * TX_COPY_INSTR_PER_LINE

    def test_rx_copy_is_instruction_sparse(self, rig):
        machine, _, spec_rx, src, dst = rig
        from repro.cpu.events import INSTRUCTIONS

        before = machine.cpus[0].totals[INSTRUCTIONS]
        charge_rx_copy(machine.states[0].softirq_ctx, spec_rx,
                       (src.addr, 1460), (dst.addr, 1460), 1460)
        instr = machine.cpus[0].totals[INSTRUCTIONS] - before
        lines = -(-1460 // 64)
        assert instr == 150 + lines * RX_COPY_INSTR_PER_LINE
        # The rep-movl path retires far fewer instructions per byte.
        assert RX_COPY_INSTR_PER_LINE < TX_COPY_INSTR_PER_LINE

    def test_rx_copy_cold_source_is_expensive(self, rig):
        machine, _, spec_rx, src, dst = rig
        ctx = machine.states[0].softirq_ctx
        machine.memsys.dma_write(src.addr, 1460)  # cold source
        cold = charge_rx_copy(ctx, spec_rx, (src.addr, 1460),
                              (dst.addr, 1460), 1460)
        warm = charge_rx_copy(ctx, spec_rx, (src.addr, 1460),
                              (dst.addr, 1460), 1460)
        assert cold > 3 * warm


class TestSoftnetData:
    def test_backlog_peak_tracking(self):
        machine = Machine(n_cpus=2, seed=1)
        softnet = SoftnetData(machine, 0)
        for i in range(5):
            softnet.enqueue_backlog(object())
        softnet.backlog.clear()
        softnet.enqueue_backlog(object())
        assert softnet.backlog_peak == 5

    def test_head_range_is_local_object(self):
        machine = Machine(n_cpus=2, seed=1)
        a = SoftnetData(machine, 0)
        b = SoftnetData(machine, 1)
        assert a.head_range()[0] != b.head_range()[0]


class TestSkBuffRanges:
    def test_ranges_are_object_prefixes(self):
        machine = Machine(n_cpus=2, seed=1)
        skb = SkbPools(machine, NetParams()).alloc_ring(1)[0]
        for size in sorted(HEAD_RANGE_SIZES):
            assert skb.head_range(size) == skb.head.field(0, size)
        assert skb.head_range() == skb.head.field(0, SKB_HEAD_SIZE)
        assert skb.header_range() == skb.data.field(0, SkBuff.HEADER_BYTES)

    def test_head_range_refuses_other_sizes(self):
        machine = Machine(n_cpus=2, seed=1)
        skb = SkbPools(machine, NetParams()).alloc_ring(1)[0]
        for size in (0, 32, 192, SKB_HEAD_SIZE + 64):
            with pytest.raises(ValueError):
                skb.head_range(size)
