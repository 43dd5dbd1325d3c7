"""Unit tests for sk_buffs and the slab allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.kernel.machine import Machine
from repro.mem.layout import AddressSpace
from repro.net.params import NetParams
from repro.net.skbuff import (
    PER_CPU_FREELIST_MAX,
    SKB_HEAD_SIZE,
    SkBuff,
    SkbPools,
    SlabCache,
)


class TestSlabCache:
    def make(self, n_cpus=2):
        return SlabCache("t", 2048, AddressSpace(), n_cpus)

    def test_alloc_creates_object(self):
        cache = self.make()
        obj = cache.alloc(0)
        assert obj.size == 2048
        assert cache.created == 1

    def test_free_then_alloc_reuses_lifo(self):
        cache = self.make()
        a = cache.alloc(0)
        b = cache.alloc(0)
        cache.free(a, 0)
        cache.free(b, 0)
        assert cache.alloc(0) is b  # LIFO: hottest first
        assert cache.alloc(0) is a
        assert cache.created == 2

    def test_per_cpu_freelists_are_private(self):
        cache = self.make()
        a = cache.alloc(0)
        cache.free(a, 0)
        b = cache.alloc(1)  # CPU1 does not see CPU0's freelist
        assert b is not a
        assert cache.created == 2

    def test_overflow_to_global_enables_cross_cpu_reuse(self):
        cache = self.make()
        objs = [cache.alloc(0) for _ in range(PER_CPU_FREELIST_MAX + 5)]
        for obj in objs:
            cache.free(obj, 0)
        before = cache.created
        got = [cache.alloc(1) for _ in range(5)]
        assert cache.created == before  # served from the global list
        assert cache.cross_cpu_refills == 5
        assert all(g in objs for g in got)

    def test_outstanding(self):
        cache = self.make()
        a = cache.alloc(0)
        assert cache.live == 1
        cache.free(a, 0)
        assert cache.live == 0

    @given(st.lists(st.sampled_from(["a0", "a1", "f"]), max_size=60))
    def test_never_hands_out_live_object(self, ops):
        cache = self.make()
        live = []
        for op in ops:
            if op == "f" and live:
                cache.free(live.pop(), 0)
            elif op != "f":
                obj = cache.alloc(int(op[1]))
                assert obj not in live
                live.append(obj)


class TestSkBuff:
    def make_skb(self):
        space = AddressSpace()
        head = space.alloc("head", SKB_HEAD_SIZE)
        data = space.alloc("data", 2048)
        return SkBuff(head, data)

    def test_room_respects_mss_and_buffer(self):
        skb = self.make_skb()
        assert skb.room(1460) == 1460
        skb.len = 1000
        assert skb.room(1460) == 460
        assert skb.room(4000) == 2048 - SkBuff.HEADER_BYTES - 1000

    def test_payload_range_offsets_past_header(self):
        skb = self.make_skb()
        skb.len = 100
        addr, size = skb.payload_range()
        assert addr == skb.data.addr + SkBuff.HEADER_BYTES
        assert size == 100

    def test_remaining_tracks_consumption(self):
        skb = self.make_skb()
        skb.len = 1000
        skb.consumed = 400
        assert skb.remaining == 600

    def test_truesize(self):
        skb = self.make_skb()
        assert skb.truesize == SKB_HEAD_SIZE + 2048


class TestSkbPools:
    @pytest.fixture
    def pools(self):
        machine = Machine(n_cpus=2, seed=1)
        return machine, SkbPools(machine, NetParams())

    def test_alloc_charges_and_returns(self, pools):
        machine, p = pools
        ctx = machine.states[0].softirq_ctx
        busy_before = machine.cpus[0].busy_cycles
        skb = p.alloc(ctx)
        assert machine.cpus[0].busy_cycles > busy_before
        assert skb.len == 0 and not skb.is_clone

    def test_clone_shares_data(self, pools):
        machine, p = pools
        ctx = machine.states[0].softirq_ctx
        skb = p.alloc(ctx)
        skb.len = 500
        skb.seq = 42
        skb.end_seq = 542
        clone = p.clone(ctx, skb)
        assert clone.data is skb.data
        assert clone.head is not skb.head
        assert clone.is_clone
        assert (clone.seq, clone.end_seq, clone.len) == (42, 542, 500)

    def test_free_clone_keeps_data_buffer(self, pools):
        machine, p = pools
        ctx = machine.states[0].softirq_ctx
        skb = p.alloc(ctx)
        clone = p.clone(ctx, skb)
        data_outstanding = p.data_cache.live
        p.free(ctx, clone)
        assert p.data_cache.live == data_outstanding
        p.free(ctx, skb)
        assert p.data_cache.live == data_outstanding - 1

    def test_alloc_nocharge_does_not_charge(self, pools):
        machine, p = pools
        busy = machine.cpus[0].busy_cycles
        p.alloc_ring(4)
        assert machine.cpus[0].busy_cycles == busy

    @pytest.mark.parametrize("n", [1, 3, 256])
    def test_alloc_ring_equals_one_allocation_per_object(self, n):
        # The one-pass ring fill must hand out exactly what n
        # head-then-data slab allocations on empty freelists would:
        # same names, addresses and counters, and the same cursor for
        # whatever the space allocates next.
        def build():
            machine = Machine(n_cpus=2, seed=1)
            return machine, SkbPools(machine, NetParams())

        machine, pools = build()
        ring = pools.alloc_ring(n)
        twin, twin_pools = build()
        reference = [(twin_pools.head_cache.alloc(0),
                      twin_pools.data_cache.alloc(0)) for _ in range(n)]

        def layout(objs):
            return [(o.name, o.addr, o.size) for o in objs]

        assert layout(s.head for s in ring) == layout(h for h, _ in reference)
        assert layout(s.data for s in ring) == layout(d for _, d in reference)
        for cache, twin_cache in ((pools.head_cache, twin_pools.head_cache),
                                  (pools.data_cache, twin_pools.data_cache)):
            assert (cache.created, cache.live) == \
                (twin_cache.created, twin_cache.live) == (n, n)
        assert layout([machine.space.alloc("next", 100)]) == \
            layout([twin.space.alloc("next", 100)])

    def test_alloc_ring_needs_empty_freelists(self, pools):
        machine, p = pools
        ctx = machine.states[0].softirq_ctx
        p.free(ctx, p.alloc(ctx))
        with pytest.raises(RuntimeError):
            p.alloc_ring(2)
