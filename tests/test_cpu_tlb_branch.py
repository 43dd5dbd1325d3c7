"""Unit tests for the TLB and branch-predictor models."""

from repro.cpu.branch import COLD_RATE, WARMUP_INVOCATIONS, BranchPredictor
from repro.cpu.params import TlbGeometry
from repro.cpu.tlb import Tlb
from repro.mem.layout import PAGE_SIZE


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb(TlbGeometry(4, "T"))
        assert tlb.access(1) is False
        assert tlb.access(1) is True
        assert tlb.walks == 1 and tlb.hits == 1

    def test_lru_eviction(self):
        tlb = Tlb(TlbGeometry(2, "T"))
        tlb.access(1)
        tlb.access(2)
        tlb.access(1)  # 2 becomes LRU
        tlb.access(3)  # evicts 2
        assert tlb.resident_pages() == [3, 1]

    def test_access_range_counts_pages(self):
        tlb = Tlb(TlbGeometry(8, "T"))
        walks = tlb.access_range(0, PAGE_SIZE * 2 + 1)
        assert walks == 3
        assert tlb.access_range(0, PAGE_SIZE) == 0  # warm now

    def test_access_range_empty(self):
        tlb = Tlb(TlbGeometry(8, "T"))
        assert tlb.access_range(100, 0) == 0

    def test_flush(self):
        # A CR3 switch flushes user translations and keeps the kernel's
        # global ones, in LRU order.
        tlb = Tlb(TlbGeometry(4, "T"))
        for page in (1, 100, 2, 101):
            tlb.access(page)
        tlb.flush_below(100)
        assert tlb.resident_pages() == [101, 100]
        assert tlb.access(1) is False
        assert tlb.access(100) is True


class TestBranchPredictor:
    def test_deterministic(self):
        a = BranchPredictor()
        b = BranchPredictor()
        seq_a = [a.predict("f", 100, 0.02) for _ in range(20)]
        seq_b = [b.predict("f", 100, 0.02) for _ in range(20)]
        assert seq_a == seq_b

    def test_long_run_rate_matches_base(self):
        bp = BranchPredictor()
        total_branches = 0
        total_mispredicts = 0
        for _ in range(2000):
            total_branches += 100
            total_mispredicts += bp.predict("f", 100, 0.02)
        rate = total_mispredicts / total_branches
        # Cold surcharge washes out over a long run.
        assert 0.019 < rate < 0.023

    def test_cold_start_surcharge(self):
        bp = BranchPredictor()
        cold = bp.predict("g", 1000, 0.01)
        for _ in range(WARMUP_INVOCATIONS):
            bp.predict("g", 1000, 0.01)
        warm = bp.predict("g", 1000, 0.01)
        assert cold > warm
        assert cold <= int(1000 * (0.01 + COLD_RATE)) + 1

    def test_zero_branches(self):
        bp = BranchPredictor()
        assert bp.predict("f", 0, 0.5) == 0

    def test_capacity_eviction_recreates_cold(self):
        bp = BranchPredictor(capacity=2)
        bp.predict("a", 10, 0.0)
        bp.predict("b", 10, 0.0)
        bp.predict("c", 10, 0.0)  # evicts a
        cold = BranchPredictor().predict("x", 1000, 0.0)
        assert bp.predict("c", 1000, 0.0) < cold  # seen once: warmer
        assert bp.predict("a", 1000, 0.0) == cold  # forgotten: cold again

    def test_rate_clamped_to_branch_count(self):
        bp = BranchPredictor()
        assert bp.predict("f", 5, 1.0) <= 5
