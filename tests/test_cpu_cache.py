"""Unit tests for the set-associative cache model."""

import pytest

from repro.cpu.cache import SetAssocCache
from repro.cpu.params import CacheGeometry


def make_cache(size=1024, ways=4, line=64):
    return SetAssocCache(CacheGeometry(size, ways, line=line, name="T"))


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert c.access(5) is False
        assert c.access(5) is True
        assert c.misses == 1 and c.hits == 1

    def test_probe_does_not_fill(self):
        c = make_cache()
        assert c.probe(9) is False
        assert c.access(9) is False  # still a miss: probe did not allocate

    def test_invalidate(self, rig):
        # The data caches' one invalidation transition is the CPU's
        # three-level ``invalidate_line``.
        cpu = rig.cpus[0]
        cpu.charge(rig.fn, 10, reads=[(7 * 64, 8)])
        levels = (cpu.l1, cpu.l2, cpu.l3)
        assert all(c.probe(7) for c in levels)
        cpu.invalidate_line(7)
        assert not any(c.probe(7) for c in levels)
        cpu.invalidate_line(7)  # idempotent
        assert not any(c.probe(7) for c in levels)


class TestReplacement:
    def test_lru_eviction_within_set(self):
        # 4 sets, 4 ways: lines k, k+4, k+8... map to set k%4.
        c = make_cache(size=1024, ways=4)
        n_sets = 1024 // (64 * 4)
        assert n_sets == 4
        same_set = [0, 4, 8, 12, 16]  # five lines, one set: evicts LRU
        for line in same_set[:4]:
            c.access(line)
        c.access(0)  # refresh 0 to MRU; LRU is now 4
        c.access(same_set[4])  # evicts 4
        assert c.probe(0) is True
        assert c.probe(4) is False
        assert c.probe(8) is True

    def test_capacity_bounded(self):
        c = make_cache(size=1024, ways=4)
        for line in range(1000):
            c.access(line)
        assert len(c.resident_lines()) <= 16
        assert c.occupancy() == 1.0

    def test_working_set_within_capacity_all_hits(self):
        c = make_cache(size=1024, ways=4)
        lines = list(range(16))
        for line in lines:
            c.access(line)
        hits_before = c.hits
        for _ in range(3):
            for line in lines:
                assert c.access(line) is True
        assert c.hits == hits_before + 48


class TestValidation:
    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssocCache(CacheGeometry(192 * 64, 1, name="bad"))

    def test_geometry_divisibility_checked(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, 3, name="bad")
