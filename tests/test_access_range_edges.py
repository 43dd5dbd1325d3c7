"""Edge cases and equivalence proofs for the batched access paths.

The hot path replaces per-line / per-page loops with batched walks and
alternative representations: the CPU's fused three-level data walk
(``Cpu._read_range`` / ``_write_range``), ``Tlb.access_range`` and the
dict-backed ``TraceCache.miss_count``.  Every one of them claims
*exact* behavioural equivalence with N calls to a single-element
primitive (``SetAssocCache.access``, ``Tlb.access``); these tests check
that claim on seeded random traces and on the corners where batched
arithmetic likes to go wrong (set wrap-around, single-byte ranges,
zero-instruction fetches).
"""

import random

from repro.cpu.cache import SetAssocCache, TraceCache
from repro.cpu.core import Cpu
from repro.cpu.function import FunctionSpec, FunctionTable
from repro.cpu.params import CacheGeometry, TlbGeometry
from repro.cpu.tlb import Tlb
from repro.mem.layout import CACHE_LINE, AddressSpace, line_span, lines_for
from repro.mem.system import MemorySystem
from repro.prof.accounting import ExactAccounting


def make_cache(size=1024, ways=4):
    return SetAssocCache(CacheGeometry(size, ways, line=64, name="T"))


def cache_state(cache):
    """Full replacement state: per-set line order, MRU first."""
    return [list(bucket) for bucket in cache._sets]


def trace_cache_state(cache):
    """TraceCache state normalized to the same MRU-first convention.

    Dict buckets keep LRU-to-MRU insertion order (MRU last), the list
    representation keeps MRU first; reversing one gives the other.
    """
    return [list(reversed(bucket)) for bucket in cache._sets]


def random_trace(seed, n, line_universe):
    rng = random.Random(seed)
    trace = []
    while len(trace) < n:
        if rng.random() < 0.5:
            # A contiguous range, like a copy loop.
            start = rng.randrange(line_universe)
            length = rng.randint(1, 24)
            trace.append(list(range(start, start + length)))
        else:
            # Scattered singles, like pointer chasing.
            trace.append([rng.randrange(line_universe)])
    return trace


def make_cpus(params, costs, n_cpus=2):
    """``n_cpus`` reference CPUs sharing one memory system, plus a
    branch-free function to charge (the conftest ``rig`` layout)."""
    memsys = MemorySystem()
    accounting = ExactAccounting()
    cpus = [Cpu(i, params, costs, memsys, accounting) for i in range(n_cpus)]
    fn = FunctionTable(AddressSpace()).register("walk_fn", "engine",
                                                branch_frac=0.0)
    return cpus, fn


class LevelModel:
    """The line-at-a-time statement of the data hierarchy: one
    :class:`SetAssocCache` per level per CPU, driven through
    ``access`` -- L2 only on an L1 miss, L3 only on an L2 miss -- and a
    write drops the line from every level of every other CPU (the
    MESI invalidation ``make_exclusive`` sends)."""

    def __init__(self, params, n_cpus):
        self.levels = [
            (SetAssocCache(params.l1), SetAssocCache(params.l2),
             SetAssocCache(params.l3))
            for _ in range(n_cpus)
        ]

    def touch(self, index, addr, size, write):
        l1, l2, l3 = self.levels[index]
        for line in line_span(addr, size):
            if not l1.access(line) and not l2.access(line):
                l3.access(line)
            if write:
                for other, caches in enumerate(self.levels):
                    if other == index:
                        continue
                    for cache in caches:
                        bucket = cache._sets[line & cache._mask]
                        if line in bucket:
                            bucket.remove(line)

    def mismatch(self, cpus):
        """The first (cpu, level) whose sets or counters differ."""
        for cpu, caches in zip(cpus, self.levels):
            for name, real, ref in zip(("l1", "l2", "l3"),
                                       (cpu.l1, cpu.l2, cpu.l3), caches):
                if (cache_state(real) != cache_state(ref)
                        or (real.hits, real.misses)
                        != (ref.hits, ref.misses)):
                    return "CPU%d %s" % (cpu.index, name)
        return None


class TestBatchedEquivalence:
    def test_access_lines_equals_n_accesses(self, tiny_params, costs):
        """The fused data walk over random read and write ranges on two
        CPUs equals per-line, per-level ``access`` calls plus the
        write invalidations, compared after every charge."""
        span = 512 * CACHE_LINE  # 8x the L3: every level evicts
        sizes = (1, 8, 64, 100, 256, 1000, 2048, 4096)
        for seed in range(6):
            rng = random.Random(seed)
            cpus, fn = make_cpus(tiny_params, costs)
            model = LevelModel(tiny_params, len(cpus))
            for step in range(300):
                index = rng.randrange(len(cpus))
                reads = [(rng.randrange(span), rng.choice(sizes))
                         for _ in range(rng.randint(0, 2))]
                writes = [(rng.randrange(span), rng.choice(sizes))
                          for _ in range(rng.randint(0, 2))]
                if rng.random() < 0.3 and reads:
                    # Re-touch a range just read: MRU and non-MRU hits.
                    writes.append(reads[0])
                cpus[index].charge(fn, 10, reads=reads, writes=writes)
                for addr, size in reads:
                    model.touch(index, addr, size, write=False)
                for addr, size in writes:
                    model.touch(index, addr, size, write=True)
                where = model.mismatch(cpus)
                assert where is None, (
                    "seed %d step %d: %s diverged" % (seed, step, where)
                )

    def test_miss_count_equals_n_accesses(self):
        # The trace cache's batched fetch against per-line ``access``.
        geometry = CacheGeometry(1024, 4, line=64, name="TC")
        for seed in range(5):
            ref = SetAssocCache(geometry)
            bat = TraceCache(geometry)
            for lines in random_trace(seed + 100, 40, 256):
                ref_misses = sum(not ref.access(line) for line in lines)
                assert bat.miss_count(lines) == ref_misses
                assert trace_cache_state(bat) == cache_state(ref)
            assert (bat.hits, bat.misses) == (ref.hits, ref.misses)

    def test_miss_count_generator_equals_n_accesses(self):
        # One-shot iterables must be walked exactly once, line by line.
        geometry = CacheGeometry(1024, 4, line=64, name="TC")
        for seed in range(5):
            ref = SetAssocCache(geometry)
            bat = TraceCache(geometry)
            for lines in random_trace(seed + 300, 40, 256):
                ref_misses = sum(not ref.access(line) for line in lines)
                gen = (line for line in lines)
                assert bat.miss_count(gen) == ref_misses
                assert trace_cache_state(bat) == cache_state(ref)
            assert (bat.hits, bat.misses) == (ref.hits, ref.misses)

    def test_miss_count_generator_on_all_mru_walk(self):
        # Warm the lines to MRU, then re-fetch them through a generator.
        geometry = CacheGeometry(1024, 4, line=64, name="TC")
        ref = SetAssocCache(geometry)
        bat = TraceCache(geometry)
        warm = [3, 7, 11]
        ref_first = sum(not ref.access(line) for line in warm)
        assert bat.miss_count(line for line in warm) == ref_first
        ref_again = sum(not ref.access(line) for line in warm)
        assert ref_again == 0
        assert bat.miss_count(line for line in warm) == 0
        assert (bat.hits, bat.misses) == (ref.hits, ref.misses)
        assert trace_cache_state(bat) == cache_state(ref)

    def test_trace_cache_equals_set_assoc(self):
        geometry = CacheGeometry(2048, 8, line=64, name="TC")
        for seed in range(5):
            ref = SetAssocCache(geometry)
            alt = TraceCache(geometry)
            for lines in random_trace(seed + 200, 60, 512):
                ref_misses = sum(not ref.access(line) for line in lines)
                assert alt.miss_count(lines) == ref_misses
                assert trace_cache_state(alt) == cache_state(ref)
            assert (alt.hits, alt.misses) == (ref.hits, ref.misses)

    def test_tlb_access_range_equals_n_accesses(self):
        geometry = TlbGeometry(8, name="T")
        page = 4096
        for seed in range(5):
            rng = random.Random(seed)
            ref = Tlb(geometry)
            bat = Tlb(geometry)
            for _ in range(60):
                addr = rng.randrange(64) * page + rng.randrange(page)
                size = rng.choice([1, 64, page, 3 * page, 17 * page])
                want = sum(
                    not ref.access(p)
                    for p in range(addr // page, (addr + size - 1) // page + 1)
                )
                assert bat.access_range(addr, size) == want
                assert bat._entries == ref._entries
            assert (bat.hits, bat.walks) == (ref.hits, ref.walks)


class TestSetWraparound:
    def test_range_wider_than_the_cache_wraps_sets(self, tiny_params,
                                                    costs):
        # The tiny L1 is 4 sets x 4 ways = 16 lines; a 16-line read
        # lands 4 lines in every set, exactly filling it.
        (cpu,), fn = make_cpus(tiny_params, costs, n_cpus=1)
        cpu.charge(fn, 10, reads=[(0, 16 * CACHE_LINE)])
        assert (cpu.l1.hits, cpu.l1.misses) == (0, 16)
        assert [len(bucket) for bucket in cache_state(cpu.l1)] == [4] * 4
        # The next 16 lines wrap around the index space and evict
        # everything, set by set, LRU first.
        cpu.charge(fn, 10, reads=[(16 * CACHE_LINE, 16 * CACHE_LINE)])
        assert (cpu.l1.hits, cpu.l1.misses) == (0, 32)
        resident = [line for bucket in cache_state(cpu.l1) for line in bucket]
        assert sorted(resident) == list(range(16, 32))

    def test_wraparound_preserves_lru_order_per_set(self):
        c = make_cache(size=1024, ways=4)  # 4 sets
        # Lines 3, 7, 11, 15, 19 all map to set 3; 19 evicts 3.
        for line in (3, 7, 11, 15):
            c.access(line)
        c.access(3)      # refresh: LRU is now 7
        c.access(19)     # wraps the index space (19 & 3 == 3), evicts 7
        assert c.probe(3) and not c.probe(7)
        assert c.probe(11) and c.probe(15) and c.probe(19)


class TestSingleByteRanges:
    def test_line_span_of_one_byte(self):
        assert list(line_span(1000, 1)) == [1000 // CACHE_LINE]
        assert lines_for(1) == 1

    def test_single_byte_straddles_nothing(self):
        # The last byte of a line and the first of the next are
        # different single-line spans, not one two-line span.
        end_of_line = CACHE_LINE - 1
        assert list(line_span(end_of_line, 1)) == [0]
        assert list(line_span(end_of_line + 1, 1)) == [1]
        assert list(line_span(end_of_line, 2)) == [0, 1]

    def test_zero_and_negative_sizes_are_empty(self):
        assert list(line_span(4096, 0)) == []
        assert list(line_span(4096, -8)) == []
        assert lines_for(0) == 1  # floor: a touch is at least one line

    def test_tlb_single_byte(self):
        tlb = Tlb(TlbGeometry(4, name="T"))
        assert tlb.access_range(12345, 1) == 1  # cold: one walk
        assert tlb.access_range(12345, 1) == 0  # now MRU
        assert tlb.access_range(12345, 0) == 0  # empty range: no-op
        assert (tlb.hits, tlb.walks) == (1, 1)


class TestFetchLinesEdges:
    def _spec(self, code_size=1536):
        return FunctionSpec("fn", "engine", code_addr=0x40000,
                            code_size=code_size)

    def test_zero_instructions_still_fetches_one_line(self):
        spec = self._spec()
        lines = spec.fetch_lines(0)
        assert len(lines) == 1
        assert lines == spec.code_lines[:1]

    def test_long_path_is_capped_at_the_static_footprint(self):
        spec = self._spec(code_size=256)  # 4 lines
        assert spec.fetch_lines(10_000) == spec.code_lines
        assert len(spec.code_lines) == 4

    def test_prefixes_are_memoized_and_stable(self):
        spec = self._spec()
        a = spec.fetch_lines(20)
        b = spec.fetch_lines(20)
        assert a is b  # memo returns the identical tuple
        assert a == spec.code_lines[: len(a)]
        # Monotone: more instructions never fetch fewer lines.
        previous = 0
        for instructions in range(0, 600, 7):
            n = len(spec.fetch_lines(instructions))
            assert n >= previous
            previous = n
