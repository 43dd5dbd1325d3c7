"""Pure vs compiled engine, compared state by state on random scripts.

Every cache, TLB, branch-predictor and coherence transition exists
twice: in the reference classes (``repro.cpu.cache``, ``tlb``,
``branch``, ``repro.mem.system``, ``repro.prof.accounting``), which
are the pure engine, and in the C core (``repro.cpu._enginecore``),
which runs over the flat-array layouts (``repro.cpu.arraystate``,
``repro.mem.directory``, ``repro.mem.arraysystem``,
``repro.prof.slotaccounting``).  The differential below builds one
``Machine`` per engine with tiny caches, TLBs and predictor, drives
both through the same seeded script -- charges in every calling form,
device DMA, DTLB flushes, machine clears, sibling load and bus-delay
updates -- and requires identical state after *every* operation:

* each cache level's sets (MRU order) and hit/miss counts, and the
  trace cache;
* TLB residency, hits and walks;
* the predictor's LRU order, per-function warmth and residual,
  mispredicts and cold events;
* the memory-system counters and directory size, plus sharers and
  owner of every line the operation touched (no other directory entry
  can change, so by induction the whole directory matches);
* accounting rows, in order;
* each CPU's clock, busy cycles, totals and skid attribution.

A failure names the operation and the diverging component.  Each test
class weights the script towards one component; all of them compare
everything.  Seeds are fixed, so a failure replays exactly; odd seeds
run a HyperThreading machine.  The layouts C binds without a Python
transition (directory table, TLB compaction, accounting rows, counter
views) get direct component tests at the end.
"""

import random
from array import array
from collections import namedtuple

import pytest

from repro.cpu.arraystate import ArrayTlb
from repro.cpu.engine import load_core
from repro.cpu.events import SKID_PERIOD
from repro.cpu.function import FunctionSpec
from repro.cpu.params import CacheGeometry, CostModel, CpuParams, TlbGeometry
from repro.kernel.machine import Machine
from repro.mem.arraysystem import (
    MS_C2C,
    MS_INVALIDATIONS,
    CompiledMemorySystem,
)
from repro.mem.directory import LineDirectory
from repro.mem.layout import CACHE_LINE, PAGE_SIZE, line_span
from repro.mem.system import MemorySystem
from repro.prof.accounting import ExactAccounting
from repro.prof.slotaccounting import (
    REG_GENERATION,
    ArrayAccounting,
    SlotRegistry,
)

needs_compiled = pytest.mark.skipif(
    load_core() is None, reason="compiled engine unavailable (no cc?)")

N_OPS = 1500

#: What a script is weighted towards.  ``weights`` are relative
#: frequencies of (charge, dma_write, dma_read, flush_below,
#: machine_clear, sibling load, bus update); ``pages`` is the size of
#: the data region, ``hot`` the number of lines every CPU fights over.
Mix = namedtuple("Mix", "n_specs pages hot weights")
OPS = ("charge", "dma_write", "dma_read", "flush_below", "clear", "load",
       "bus")

CACHE_MIX = Mix(8, 3, 6, (80, 4, 4, 2, 2, 4, 4))
FETCH_MIX = Mix(40, 2, 4, (90, 2, 2, 1, 2, 2, 1))
TLB_MIX = Mix(10, 12, 4, (70, 4, 4, 14, 2, 3, 3))
PREDICTOR_MIX = Mix(16, 2, 4, (88, 2, 2, 1, 3, 2, 2))
COHERENCE_MIX = Mix(8, 3, 12, (60, 14, 14, 2, 2, 4, 4))
#: More specs than a fresh registry's 256 slots: growth mid-trace.
GROWTH_MIX = Mix(300, 3, 6, (85, 3, 3, 2, 2, 3, 2))

SIZES = (0, 1, 8, 60, 64, 100, 130, 256, 1000, PAGE_SIZE, 6000)


def tiny_params():
    return CpuParams(
        l1=CacheGeometry(512, 2, name="L1D"),
        l2=CacheGeometry(1024, 4, name="L2"),
        l3=CacheGeometry(2048, 4, name="L3"),
        itlb=TlbGeometry(4, name="ITLB"),
        dtlb=TlbGeometry(4, name="DTLB"),
        trace_cache=CacheGeometry(1024, 2, name="TC"),
        bp_capacity=6,
    )


# ---------------------------------------------------------------------
# The script: drawn once, applied to both machines.
# ---------------------------------------------------------------------


def draw_specs(rng, n):
    return [
        dict(name="fn%d" % i, bin="other" if i % 5 == 0 else "engine",
             code_size=rng.choice((64, 256, 1536, 4096)),
             branch_frac=rng.choice((0.0, 0.05, 0.15, 0.3)),
             mispredict_rate=rng.choice((0.0, 0.004, 0.011, 0.3)),
             stall_per_instr=rng.choice((0.0, 0.25, 1.7)),
             stall_per_call=rng.choice((0, 40, 300)))
        for i in range(n)
    ]


def draw_script(rng, mix, n_cpus, data_addr):
    hot = [data_addr + CACHE_LINE * rng.randrange(mix.pages * 64)
           for _ in range(mix.hot)]
    span = mix.pages * PAGE_SIZE
    first_page = data_addr // PAGE_SIZE

    def addr():
        if rng.random() < 0.5:
            return rng.choice(hot) + rng.randrange(CACHE_LINE)
        return data_addr + rng.randrange(span)

    def ranges():
        return [(addr(), rng.choice(SIZES))
                for _ in range(rng.choice((0, 0, 1, 1, 2, 3)))]

    script = []
    for _ in range(N_OPS):
        kind = rng.choices(OPS, mix.weights)[0]
        cpu = rng.randrange(n_cpus)
        if kind == "charge":
            explicit = rng.random() < 0.25
            script.append((
                kind, cpu, rng.randrange(mix.n_specs),
                rng.choice((0, 1, 7, 60, 300, 1200, 2500)),
                ranges(), ranges(), rng.choice((0, 0, 90, 1500)),
                rng.randrange(40) if explicit else None,
                rng.randrange(4) if explicit else None,
                rng.randrange(4)))
        elif kind in ("dma_write", "dma_read"):
            script.append((kind, addr(), rng.choice(SIZES)))
        elif kind == "flush_below":
            script.append((kind, cpu,
                           first_page + rng.randrange(-1, mix.pages + 1)))
        elif kind == "clear":
            script.append((kind, cpu, rng.randrange(mix.n_specs),
                           rng.randrange(1, 40), rng.random() < 0.7))
        elif kind == "load":
            script.append((kind, cpu, rng.choice((0.0, 0.2, 0.37, 0.9))))
        else:
            script.append((kind, rng.randrange(5000),
                           rng.choice((0, 1000, 4000))))
    return script


def apply(machine, specs, op):
    """Run one script operation; returns what the call returned."""
    kind = op[0]
    if kind == "charge":
        (_, cpu, spec, instructions, reads, writes, extra, branches,
         mispredicts, form) = op
        cpu, spec = machine.cpus[cpu], specs[spec]
        if form == 0:  # ExecContext.charge: all seven positional
            return cpu.charge(spec, instructions, reads, writes, extra,
                              branches, mispredicts)
        if form == 1:  # Machine._charge_spin_wait
            return cpu.charge(spec, instructions, reads=reads,
                              writes=writes, extra_cycles=extra,
                              branches=branches, mispredicts=mispredicts)
        if form == 2:  # Machine._dispatch
            return cpu.charge(spec, instructions, reads=reads,
                              writes=writes, extra_cycles=extra)
        return cpu.charge(spec, instructions, reads=reads)  # tick / IPI
    if kind == "dma_write":
        return machine.memsys.dma_write(op[1], op[2])
    if kind == "dma_read":
        return machine.memsys.dma_read(op[1], op[2])
    if kind == "flush_below":
        return machine.cpus[op[1]].dtlb.flush_below(op[2])
    if kind == "clear":
        return machine.cpus[op[1]].machine_clear(specs[op[2]], op[3], op[4])
    if kind == "load":
        machine.cpus[op[1]].recent_load = op[2]
        return None
    return machine.memsys.update_bus(op[1], op[2], machine.costs)


def touched_lines(op):
    """Lines whose directory entry ``op`` may change."""
    if op[0] == "charge":
        return [line for addr, size in op[4] + op[5]
                for line in line_span(addr, size)]
    if op[0] in ("dma_write", "dma_read"):
        return list(line_span(op[1], op[2]))
    return []


# ---------------------------------------------------------------------
# State views: the same shape from the reference and the array classes.
# ---------------------------------------------------------------------


def _name(spec):
    return None if spec is None else spec.name


def common_state(machine):
    memsys = machine.memsys
    out = {
        "memory-system counters": (
            memsys.invalidations, memsys.c2c_transfers,
            memsys.dma_lines_read, memsys.dma_lines_written,
            memsys.bus_delay, memsys.bus_utilization, len(memsys.directory)),
        "accounting rows": [(cpu, spec.name, list(vec))
                            for (cpu, spec), vec in machine.accounting.rows()],
    }
    for cpu in machine.cpus:
        out["%s clock" % cpu.name] = (
            cpu.now, cpu.busy_cycles, list(cpu.totals),
            _name(cpu.last_spec), _name(cpu.skid_spec), cpu._skid_acc)
    return out


def cores(machine):
    """One CPU per physical core (HT siblings share every component)."""
    return [cpu for cpu in machine.cpus
            if cpu.sibling is None or cpu.index < cpu.sibling.index]


def reference_state(machine):
    out = common_state(machine)
    for cpu in cores(machine):
        for level in ("l1", "l2", "l3"):
            cache = getattr(cpu, level)
            out["%s %s" % (cpu.name, level)] = (
                [list(bucket) for bucket in cache._sets],
                cache.hits, cache.misses)
        tc = cpu.trace_cache
        # Reference trace-cache sets are dicts in LRU-to-MRU order.
        out[cpu.name + " trace cache"] = (
            [list(reversed(bucket)) for bucket in tc._sets],
            tc.hits, tc.misses)
        for name in ("itlb", "dtlb"):
            tlb = getattr(cpu, name)
            out["%s %s" % (cpu.name, name)] = (
                tlb.resident_pages(), tlb.hits, tlb.walks)
        bp = cpu.branch_predictor
        out[cpu.name + " predictor"] = (
            [(name, seen, residual)
             for name, (seen, residual) in bp._entries.items()],
            bp.mispredicts, bp.cold_events)
    return out


def array_state(machine):
    out = common_state(machine)
    slot_of = machine.registry._name_to_slot
    for cpu in cores(machine):
        for level in ("l1", "l2", "l3"):
            cache = getattr(cpu, level)
            out["%s %s" % (cpu.name, level)] = (
                cache.sets_snapshot(), cache.hits, cache.misses)
        tc = cpu.trace_cache
        out[cpu.name + " trace cache"] = (
            tc.sets_snapshot(), tc.hits, tc.misses)
        for name in ("itlb", "dtlb"):
            tlb = getattr(cpu, name)
            out["%s %s" % (cpu.name, name)] = (
                tlb.resident_pages(), tlb.hits, tlb.walks)
        bp = cpu.branch_predictor
        out[cpu.name + " predictor"] = (
            [(name, bp._seen[slot_of[name]], bp._residual[slot_of[name]])
             for name in bp.tracked_names()],
            bp.mispredicts, bp.cold_events)
    return out


def directory_state(machine, lines):
    memsys = machine.memsys
    return [(line, memsys.sharers_of(line), memsys.owner_of(line))
            for line in lines]


# ---------------------------------------------------------------------
# The differential.
# ---------------------------------------------------------------------


def rebuild_engine_state(machine):
    """Bind ``machine``'s compiled core to a fresh engine state, which
    re-reads the memory system's configuration."""
    core = load_core()
    state = core.build_state({
        "registry": machine.registry,
        "accounting": machine.accounting,
        "memsys": machine.memsys,
        "costs": machine.costs,
        "cpus": machine.cpus,
        "skid_period": SKID_PERIOD,
    })
    machine.memsys.bind_state(core, state)


def run_differential(seed, mix, dma_read_invalidates=True):
    """Drive a pure and a compiled machine through one script,
    comparing after every operation; returns both machines."""
    rng = random.Random(seed)
    ht = seed % 2 == 1
    machines = [Machine(n_cpus=2 if ht else 3, cpu_params=tiny_params(),
                        seed=seed, hyperthreading=ht, engine=engine)
                for engine in ("pure", "compiled")]
    pure, compiled = machines
    assert compiled.charge_engine == "compiled"
    if not dma_read_invalidates:
        for machine in machines:
            machine.memsys.dma_read_invalidates = False
        rebuild_engine_state(compiled)
    spec_args = draw_specs(rng, mix.n_specs)
    specs = [[m.functions.register(**args) for args in spec_args]
             for m in machines]
    data = [m.space.alloc_page_aligned("diff", mix.pages * PAGE_SIZE)
            for m in machines]
    assert data[0].addr == data[1].addr
    script = draw_script(rng, mix, pure.n_cpus, data[0].addr)
    seen_lines = set()
    for k, op in enumerate(script):
        results = [apply(m, s, op) for m, s in zip(machines, specs)]
        assert results[0] == results[1], (
            "op %d %r: returned %r (pure) vs %r (compiled)"
            % (k, op, results[0], results[1]))
        want, got = reference_state(pure), array_state(compiled)
        if want != got:
            for key in want:
                assert want[key] == got[key], (
                    "op %d %r: %s diverged" % (k, op, key))
        lines = touched_lines(op)
        seen_lines.update(lines)
        assert directory_state(pure, lines) == directory_state(
            compiled, lines), "op %d %r: directory diverged" % (k, op)
    lines = sorted(seen_lines)
    assert directory_state(pure, lines) == directory_state(compiled, lines)
    return pure, compiled


def assert_hyperthreaded(machine):
    """Logical CPU pairs share one cache hierarchy and one domain."""
    first, second = machine.cpus[:2]
    assert first.sibling is second and second.sibling is first
    assert first.l1 is second.l1 and first.domain == second.domain


def _evictions(cache):
    """Misses beyond the cache's capacity: fills that evicted a line."""
    return cache.misses - len(cache._sets) * cache._ways


@needs_compiled
class TestCacheEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_trace(self, seed):
        pure, _ = run_differential(seed, CACHE_MIX)
        cpu = pure.cpus[0]
        assert _evictions(cpu.l1) > 0 and _evictions(cpu.l3) > 0
        assert cpu.l1.hits > 0 and cpu.l3.hits > 0


@needs_compiled
class TestTraceCacheEquivalence:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_fetch_trace(self, seed):
        pure, _ = run_differential(seed, FETCH_MIX)
        tc = pure.cpus[0].trace_cache
        assert tc.hits > 0 and tc.misses > len(tc._sets) * tc._ways
        assert pure.cpus[0].itlb.walks > pure.cpus[0].itlb.geometry.entries


@needs_compiled
class TestTlbEquivalence:
    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_random_trace(self, seed):
        pure, _ = run_differential(seed, TLB_MIX)
        dtlb = pure.cpus[0].dtlb
        assert dtlb.hits > 0 and dtlb.walks > dtlb.geometry.entries

    def test_flush_below_keeps_buffer_identity(self):
        # The C engine binds the page buffer once; compaction must not
        # reallocate it.
        tlb = ArrayTlb(TlbGeometry(entries=4, name="test"))
        buf = tlb._pages
        buf[:] = array("q", [8, 2, 9, 1])  # MRU first
        tlb.flush_below(5)
        assert tlb._pages is buf
        assert tlb.resident_pages() == [8, 9]
        assert list(buf) == [8, 9, -1, -1]


@needs_compiled
class TestBranchPredictorEquivalence:
    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_random_trace(self, seed):
        pure, _ = run_differential(seed, PREDICTOR_MIX)
        bp = pure.cpus[0].branch_predictor
        # Evictions: more cold starts than the predictor has entries.
        assert bp.cold_events > 3 * bp._capacity
        assert bp.mispredicts > 0


class TestMemorySystemEquivalence:
    @needs_compiled
    @pytest.mark.parametrize("seed", [13, 14])
    @pytest.mark.parametrize("dma_read_invalidates", [True, False])
    def test_random_coherence_trace(self, seed, dma_read_invalidates):
        pure, compiled = run_differential(seed, COHERENCE_MIX,
                                          dma_read_invalidates)
        if seed == 13:
            assert_hyperthreaded(compiled)
        memsys = pure.memsys
        assert memsys.invalidations > 100 and memsys.c2c_transfers > 10
        assert memsys.dma_lines_read > 0 and memsys.dma_lines_written > 0

    @needs_compiled
    def test_counter_reset_assignment(self):
        # Machine.reset_measurement assigns these counters directly; the
        # writes must land in the buffer the C core adds into.
        machine = Machine(n_cpus=2, engine="compiled")
        fn = machine.functions.register("t", "engine")
        memsys = machine.memsys
        # A dirty line bouncing between the CPUs: every write after the
        # first is one invalidation and one cache-to-cache transfer.
        for cpu in machine.cpus:
            cpu.charge(fn, 10, writes=[(0x10000, CACHE_LINE)])
        assert (memsys.invalidations, memsys.c2c_transfers) == (1, 1)
        memsys.invalidations = 0
        memsys.c2c_transfers = 0
        assert memsys._stats[MS_INVALIDATIONS] == memsys._stats[MS_C2C] == 0
        machine.cpus[0].charge(fn, 10, writes=[(0x10000, CACHE_LINE)])
        assert (memsys.invalidations, memsys.c2c_transfers) == (1, 1)

    def test_bus_update_matches_reference(self):
        costs = CostModel()
        ref = MemorySystem()
        arr = CompiledMemorySystem()
        rng = random.Random(15)
        for _ in range(100):
            slots = rng.randrange(0, 5000)
            window = rng.choice([0, 1000, 4000])
            ref.update_bus(slots, window, costs)
            arr.update_bus(slots, window, costs)
            assert arr.bus_utilization == ref.bus_utilization
            assert arr.bus_delay == ref.bus_delay


class TestLineDirectory:
    def test_random_inserts_against_dict(self):
        rng = random.Random(12)
        model = {}
        directory = LineDirectory(initial_slots=16)
        # Contiguous zones plus scattered lines; enough to force growth.
        lines = list(range(1000, 1200)) + [rng.randrange(1 << 40)
                                           for _ in range(200)]
        rng.shuffle(lines)
        for line in lines:
            if line not in model:
                model[line] = [rng.randrange(16), rng.randrange(-1, 4)]
                directory.insert(line, *model[line])
            else:
                idx = directory.find(line)
                model[line][0] |= 1 << rng.randrange(4)
                directory._sharers[idx] = model[line][0]
        assert len(directory) == len(model)
        for line, (sharers, owner) in model.items():
            assert directory.get(line) == (sharers, owner)
            assert line in directory
        assert directory.get(max(model) + 1) is None
        assert sorted(directory.items()) == sorted(
            (line, sharers, owner)
            for line, (sharers, owner) in model.items())

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            LineDirectory(initial_slots=48)


def _spec(name, bin="engine"):
    return FunctionSpec(name=name, bin=bin, code_addr=0x1000, code_size=256)


class TestAccountingEquivalence:
    def test_random_charges_match_reference(self):
        rng = random.Random(16)
        specs = [_spec("fn%d" % i, bin=("engine" if i % 3 else "other"))
                 for i in range(40)]
        registry = SlotRegistry(capacity=8)  # force growth mid-trace
        ref = ExactAccounting()
        arr = ArrayAccounting(n_cpus=2, registry=registry)
        for _ in range(3000):
            spec = rng.choice(specs)
            cpu = rng.randrange(2)
            vec = [rng.randrange(100) for _ in range(11)]
            ref.record(cpu, spec, *vec)
            arr.record(cpu, spec, *vec)
        assert arr.rows() == [
            (key, list(vec)) for key, vec in ref.rows()
        ]
        for cpu_index in (None, 0, 1):
            for include_idle in (False, True):
                assert arr.per_function(cpu_index, include_idle) == \
                    ref.per_function(cpu_index, include_idle)
            assert arr.per_bin(cpu_index) == ref.per_bin(cpu_index)
        for include_idle in (False, True):
            assert arr.total(include_idle) == ref.total(include_idle)
        assert arr.cpus() == ref.cpus()

    def test_disabled_records_nothing(self):
        registry = SlotRegistry()
        arr = ArrayAccounting(n_cpus=1, registry=registry)
        arr.enabled = False
        arr.record(0, _spec("fn"), *([1] * 11))
        assert arr.rows() == []
        arr.enabled = True
        arr.record(0, _spec("fn"), *([1] * 11))
        assert len(arr.rows()) == 1

    def test_reset_preserves_slots(self):
        registry = SlotRegistry()
        arr = ArrayAccounting(n_cpus=2, registry=registry)
        spec = _spec("fn")
        arr.record(1, spec, *([2] * 11))
        slot = registry.slot_for(spec)
        arr.reset()
        assert arr.rows() == []
        assert registry.slot_for(spec) == slot

    def test_second_spec_under_known_name_rejected(self):
        # Sharing the first spec's slot would make the compiled engine
        # charge the first spec's code and merge both accounting rows.
        registry = SlotRegistry()
        first = _spec("fn")
        slot = registry.slot_for(first)
        with pytest.raises(ValueError, match="'fn'"):
            registry.slot_for(_spec("fn"))
        assert registry.slot_for(first) == slot
        assert registry.names == ["fn"] and registry.specs == [first]

    @needs_compiled
    def test_registry_growth_notifies_branch_predictor(self):
        # More functions than the registry's initial 256 slots: the
        # predictor and accounting columns grow mid-script, and the C
        # core must re-acquire them (the differential compares the
        # predictor and the rows after every operation).
        _, compiled = run_differential(21, GROWTH_MIX)
        assert_hyperthreaded(compiled)
        registry = compiled.registry
        assert len(registry) > 256
        assert registry.capacity == 512
        assert registry._meta[REG_GENERATION] == 1
        bp = compiled.cpus[0].branch_predictor
        assert len(bp._seen) == len(bp._residual) == 512
