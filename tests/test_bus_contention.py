"""Tests for the shared front-side-bus contention model."""


from repro.cpu.params import CostModel
from repro.kernel.machine import Machine
from repro.kernel.task import Task
from repro.mem.layout import CACHE_LINE
from repro.mem.system import MemorySystem

MS = 2_000_000


class TestBusMath:
    def test_idle_bus_no_delay(self):
        memsys = MemorySystem()
        memsys.update_bus(0, 1_000_000, CostModel())
        assert memsys.bus_delay == 0

    def test_delay_grows_with_utilization(self):
        costs = CostModel()
        delays = []
        for load in (0.1, 0.4, 0.8):
            m = MemorySystem()
            for _ in range(10):  # let the EWMA converge
                m.update_bus(int(load * 1_000_000), 1_000_000, costs)
            delays.append(m.bus_delay)
        assert delays[0] < delays[1] < delays[2]

    def test_delay_capped(self):
        costs = CostModel()
        memsys = MemorySystem()
        for _ in range(20):
            memsys.update_bus(10_000_000, 1_000_000, costs)
        assert memsys.bus_delay <= costs.bus_max_delay

    def test_utilization_clamped(self):
        memsys = MemorySystem()
        memsys.update_bus(10 ** 9, 1, CostModel())
        assert memsys.bus_utilization <= 0.95


class TestBusInMachine:
    def test_miss_storm_raises_bus_delay(self):
        machine = Machine(n_cpus=2, seed=31)
        fn = machine.functions.register("streamer", "engine",
                                        branch_frac=0.0)
        # Two streaming tasks larger than L3: every line misses.
        bufs = [machine.space.alloc_page_aligned("s%d" % i, 4 << 20)
                for i in range(2)]

        def body(buf):
            def gen(ctx):
                while True:
                    for off in range(0, buf.size, 64 * 64):
                        ctx.charge(fn, 200,
                                   reads=[(buf.addr + off, 64 * 64)])
                        yield ("preempt_check",)
            return gen

        for i in range(2):
            machine.spawn(Task("t%d" % i, body(bufs[i]),
                               cpus_allowed=1 << i), cpu_index=i)
        machine.start()
        machine.run_for(6 * MS)
        assert machine.memsys.bus_utilization > 0.1
        assert machine.memsys.bus_delay > 0

    def test_quiet_machine_has_no_bus_delay(self):
        machine = Machine(n_cpus=2, seed=31)
        machine.start()
        machine.run_for(6 * MS)
        assert machine.memsys.bus_delay == 0

    def test_bus_delay_charged_to_misses(self):
        machine = Machine(n_cpus=2, seed=31)
        fn = machine.functions.register("t", "engine", branch_frac=0.0)
        buf = machine.space.alloc_page_aligned("b", 2 * CACHE_LINE)
        first, second = buf.addr, buf.addr + CACHE_LINE
        machine.cpus[0].charge(fn, 3)  # warm code/TLB paths first
        machine.memsys.bus_delay = 100
        cold = machine.cpus[0].charge(fn, 3, reads=[(first, CACHE_LINE)])
        machine.memsys.bus_delay = 0
        cold_no_bus = machine.cpus[0].charge(
            fn, 3, reads=[(second, CACHE_LINE)]
        )
        # Two never-touched lines on one page: identical cold reads
        # except the DTLB (warm the second time) and the injected bus
        # delay.
        assert cold - cold_no_bus == 100 + machine.costs.dtlb_walk
