"""Integration tests for the machine: tasks, interrupts, locks, IPIs."""

import pytest

from repro.cpu.events import MACHINE_CLEARS
from repro.kernel.interrupts import IrqLine
from repro.kernel.machine import Machine
from repro.kernel.task import TASK_DEAD, Task, WaitQueue
from repro.kernel.timers import KernelTimer
from repro.kernel.softirq import NET_RX_SOFTIRQ
from tests.proc_interrupts import deliveries

MS = 2_000_000  # cycles per millisecond at 2 GHz


@pytest.fixture
def machine():
    return Machine(n_cpus=2, seed=7)


def spec(machine, name="worker", bin="engine"):
    return machine.functions.register(name, bin, branch_frac=0.1)


class TestTaskExecution:
    def test_task_runs_and_exits(self, machine):
        fn = spec(machine)
        done = []

        def body(ctx):
            for _ in range(5):
                ctx.charge(fn, 300)
                yield ("preempt_check",)
            done.append(True)

        machine.spawn(Task("t", body))
        machine.start()
        machine.run_for(5 * MS)
        assert done == [True]
        assert machine.tasks[0].state == TASK_DEAD

    def test_two_tasks_share_cpu(self, machine):
        fn = spec(machine)
        progress = {"a": 0, "b": 0}

        def body(name):
            def gen(ctx):
                for _ in range(50):
                    ctx.charge(fn, 500)
                    progress[name] += 1
                    yield ("preempt_check",)
            return gen

        machine.spawn(Task("a", body("a"), cpus_allowed=0b01), cpu_index=0)
        machine.spawn(Task("b", body("b"), cpus_allowed=0b01), cpu_index=0)
        machine.start()
        machine.run_for(20 * MS)
        assert progress["a"] == 50 and progress["b"] == 50

    def test_voluntary_resched_round_robins(self, machine):
        fn = spec(machine)
        order = []

        def body(name):
            def gen(ctx):
                for _ in range(3):
                    ctx.charge(fn, 100)
                    order.append(name)
                    yield ("resched",)
            return gen

        machine.spawn(Task("a", body("a"), cpus_allowed=0b01), cpu_index=0)
        machine.spawn(Task("b", body("b"), cpus_allowed=0b01), cpu_index=0)
        machine.start()
        machine.run_for(5 * MS)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_idle_pull_spreads_tasks(self, machine):
        fn = spec(machine)

        def body(ctx):
            for _ in range(200):
                ctx.charge(fn, 2000)
                yield ("preempt_check",)

        for i in range(2):
            machine.spawn(Task("t%d" % i, body), cpu_index=0)
        machine.start()
        machine.run_for(10 * MS)
        # CPU1 idle-pulled one of the two tasks.
        assert machine.cpus[1].busy_cycles > 0


class TestBlockingAndWakeups:
    def test_block_until_woken(self, machine):
        fn = spec(machine)
        wq = WaitQueue("test")
        log = []

        def sleeper(ctx):
            ctx.charge(fn, 100)
            log.append("sleeping")
            yield ("block", wq)
            log.append("woken")

        def waker(ctx):
            ctx.charge(fn, 50_000)  # let the sleeper block first
            yield ("preempt_check",)
            ctx.wake_up(wq)
            log.append("woke-it")
            yield ("preempt_check",)

        machine.spawn(Task("sleeper", sleeper, cpus_allowed=0b01), cpu_index=0)
        machine.spawn(Task("waker", waker, cpus_allowed=0b10), cpu_index=1)
        machine.start()
        machine.run_for(10 * MS)
        assert log == ["sleeping", "woke-it", "woken"]

    def test_block_condition_avoids_lost_wakeup(self, machine):
        fn = spec(machine)
        flag = {"ready": True}
        log = []

        def sleeper(ctx):
            ctx.charge(fn, 100)
            yield ("block", WaitQueue("never"), lambda: flag["ready"])
            log.append("did-not-sleep")

        machine.spawn(Task("s", sleeper), cpu_index=0)
        machine.start()
        machine.run_for(MS)
        assert log == ["did-not-sleep"]

    def test_cross_cpu_wake_of_idle_cpu_sends_ipi(self, machine):
        fn = spec(machine)
        wq = WaitQueue("wq")

        def sleeper(ctx):
            ctx.charge(fn, 100)
            yield ("block", wq)
            ctx.charge(fn, 100)

        def waker(ctx):
            ctx.charge(fn, 100_000)
            yield ("preempt_check",)
            ctx.wake_up(wq)
            yield ("preempt_check",)

        machine.spawn(Task("sleeper", sleeper, cpus_allowed=0b01), cpu_index=0)
        machine.spawn(Task("waker", waker, cpus_allowed=0b10), cpu_index=1)
        machine.start()
        machine.run_for(10 * MS)
        assert machine.procstat.total_ipis(0) >= 1
        # The IPI's machine clear was counted on CPU0.
        assert machine.cpus[0].totals[MACHINE_CLEARS] > 0


class TestSpinlocks:
    def test_uncontended_lock_cheap(self, machine):
        fn = spec(machine)
        lock = machine.new_lock("sk")

        def body(ctx):
            ctx.charge(fn, 100)
            yield ("spin", lock)
            ctx.charge(fn, 100)
            ctx.unlock(lock)

        machine.spawn(Task("t", body), cpu_index=0)
        machine.start()
        machine.run_for(MS)
        assert lock.acquisitions == 1
        assert lock.contended_acquisitions == 0
        assert lock.total_spin_cycles == 0

    def test_contended_lock_spins(self, machine):
        fn = spec(machine)
        lock = machine.new_lock("sk")
        order = []

        def holder(ctx):
            yield ("spin", lock)
            order.append("held")
            ctx.charge(fn, 60_000)  # hold ~20k+ cycles
            ctx.unlock(lock)
            order.append("released")

        def contender(ctx):
            ctx.charge(fn, 3000)  # arrive second
            yield ("spin", lock)
            order.append("acquired")
            ctx.unlock(lock)

        machine.spawn(Task("h", holder, cpus_allowed=0b01), cpu_index=0)
        machine.spawn(Task("c", contender, cpus_allowed=0b10), cpu_index=1)
        machine.start()
        machine.run_for(10 * MS)
        assert order == ["held", "released", "acquired"]
        assert lock.contended_acquisitions == 1
        assert lock.total_spin_cycles > 0

    def test_blocking_with_lock_held_raises(self, machine):
        lock = machine.new_lock("sk")
        wq = WaitQueue("wq")

        def bad(ctx):
            yield ("spin", lock)
            yield ("block", wq)

        machine.spawn(Task("bad", bad), cpu_index=0)
        machine.start()
        with pytest.raises(RuntimeError, match="locks held"):
            machine.run_for(MS)


class TestInterrupts:
    def test_irq_delivered_to_affinity_cpu(self, machine):
        hits = []

        def handler(ctx):
            ctx.charge(machine.functions.get("IRQ0x19_interrupt"), 200)
            hits.append(ctx.cpu_index)

        line = machine.register_irq(IrqLine(0x19, "eth0", handler))
        machine.start()
        machine.engine.schedule_at(1000, lambda: machine.raise_irq(0x19))
        machine.run_for(MS)
        assert hits == [0]
        assert deliveries(machine.procstat, 0x19) == [1, 0]

        line.set_affinity(0b10)
        machine.engine.schedule_at(
            machine.engine.now + 1000, lambda: machine.raise_irq(0x19)
        )
        machine.run_for(MS)
        assert hits == [0, 1]
        assert deliveries(machine.procstat, 0x19) == [1, 1]

    def test_irq_machine_clear_split_between_victim_and_handler(self, machine):
        """Device-IRQ clears skid: half to the interrupted code, half
        to the handler entry (the paper's Table 4 shows both)."""

        def handler(ctx):
            pass

        machine.register_irq(IrqLine(0x20, "eth1", handler))
        machine.start()
        machine.engine.schedule_at(1000, lambda: machine.raise_irq(0x20))
        machine.run_for(MS)
        per_fn = machine.accounting.per_function(include_idle=True)
        counted = machine.costs.clears_counted_per_irq
        handler_clears = per_fn["IRQ0x20_interrupt"][1][MACHINE_CLEARS]
        assert handler_clears == counted - counted // 2
        total = sum(v[1][MACHINE_CLEARS] for v in per_fn.values())
        # The other half went to whatever was interrupted (idle here),
        # plus tick clears.
        assert total >= counted

    def test_irq_interrupts_running_task(self, machine):
        fn = spec(machine)
        times = {}

        def handler(ctx):
            times["irq"] = ctx.now

        machine.register_irq(IrqLine(0x21, "eth2", handler))

        def body(ctx):
            for _ in range(1000):
                ctx.charge(fn, 1000)
                yield ("preempt_check",)

        machine.spawn(Task("busy", body, cpus_allowed=0b01), cpu_index=0)
        machine.start()
        machine.engine.schedule_at(100_000, lambda: machine.raise_irq(0x21))
        machine.run_for(2 * MS)
        # Delivered promptly (within a handful of function executions).
        assert 100_000 <= times["irq"] < 200_000


class TestSoftirqs:
    def test_softirq_runs_on_raising_cpu(self, machine):
        runs = []

        def action(ctx):
            ctx.charge(spec(machine, "net_rx_action", "driver"), 400)
            runs.append(ctx.cpu_index)
            yield ("preempt_check",) if False else None  # make it a generator
            return

        def gen_action(ctx):
            ctx.charge(spec(machine, "net_rx_action", "driver"), 400)
            runs.append(ctx.cpu_index)
            return
            yield  # pragma: no cover

        machine.softirqs.register(NET_RX_SOFTIRQ, gen_action)

        def handler(ctx):
            ctx.raise_softirq(NET_RX_SOFTIRQ)

        line = machine.register_irq(IrqLine(0x22, "eth3", handler))
        line.set_affinity(0b10)
        machine.start()
        machine.engine.schedule_at(1000, lambda: machine.raise_irq(0x22))
        machine.run_for(MS)
        assert runs == [1]


class TestTimers:
    def test_timer_fires_after_delay(self, machine):
        fired = []

        def handler(ctx):
            fired.append(ctx.now)
            return
            yield  # pragma: no cover

        timer = KernelTimer("test", handler)

        def body(ctx):
            ctx.charge(spec(machine), 100)
            ctx.add_timer(timer, 3 * MS)
            yield ("preempt_check",)

        machine.spawn(Task("t", body), cpu_index=0)
        machine.start()
        machine.run_for(10 * MS)
        assert len(fired) == 1
        assert fired[0] >= 3 * MS
        assert not timer.pending

    def test_cancelled_timer_does_not_fire(self, machine):
        fired = []

        def handler(ctx):
            fired.append(1)
            return
            yield  # pragma: no cover

        timer = KernelTimer("test", handler)

        def body(ctx):
            ctx.charge(spec(machine), 100)
            ctx.add_timer(timer, 3 * MS)
            yield ("preempt_check",)
            ctx.charge(spec(machine), 100)
            ctx.del_timer(timer)
            yield ("preempt_check",)

        machine.spawn(Task("t", body), cpu_index=0)
        machine.start()
        machine.run_for(10 * MS)
        assert fired == []
        assert not timer.pending


class TestTicksAndMeasurement:
    def test_ticks_happen_on_both_cpus(self, machine):
        machine.start()
        machine.run_for(10 * MS)
        assert machine.states[0].tick_count >= 9
        assert machine.states[1].tick_count >= 9

    def test_reset_measurement_zeroes_counters(self, machine):
        fn = spec(machine)

        def body(ctx):
            for _ in range(10_000):
                ctx.charge(fn, 1000)
                yield ("preempt_check",)

        machine.spawn(Task("t", body), cpu_index=0)
        machine.start()
        machine.run_for(5 * MS)
        machine.reset_measurement()
        assert machine.cpus[0].busy_cycles == 0
        assert machine.accounting.per_function() == {}
        machine.run_for(5 * MS)
        assert machine.cpus[0].busy_cycles > 0
        assert machine.window_cycles == pytest.approx(5 * MS, rel=0.01)

    def test_utilization_bounds(self, machine):
        fn = spec(machine)

        def body(ctx):
            while True:
                ctx.charge(fn, 1000)
                yield ("preempt_check",)

        machine.spawn(Task("hog", body, cpus_allowed=0b01), cpu_index=0)
        machine.start()
        machine.run_for(2 * MS)
        machine.reset_measurement()
        machine.run_for(10 * MS)
        assert machine.utilization(0) > 0.95
        assert machine.utilization(1) < 0.2
