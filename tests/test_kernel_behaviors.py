"""Behavioural tests for subtle kernel-model mechanisms.

These pin down the machinery the calibration story depends on:
ksoftirqd fairness, backdated spin accounting, load-gated wake
steering, timeslice preemption, and IPI bookkeeping.
"""

import pytest

from repro.kernel.machine import Machine
from repro.kernel.softirq import NET_RX_SOFTIRQ
from repro.kernel.task import Task, WaitQueue

MS = 2_000_000


@pytest.fixture
def machine():
    return Machine(n_cpus=2, seed=17)


def spec(machine, name="worker", bin="engine"):
    return machine.functions.register(name, bin, branch_frac=0.1)


class TestSoftirqFairness:
    def test_task_progresses_under_interrupt_storm(self, machine):
        """A continuous softirq stream must not starve the CPU's tasks
        (ksoftirqd semantics)."""
        fn = spec(machine)
        progress = [0]
        storms = [0]

        def action(ctx):
            storms[0] += 1
            ctx.charge(spec(machine, "storm_action", "driver"), 2000)
            # Re-raise: there is always more softirq work.
            ctx.raise_softirq(NET_RX_SOFTIRQ)
            return
            yield  # pragma: no cover

        machine.softirqs.register(NET_RX_SOFTIRQ, action)

        def body(ctx):
            while True:
                ctx.charge(fn, 1000)
                progress[0] += 1
                yield ("preempt_check",)

        machine.spawn(Task("victim", body, cpus_allowed=0b01), cpu_index=0)
        machine.start()
        machine.raise_softirq(0, NET_RX_SOFTIRQ)
        machine.run_for(10 * MS)
        assert progress[0] > 100  # task keeps running despite the storm
        assert storms[0] > 100


class TestBackdatedSpin:
    def test_lagging_cpu_observes_contention(self, machine):
        """A lock held and released within one atomic host stretch must
        still look contended to a CPU whose clock lagged the hold."""
        fn = spec(machine)
        lock = machine.new_lock("backdate")

        def fast(ctx):
            yield ("spin", lock)
            ctx.charge(fn, 90_000)  # hold ~30k+ cycles, release inline
            ctx.unlock(lock)

        def slow(ctx):
            ctx.charge(fn, 6_000)  # arrives (in sim time) mid-hold
            yield ("spin", lock)
            ctx.unlock(lock)

        machine.spawn(Task("fast", fast, cpus_allowed=0b01), cpu_index=0)
        machine.spawn(Task("slow", slow, cpus_allowed=0b10), cpu_index=1)
        machine.start()
        machine.run_for(5 * MS)
        assert lock.contended_acquisitions == 1
        assert lock.total_spin_cycles > 0


class TestWakeSteeringLoadGate:
    def test_saturated_waker_repels_steering(self, machine):
        machine.scheduler.cpu_load[0] = 1.0
        machine.scheduler.cpu_load[1] = 0.2
        task = Task("t", lambda ctx: iter(()))
        task.cpus_allowed = 0b11
        task.prev_cpu = 1
        target = machine.scheduler.choose_wake_cpu(task, waker_cpu=0)
        assert target == 1  # stays on its previous CPU

    def test_idle_waker_attracts(self, machine):
        machine.scheduler.cpu_load[0] = 0.2
        task = Task("t", lambda ctx: iter(()))
        task.cpus_allowed = 0b11
        task.prev_cpu = 1
        target = machine.scheduler.choose_wake_cpu(task, waker_cpu=0)
        assert target == 0


class TestTimeslice:
    def test_hog_rotation(self, machine):
        """Equal-priority CPU hogs share via timeslice expiry."""
        fn = spec(machine)
        counts = {"a": 0, "b": 0}

        def hog(name):
            def body(ctx):
                while True:
                    ctx.charge(fn, 2000)
                    counts[name] += 1
                    yield ("preempt_check",)
            return body

        machine.spawn(Task("a", hog("a"), cpus_allowed=0b01), cpu_index=0)
        machine.spawn(Task("b", hog("b"), cpus_allowed=0b01), cpu_index=0)
        machine.start()
        machine.run_for(50 * MS)  # several 10ms timeslices
        assert counts["a"] > 0 and counts["b"] > 0
        ratio = counts["a"] / float(counts["b"])
        assert 0.4 < ratio < 2.6


class TestIpiBookkeeping:
    def test_remote_preempting_wake_sends_ipi(self, machine):
        fn = spec(machine)
        wq = WaitQueue("wq")

        def sleeper(ctx):
            ctx.charge(fn, 100)
            yield ("block", wq)
            ctx.charge(fn, 100)

        def hog(ctx):
            while True:
                ctx.charge(fn, 2000)
                yield ("preempt_check",)

        def waker(ctx):
            # Run long enough that the hog exceeds the preemption
            # threshold, then wake the sleeper (whose prev CPU hosts
            # the hog).
            ctx.charge(fn, 300_000)
            yield ("preempt_check",)
            ctx.wake_up(wq)
            yield ("preempt_check",)

        machine.spawn(Task("sleeper", sleeper, cpus_allowed=0b01),
                      cpu_index=0)
        machine.spawn(Task("hog", hog, cpus_allowed=0b01), cpu_index=0)
        machine.spawn(Task("waker", waker, cpus_allowed=0b10), cpu_index=1)
        machine.start()
        machine.run_for(10 * MS)
        assert machine.procstat.total_ipis(0) >= 1

    def test_ipi_charges_clear_on_target(self, machine):
        from repro.cpu.events import MACHINE_CLEARS

        before = machine.cpus[0].totals[MACHINE_CLEARS]
        machine.start()
        machine._send_ipi(0, at=machine.engine.now)
        machine.run_for(1 * MS)
        delta = machine.cpus[0].totals[MACHINE_CLEARS] - before
        assert delta >= machine.costs.clears_counted_per_ipi
