"""The machine: CPUs + scheduler + interrupts + softirqs + timers.

The machine owns per-CPU execution state and advances each CPU through
its *activity stack* -- hard IRQ handlers preempt softirqs preempt the
current task -- by stepping generator-based kernel code and
interpreting the suspension operations it yields (see
:mod:`repro.kernel.context`).  All cross-CPU interactions of the paper
flow through here:

* device interrupts are routed by the IO-APIC and delivered with a
  machine clear charged to the handler's entry stub (how the paper's
  Table 4 sees ``IRQ0xnn_interrupt`` clears);
* cross-CPU wakeups and preemptions send **reschedule IPIs**, whose
  machine clear lands on whatever function the target CPU was running
  (how Table 4 sees ``tcp_sendmsg`` clears pile up on CPU1 in the
  no-affinity mode);
* spin waits park the whole CPU until the holder releases, with the
  wait charged to lock-bin code at Table 2's branch arithmetic.
"""

import functools

from repro.cpu.compiled import cpu_class
from repro.cpu.core import Cpu
from repro.cpu.events import LLC_MISSES, SKID_PERIOD
from repro.cpu.engine import resolve_engine
from repro.cpu.function import FunctionTable
from repro.cpu.params import CostModel, CpuParams
from repro.kernel.context import (
    KIND_HARDIRQ,
    KIND_SOFTIRQ,
    KIND_TASK,
    ExecContext,
)
from repro.kernel.interrupts import IoApic
from repro.kernel.locks import (
    ACQUIRE_BRANCHES,
    ACQUIRE_INSTRUCTIONS,
    RELEASE_INSTRUCTIONS,
    SPIN_ITER_INSTRUCTIONS,
    SpinLock,
    spin_iterations,
)
from repro.kernel.scheduler import Scheduler, SchedulerParams
from repro.kernel.softirq import (
    SOFTIRQ_NAMES,
    SoftirqTable,
    TIMER_SOFTIRQ,
    pending_order,
)
from repro.kernel.task import (
    TASK_BLOCKED,
    TASK_DEAD,
    TASK_READY,
    TASK_RUNNING,
    full_mask,
)
from repro.kernel.timers import TICK_HZ, TimerWheel
from repro.mem.arraysystem import CompiledMemorySystem
from repro.mem.layout import AddressSpace, KERNEL_TEXT_BASE, PAGE_SIZE
from repro.mem.system import MemorySystem
from repro.prof.accounting import ExactAccounting
from repro.prof.slotaccounting import ArrayAccounting, SlotRegistry
from repro.prof.procstat import ProcInterrupts
from repro.sim.events import SimulationEngine
from repro.sim.rng import RngStreams
from repro.sim.units import CYCLES_PER_SECOND_2GHZ

#: Cycles a step may consume before returning to the global event loop
#: (bounds cross-CPU causality error; see DESIGN.md).
STEP_QUANTUM = 4000
#: Suspension ops processed per step before forcing a loop exit --
#: a guard against host-level livelock, not a simulation parameter.
OPS_PER_STEP = 256
#: APIC IPI delivery latency in cycles.
IPI_LATENCY = 500
#: MACHINE_CLEAR events the PMU counts around a local timer tick.
CLEARS_PER_TICK = 4


class CpuState:
    """Per-CPU execution state."""

    __slots__ = (
        "current",
        "softirq_pending",
        "softirq_gen",
        "softirq_ctx",
        "hardirq_ctx",
        "pending_irqs",
        "in_hardirq",
        "halted",
        "need_resched",
        "spinning_lock",
        "spin_start",
        "spin_is_softirq",
        "step_pending",
        "expired_timers",
        "tick_count",
        "last_task",
        "softirq_yield",
    )

    def __init__(self):
        self.current = None
        self.softirq_pending = 0
        self.softirq_gen = None
        self.softirq_ctx = None
        self.hardirq_ctx = None
        self.pending_irqs = []
        self.in_hardirq = False
        self.halted = True
        self.need_resched = False
        self.spinning_lock = None
        self.spin_start = 0
        self.spin_is_softirq = False
        self.step_pending = False
        self.expired_timers = []
        self.tick_count = 0
        self.last_task = None
        #: ksoftirqd fairness: set when a softirq pass ends with work
        #: still pending; the next pass waits until the current task
        #: has had a turn, so streams of interrupts cannot starve
        #: processes queued on the interrupt CPU.
        self.softirq_yield = False


class Machine:
    """A simulated SMP server running the modelled kernel."""

    def __init__(
        self,
        n_cpus=2,
        cpu_params=None,
        costs=None,
        sched_params=None,
        seed=1,
        hz=CYCLES_PER_SECOND_2GHZ,
        hyperthreading=False,
        engine=None,
    ):
        """``hyperthreading=True`` doubles the logical CPU count:
        ``n_cpus`` physical cores each expose two logical processors
        sharing the core's caches and execution resources (the P4
        Xeon's SMT).

        ``engine`` selects the charging engine: ``"pure"`` (reference
        interpreter path), ``"compiled"`` (flat-array state driven by
        the C extension; warns and falls back if unbuildable) or
        ``"auto"`` (compiled if available, silently pure otherwise).
        ``None`` defers to ``$REPRO_ENGINE``, defaulting to pure.  Both
        engines produce bit-identical results; :attr:`charge_engine`
        records which one actually runs."""
        self.physical_cpus = n_cpus
        self.hyperthreading = hyperthreading
        if hyperthreading:
            n_cpus = n_cpus * 2
        self.n_cpus = n_cpus
        self.hz = hz
        self.engine = SimulationEngine()
        self.rng = RngStreams(seed)
        self.space = AddressSpace()
        self.functions = FunctionTable(self.space)
        self.charge_engine, core = resolve_engine(engine)
        self.costs = costs or CostModel()
        cpu_params = cpu_params or CpuParams()
        self.cpus = []
        if core is not None:
            self.registry = SlotRegistry()
            self.memsys = CompiledMemorySystem()
            self.accounting = ArrayAccounting(n_cpus, self.registry)
            make_cpu = functools.partial(cpu_class(core),
                                         registry=self.registry)
        else:
            self.registry = None
            self.memsys = MemorySystem()
            self.accounting = ExactAccounting()
            make_cpu = Cpu
        for i in range(n_cpus):
            share_with = None
            domain = i
            if hyperthreading:
                domain = i // 2
                if i % 2 == 1:
                    share_with = self.cpus[i - 1]
            self.cpus.append(
                make_cpu(i, cpu_params, self.costs, self.memsys,
                         self.accounting, share_with=share_with,
                         domain=domain)
            )
        if core is not None:
            # Binds every CPU to the new state as well.
            state = core.build_state({
                "registry": self.registry,
                "accounting": self.accounting,
                "memsys": self.memsys,
                "costs": self.costs,
                "cpus": self.cpus,
                "skid_period": SKID_PERIOD,
            })
            self.memsys.bind_state(core, state)
        self.scheduler = Scheduler(n_cpus, sched_params or SchedulerParams())
        self.ioapic = IoApic(n_cpus)
        self.softirqs = SoftirqTable()
        self.procstat = ProcInterrupts(n_cpus)
        self.timer_wheels = [TimerWheel(i) for i in range(n_cpus)]
        self.states = [CpuState() for _ in range(n_cpus)]
        self.tasks = []
        self._resettables = []
        self.tick_cycles = hz // TICK_HZ
        self.ipis_sent = 0
        #: Optional :class:`repro.trace.Tracer`.  ``None`` (the
        #: default) keeps every tracepoint site down to one attribute
        #: load and a comparison -- untraced runs are unperturbed.
        self.tracer = None
        self._register_internal_functions()
        for i, cpu in enumerate(self.cpus):
            state = self.states[i]
            state.softirq_ctx = ExecContext(self, cpu, KIND_SOFTIRQ)
            state.hardirq_ctx = ExecContext(self, cpu, KIND_HARDIRQ)
            cpu.last_spec = self.spec_idle
        self.softirqs.register(TIMER_SOFTIRQ, self._timer_softirq_action)
        self._rq_objs = [
            self.space.alloc("runqueue%d" % i, 512) for i in range(n_cpus)
        ]
        #: Per-CPU tick callbacks and labels, built once and reused by
        #: every re-arm (batched timer scheduling).
        self._tick_callbacks = [self._make_tick(i) for i in range(n_cpus)]
        self._tick_labels = ["tick%d" % i for i in range(n_cpus)]
        #: Per-CPU step callbacks and labels, likewise reused: steps are
        #: the most frequently scheduled event in the simulator.
        self._step_callbacks = [self._make_step(i) for i in range(n_cpus)]
        self._step_labels = ["step%d" % i for i in range(n_cpus)]

    def _register_internal_functions(self):
        reg = self.functions.register
        self.spec_schedule = reg(
            "schedule", "interface", code_size=2048, branch_frac=0.2,
            stall_per_instr=1.6,
        )
        self.spec_wake = reg(
            "try_to_wake_up", "interface", code_size=1024, branch_frac=0.2,
            stall_per_instr=1.5,
        )
        self.spec_spinlock = reg(
            "spin_lock", "locks", code_size=256, branch_frac=0.25,
            mispredict_rate=0.008, stall_per_instr=2.5,
        )
        self.spec_spinunlock = reg(
            "spin_unlock", "locks", code_size=128, branch_frac=0.0,
            stall_per_instr=1.0,
        )
        self.spec_tick = reg(
            "apic_timer_interrupt", "interface", code_size=1024,
            branch_frac=0.15, stall_per_instr=0.5,
        )
        self.spec_timer_run = reg(
            "run_timer_list", "timers", code_size=1024, branch_frac=0.2,
            stall_per_instr=0.4,
        )
        self.spec_idle = reg("poll_idle", "other", code_size=256)
        self.spec_ipi = reg(
            "smp_reschedule_interrupt", "interface", code_size=256,
            branch_frac=0.1,
        )

    # ------------------------------------------------------------------
    # Public setup API.
    # ------------------------------------------------------------------

    def add_resettable(self, obj):
        """Register an object whose ``reset_stats()`` runs at window reset."""
        self._resettables.append(obj)

    def attach_tracer(self, tracer):
        """Point all tracepoint sites at ``tracer`` (see repro.trace)."""
        self.tracer = tracer
        self.scheduler.tracer = tracer
        return tracer

    def detach_tracer(self):
        """Stop tracing; sites fall back to the no-op fast path."""
        self.tracer = None
        self.scheduler.tracer = None

    def spawn(self, task, cpu_index=0):
        """Create a runnable task; it starts at the next dispatch."""
        if task.cpus_allowed is None:
            task.cpus_allowed = full_mask(self.n_cpus)
        task._ctx = ExecContext(self, self.cpus[cpu_index], KIND_TASK, task)
        task._struct = self.space.alloc("task_struct:%s" % task.name, 1024)
        task.prev_cpu = cpu_index
        self.tasks.append(task)
        self.scheduler.enqueue(task, cpu_index)
        self._kick(cpu_index)
        return task

    def sched_setaffinity(self, task, mask):
        """The backported ``sys_sched_setaffinity``."""
        moved_to = self.scheduler.set_affinity(task, mask)
        if moved_to is not None:
            self._kick(moved_to)

    def core_representatives(self):
        """One logical CPU per physical core (the first sibling).

        Interrupt steering policies draw targets from this list so
        that, under hyperthreading, an IRQ never lands on the second
        sibling of a core -- the two siblings share every cache level,
        so the second adds no locality and only contends for the
        core's execution resources.  Without SMT this is simply every
        CPU, so non-HT behaviour (including RNG draw sequences keyed
        to ``randrange(len(...))``) is unchanged.
        """
        if self.hyperthreading:
            return list(range(0, self.n_cpus, 2))
        return list(range(self.n_cpus))

    def core_first(self, cpu_index):
        """The first logical CPU of ``cpu_index``'s physical core."""
        if self.hyperthreading:
            return cpu_index - (cpu_index % 2)
        return cpu_index

    def register_irq(self, line):
        """Register a device interrupt line with the IO-APIC."""
        self.ioapic.register(line)
        self.procstat.register(line.vector, line.name)
        line.entry_spec = self.functions.register(
            "IRQ0x%x_interrupt" % line.vector,
            "driver",
            code_size=512,
            branch_frac=0.12,
            stall_per_instr=1.0,
        )
        return line

    # ------------------------------------------------------------------
    # Run control.
    # ------------------------------------------------------------------

    def start(self):
        """Arm per-CPU ticks and initial steps."""
        for i in range(self.n_cpus):
            self.engine.schedule_at(
                self.tick_cycles + i,  # stagger ticks per CPU
                self._tick_callbacks[i],
                label=self._tick_labels[i],
            )
            self._kick(i)

    def run_for(self, cycles):
        """Advance the simulation ``cycles`` beyond the current time."""
        self.engine.run(until=self.engine.now + cycles)

    def reset_measurement(self):
        """Zero all counters; the measurement window starts now.

        Warm-up (cold caches, scheduler settling) happens before this
        call, exactly like the paper profiling only steady-state runs.
        """
        self.accounting.reset()
        self.procstat.reset()
        self.memsys.invalidations = 0
        self.memsys.c2c_transfers = 0
        self.ipis_sent = 0
        self.scheduler.wakeups = 0
        self.scheduler.remote_wakeups = 0
        self.scheduler.steals = 0
        self.scheduler.balance_moves = 0
        for cpu in self.cpus:
            cpu.busy_cycles = 0
            for i in range(len(cpu.totals)):
                cpu.totals[i] = 0
        for task in self.tasks:
            task.migrations = 0
            task.dispatches = 0
            task.blocks = 0
        for obj in self._resettables:
            obj.reset_stats()
        self.softirqs.raised = [0] * len(self.softirqs.raised)
        self.softirqs.executed = [0] * len(self.softirqs.executed)
        if self.tracer is not None:
            self.tracer.clear()
        self._window_start = self.engine.now

    @property
    def window_cycles(self):
        """Cycles elapsed since the last measurement reset."""
        return self.engine.now - getattr(self, "_window_start", 0)

    # ------------------------------------------------------------------
    # Services called by ExecContext.
    # ------------------------------------------------------------------

    def wake_up(self, waitqueue, ctx, n=None):
        """Wake sleepers; returns the number of tasks woken."""
        if n is None:
            tasks = waitqueue.pop_all()
        else:
            tasks = []
            for _ in range(n):
                task = waitqueue.pop_one()
                if task is None:
                    break
                tasks.append(task)
        for task in tasks:
            ctx.charge(
                self.spec_wake,
                90,
                reads=[(task._struct.addr, 128)],
                writes=[(task._struct.addr, 64)],
            )
            task.state = TASK_READY
            decision = self.scheduler.wake(task, ctx.cpu_index, ctx.now)
            target = decision.target_cpu
            target_state = self.states[target]
            if target_state.halted:
                if target == ctx.cpu_index:
                    target_state.halted = False
                    self._schedule_step(target, at=ctx.now)
                else:
                    self._send_ipi(target, at=ctx.now)
            elif decision.preempt:
                target_state.need_resched = True
                if target != ctx.cpu_index:
                    self._send_ipi(target, at=ctx.now)
        return len(tasks)

    def unlock(self, lock, ctx):
        """Release a spinlock and hand it to the first spinner, if any."""
        cpu = ctx.cpu
        lock.drop(cpu.index, cpu.now)
        ctx.locks_held -= 1
        ctx.charge(self.spec_spinunlock, RELEASE_INSTRUCTIONS,
                   writes=[(lock._word.addr, 4)])
        release_time = cpu.now
        if lock.waiters:
            waiter_index = lock.waiters.pop(0)
            self._finish_spin(lock, waiter_index, release_time)

    def _charge_spin_wait(self, cpu, lock, wait):
        """Charge ``wait`` cycles of spinning at Table 2's branch rates."""
        iters = spin_iterations(wait)
        instructions = iters * SPIN_ITER_INSTRUCTIONS + ACQUIRE_INSTRUCTIONS
        base = -(-instructions // self.costs.retire_width)
        extra = max(0, wait - base)
        cpu.charge(
            self.spec_spinlock,
            instructions,
            reads=[(lock._word.addr, 4)],
            writes=[(lock._word.addr, 4)],
            branches=iters + ACQUIRE_BRANCHES + 1,
            mispredicts=1,
            extra_cycles=extra,
        )
        lock.total_spin_cycles += wait

    def _finish_spin(self, lock, cpu_index, release_time):
        wcpu = self.cpus[cpu_index]
        wstate = self.states[cpu_index]
        if wstate.spinning_lock is not lock:
            raise RuntimeError(
                "CPU%d handed %s but spinning on %r"
                % (cpu_index, lock.name, wstate.spinning_lock)
            )
        self._charge_spin_wait(wcpu, lock, max(0, release_time - wcpu.now))
        lock.grab(cpu_index, wcpu.now, label="post-spin")
        if self.tracer is not None:
            self.tracer.emit("lock_acquire", cpu=cpu_index, ts=wcpu.now,
                             lock=lock.name)
        ctx = (
            wstate.softirq_ctx if wstate.spin_is_softirq
            else wstate.current._ctx
        )
        ctx.locks_held += 1
        wstate.spinning_lock = None
        self._schedule_step(cpu_index, at=wcpu.now)

    def raise_softirq(self, cpu_index, index):
        """Mark softirq ``index`` pending on ``cpu_index``."""
        self.softirqs.raised[index] += 1
        if self.tracer is not None:
            self.tracer.emit("softirq_raise", cpu=cpu_index,
                             softirq=SOFTIRQ_NAMES[index])
        self.states[cpu_index].softirq_pending |= 1 << index
        if self.states[cpu_index].halted:
            self.states[cpu_index].halted = False
            self._schedule_step(cpu_index)

    def add_timer(self, timer, cpu_index, delay_cycles):
        """Arm ``timer`` on ``cpu_index`` to fire after ``delay_cycles``."""
        self.timer_wheels[cpu_index].add(
            timer, self.cpus[cpu_index].now + delay_cycles
        )

    def del_timer(self, timer):
        if timer.cpu_index is not None:
            return self.timer_wheels[timer.cpu_index].remove(timer)
        return False

    def new_lock(self, name):
        """Create a spinlock with a backing word in kernel memory."""
        lock = SpinLock(name, word=self.space.alloc("lock:" + name, 64))
        self.add_resettable(lock)
        return lock

    # ------------------------------------------------------------------
    # Interrupt plumbing.
    # ------------------------------------------------------------------

    def raise_irq(self, vector):
        """A device asserts its line (called from engine events)."""
        cpu_index = self.ioapic.route(vector)
        line = self.ioapic.get(vector)
        line.raised += 1
        if self.tracer is not None:
            self.tracer.emit("irq_raise", cpu=cpu_index, vector=vector)
        state = self.states[cpu_index]
        state.pending_irqs.append(vector)
        if state.halted:
            state.halted = False
            self._schedule_step(cpu_index)
        return cpu_index

    def deliver_pending_hardirqs(self, cpu):
        """Run queued top halves on ``cpu`` (synchronous, non-blocking)."""
        state = self.states[cpu.index]
        if state.in_hardirq:
            return
        while state.pending_irqs:
            vector = state.pending_irqs.pop(0)
            line = self.ioapic.get(vector)
            line.delivered += 1
            self.procstat.count(vector, cpu.index)
            # The PMU's clear burst around an interrupt is sampled with
            # skid: roughly half attributes to the interrupted code and
            # half to the handler (one actual pipeline flush).
            counted = self.costs.clears_counted_per_irq
            interrupted = cpu.skid_spec or cpu.last_spec or self.spec_idle
            cpu.machine_clear(interrupted, counted // 2)
            cpu.machine_clear(line.entry_spec, counted - counted // 2,
                              flush=False)
            cpu.last_spec = line.entry_spec
            if self.tracer is not None:
                self.tracer.emit("irq_entry", cpu=cpu.index, ts=cpu.now,
                                 vector=vector)
            state.in_hardirq = True
            try:
                line.handler(state.hardirq_ctx)
            finally:
                state.in_hardirq = False
            if self.tracer is not None:
                self.tracer.emit("irq_exit", cpu=cpu.index, ts=cpu.now,
                                 vector=vector)

    def _send_ipi(self, target_index, at):
        self.ipis_sent += 1
        if self.tracer is not None:
            self.tracer.emit("ipi_send", cpu=target_index,
                             target=target_index)
        self.engine.schedule_at(
            max(at + IPI_LATENCY, self.engine.now),
            lambda: self._ipi_arrive(target_index),
            label="IPI->%d" % target_index,
        )

    def _ipi_arrive(self, target_index):
        cpu = self.cpus[target_index]
        state = self.states[target_index]
        self.procstat.count_ipi(target_index)
        if state.halted:
            state.halted = False
            if cpu.now < self.engine.now:
                cpu.advance_idle(self.engine.now - cpu.now)
        if self.tracer is not None:
            self.tracer.emit("ipi_recv", cpu=target_index, ts=cpu.now)
        attr = cpu.skid_spec or cpu.last_spec or self.spec_idle
        cpu.machine_clear(attr, self.costs.clears_counted_per_ipi)
        cpu.charge(self.spec_ipi, 60, reads=[(self._rq_objs[target_index].addr, 64)])
        state.need_resched = True
        self._schedule_step(target_index, at=cpu.now)

    # ------------------------------------------------------------------
    # The stepping core.
    # ------------------------------------------------------------------

    def _kick(self, cpu_index):
        """Ensure the CPU will step (used after making work available)."""
        state = self.states[cpu_index]
        if state.halted:
            state.halted = False
        self._schedule_step(cpu_index)

    def _make_step(self, cpu_index):
        def step():
            self._step(cpu_index)

        return step

    def _schedule_step(self, cpu_index, at=None):
        state = self.states[cpu_index]
        if state.step_pending:
            return
        state.step_pending = True
        time = max(self.engine.now, at if at is not None else self.engine.now)
        self.engine.schedule_at(
            time, self._step_callbacks[cpu_index],
            label=self._step_labels[cpu_index],
        )

    def _step(self, cpu_index):
        cpu = self.cpus[cpu_index]
        state = self.states[cpu_index]
        state.step_pending = False
        if state.halted or state.spinning_lock is not None:
            return
        if cpu.now < self.engine.now:
            cpu.advance_idle(self.engine.now - cpu.now)
        start = cpu.now
        guard = 0
        while cpu.now - start < STEP_QUANTUM:
            guard += 1
            if guard > 100_000:
                raise RuntimeError(
                    "CPU%d livelocked in _step (task=%r)"
                    % (cpu_index, state.current)
                )
            if state.pending_irqs:
                self.deliver_pending_hardirqs(cpu)
                continue
            runnable_task = (
                state.current is not None
                or bool(self.scheduler.runqueues[cpu_index])
            )
            if state.softirq_gen is not None or (
                state.softirq_pending
                and self._softirq_allowed(state)
                and not (state.softirq_yield and runnable_task)
            ):
                if state.softirq_gen is None:
                    state.softirq_gen = self._do_softirq(state.softirq_ctx)
                if not self._drive(cpu, state, is_softirq=True,
                                   deadline=start + STEP_QUANTUM):
                    return  # parked on a spinlock
                continue
            task = state.current
            if task is None:
                nxt = self.scheduler.pick_next(cpu_index)
                if nxt is None:
                    if state.softirq_pending:
                        # Nothing to be fair to: resume softirq work.
                        state.softirq_yield = False
                        continue
                    self._go_idle(cpu, state)
                    return
                self._dispatch(cpu, state, nxt)
                continue
            if state.need_resched and task._ctx.locks_held == 0:
                state.need_resched = False
                if self.scheduler.runqueues[cpu_index]:
                    self._undispatch(cpu, state)
                    self.scheduler.enqueue(task, cpu_index)
                continue
            if not self._drive(cpu, state, is_softirq=False,
                               deadline=start + STEP_QUANTUM):
                return
        self._schedule_step(cpu_index, at=cpu.now)

    def _softirq_allowed(self, state):
        current = state.current
        return current is None or current._ctx.locks_held == 0

    def _drive(self, cpu, state, is_softirq, deadline):
        """Advance one activity; ``False`` means the CPU parked on a lock."""
        if is_softirq:
            gen, ctx = state.softirq_gen, state.softirq_ctx
        else:
            task = state.current
            gen, ctx = task.gen, task._ctx
            # The task is getting its turn; softirqs may run again at
            # the next opportunity (ksoftirqd fairness).
            state.softirq_yield = False
        for _ in range(OPS_PER_STEP):
            try:
                op = gen.send(None)
            except StopIteration:
                if is_softirq:
                    state.softirq_gen = None
                    # One pass done: let the current task have a turn
                    # before the next pass (ksoftirqd fairness) -- new
                    # interrupts re-raise softirqs continuously under
                    # load, and without this tasks queued on the
                    # interrupt CPU would starve outright.
                    state.softirq_yield = True
                else:
                    self._task_exited(cpu, state)
                return True
            kind = op[0]
            if kind == "preempt_check":
                if is_softirq:
                    continue  # softirqs have no preemption points
                if (
                    state.pending_irqs
                    or state.need_resched
                    or (state.softirq_pending and ctx.locks_held == 0)
                    or cpu.now >= deadline
                ):
                    return True
                continue
            if kind == "spin":
                lock = op[1]
                ctx.charge(
                    self.spec_spinlock,
                    ACQUIRE_INSTRUCTIONS,
                    writes=[(lock._word.addr, 4)],
                    branches=ACQUIRE_BRANCHES,
                )
                if not lock.held:
                    wait = lock.last_release - cpu.now
                    if wait > 0:
                        # In simulated time the lock was still held;
                        # charge the spin we would have suffered (see
                        # SpinLock.last_release).
                        lock.contended_acquisitions += 1
                        self._charge_spin_wait(cpu, lock, wait)
                        if self.tracer is not None:
                            self.tracer.emit("lock_contend", cpu=cpu.index,
                                             ts=cpu.now, lock=lock.name)
                    lock.grab(cpu.index, cpu.now, label=ctx.kind)
                    ctx.locks_held += 1
                    if self.tracer is not None:
                        self.tracer.emit("lock_acquire", cpu=cpu.index,
                                         ts=cpu.now, lock=lock.name)
                    continue
                lock.contended_acquisitions += 1
                if self.tracer is not None:
                    self.tracer.emit("lock_contend", cpu=cpu.index,
                                     ts=cpu.now, lock=lock.name)
                lock.waiters.append(cpu.index)
                state.spinning_lock = lock
                state.spin_start = cpu.now
                state.spin_is_softirq = is_softirq
                return False
            if kind == "block":
                if is_softirq:
                    raise RuntimeError("softirq tried to block")
                if ctx.locks_held:
                    raise RuntimeError(
                        "%r blocking with %d locks held"
                        % (state.current, ctx.locks_held)
                    )
                waitqueue = op[1]
                condition = op[2] if len(op) > 2 else None
                if condition is not None and condition():
                    continue  # condition became true before sleeping
                task = state.current
                waitqueue.add(task)
                task.state = TASK_BLOCKED
                task.blocks += 1
                self._undispatch(cpu, state)
                return True
            if kind == "resched":
                if is_softirq:
                    raise RuntimeError("softirq yielded resched")
                task = state.current
                self._undispatch(cpu, state)
                self.scheduler.enqueue(task, cpu.index)
                return True
            raise RuntimeError("unknown operation %r" % (op,))
        return True

    def _do_softirq(self, ctx):
        state = self.states[ctx.cpu_index]
        restarts = 0
        while state.softirq_pending and restarts < 10:
            mask = state.softirq_pending
            state.softirq_pending = 0
            for index in pending_order(mask):
                self.softirqs.executed[index] += 1
                action = self.softirqs.action(index)
                if self.tracer is not None:
                    self.tracer.emit("softirq_entry", cpu=ctx.cpu_index,
                                     ts=ctx.now,
                                     softirq=SOFTIRQ_NAMES[index])
                for op in action(ctx):
                    yield op
                if self.tracer is not None:
                    self.tracer.emit("softirq_exit", cpu=ctx.cpu_index,
                                     ts=ctx.now,
                                     softirq=SOFTIRQ_NAMES[index])
            restarts += 1
        if state.softirq_pending:
            # Excessive load: defer to the ksoftirqd discipline -- the
            # current task runs before the next softirq pass.
            state.softirq_yield = True

    def _timer_softirq_action(self, ctx):
        state = self.states[ctx.cpu_index]
        due, state.expired_timers = state.expired_timers, []
        ctx.charge(
            self.spec_timer_run,
            60 + 20 * len(due),
            reads=[(self._rq_objs[ctx.cpu_index].addr, 64)],
        )
        for timer in due:
            for op in timer.handler_factory(ctx):
                yield op

    # ------------------------------------------------------------------
    # Dispatch machinery.
    # ------------------------------------------------------------------

    def _dispatch(self, cpu, state, task):
        switching = state.last_task is not task
        reads = [(task._struct.addr, 256), (self._rq_objs[cpu.index].addr, 128)]
        writes = [(task._struct.addr, 64)]
        if state.last_task is not None and switching:
            reads.append((state.last_task._struct.addr, 128))
        task._ctx.move_to(cpu)
        cpu.last_spec = self.spec_schedule
        extra = 1500 if switching else 0  # CR3 write and pipeline drain
        cpu.charge(self.spec_schedule, 260 if switching else 90,
                   reads=reads, writes=writes, extra_cycles=extra)
        if switching:
            # Address-space switch: user translations die, kernel
            # (global-bit) translations survive.
            cpu.dtlb.flush_below(KERNEL_TEXT_BASE // PAGE_SIZE)
        if self.tracer is not None and switching:
            self.tracer.emit(
                "sched_switch", cpu=cpu.index, ts=cpu.now,
                prev=state.last_task.name if state.last_task else "idle",
                next=task.name,
            )
        task.state = TASK_RUNNING
        task.prev_cpu = cpu.index
        task.last_dispatch = cpu.now
        task.dispatches += 1
        state.current = task
        self.scheduler.current[cpu.index] = task
        state.last_task = task
        task.start(task._ctx)

    def _undispatch(self, cpu, state):
        task = state.current
        task.total_ran += cpu.now - task.last_dispatch
        task.prev_cpu = cpu.index
        if task.state == TASK_RUNNING:
            task.state = TASK_READY
        state.current = None
        self.scheduler.current[cpu.index] = None

    def _task_exited(self, cpu, state):
        task = state.current
        task.state = TASK_DEAD
        task.total_ran += cpu.now - task.last_dispatch
        state.current = None
        self.scheduler.current[cpu.index] = None

    def _go_idle(self, cpu, state):
        if (
            self.scheduler.runqueues[cpu.index]
            or state.softirq_pending
            or state.pending_irqs
        ):
            # Work appeared while we decided to idle; keep stepping.
            self._schedule_step(cpu.index, at=cpu.now)
            return
        state.halted = True
        cpu.last_spec = self.spec_idle

    # ------------------------------------------------------------------
    # Ticks.
    # ------------------------------------------------------------------

    def _make_tick(self, cpu_index):
        def tick():
            self._tick(cpu_index)

        return tick

    def _tick(self, cpu_index):
        cpu = self.cpus[cpu_index]
        state = self.states[cpu_index]
        # Re-arm with the prebuilt callback/label: the tick fires a
        # thousand times per simulated second per CPU, and building a
        # fresh closure and label string each time churned the heap.
        self.engine.schedule_after(
            self.tick_cycles, self._tick_callbacks[cpu_index],
            label=self._tick_labels[cpu_index],
        )
        if state.spinning_lock is not None:
            return  # interrupts effectively masked while spinning
        if state.halted and cpu.now < self.engine.now:
            cpu.advance_idle(self.engine.now - cpu.now)
        state.tick_count += 1
        # Update the scheduler's per-CPU load estimate (EWMA over ticks).
        busy_now = cpu.busy_cycles
        delta = busy_now - getattr(cpu, "_busy_at_last_tick", 0)
        cpu._busy_at_last_tick = busy_now
        # delta can be negative right after a measurement reset.
        instant = max(0.0, min(1.0, delta / float(self.tick_cycles)))
        loads = self.scheduler.cpu_load
        loads[cpu_index] = 0.8 * loads[cpu_index] + 0.2 * instant
        cpu.recent_load = loads[cpu_index]
        if cpu_index == 0:
            # Feed the shared-bus model: fills since the last tick.
            misses_now = sum(c.totals[LLC_MISSES] for c in self.cpus)
            dma_now = (self.memsys.dma_lines_written
                       + self.memsys.dma_lines_read)
            prev = getattr(self, "_bus_prev", (0, 0))
            delta = max(0, misses_now - prev[0]) + max(0, dma_now - prev[1])
            self._bus_prev = (misses_now, dma_now)
            self.memsys.update_bus(
                delta * self.costs.bus_slot_cycles,
                self.tick_cycles,
                self.costs,
            )
        cpu.machine_clear(cpu.skid_spec or cpu.last_spec or self.spec_tick,
                          CLEARS_PER_TICK)
        cpu.charge(
            self.spec_tick,
            130,
            reads=[(self._rq_objs[cpu_index].addr, 128)],
            writes=[(self._rq_objs[cpu_index].addr, 32)],
        )
        # Expire kernel timers into the timer softirq.
        due = self.timer_wheels[cpu_index].expire(cpu.now)
        if due:
            state.expired_timers.extend(due)
            self.raise_softirq(cpu_index, TIMER_SOFTIRQ)
        # Timeslice accounting.
        current = state.current
        if current is not None:
            ran = cpu.now - current.last_dispatch
            if ran > self.scheduler.params.timeslice_cycles:
                state.need_resched = True
        # Periodic balancing.
        if state.tick_count % self.scheduler.params.balance_interval_ticks == 0:
            moved = self.scheduler.balance(cpu_index)
            if moved and state.halted:
                state.halted = False
        if state.halted and (
            self.scheduler.runqueues[cpu_index] or state.softirq_pending
        ):
            state.halted = False
        if not state.halted:
            self._schedule_step(cpu_index, at=cpu.now)

    # ------------------------------------------------------------------
    # Reporting helpers.
    # ------------------------------------------------------------------

    def utilization(self, cpu_index=None):
        """Busy fraction over the measurement window."""
        window = self.window_cycles
        if window <= 0:
            return 0.0
        if cpu_index is not None:
            return min(1.0, self.cpus[cpu_index].busy_cycles / float(window))
        busy = sum(c.busy_cycles for c in self.cpus)
        return min(1.0, busy / float(window * self.n_cpus))
