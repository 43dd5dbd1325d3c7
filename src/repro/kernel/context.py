"""Execution context handed to all simulated kernel code.

A context binds running code to the CPU it currently executes on and
to the machine services it may call.  Kernel code *charges* work
(synchronously -- the clock advances immediately) and *suspends* by
yielding operations to the machine:

==============================  ======================================
``("spin", lock)``              acquire a spinlock, spinning if held
``("block", waitqueue, cond)``  sleep until woken (``cond`` re-checked
                                just before parking to close the lost
                                wakeup race)
``("preempt_check",)``          scheduling point: softirqs may run,
                                preemption may occur
==============================  ======================================

Three context kinds exist, mirroring the kernel's execution contexts:
``task`` (process context -- may block), ``softirq`` (may spin, never
blocks) and ``hardirq`` (plain synchronous handlers; may neither spin
nor block).
"""

KIND_TASK = "task"
KIND_SOFTIRQ = "softirq"
KIND_HARDIRQ = "hardirq"


class ExecContext:
    """Binding of executing kernel code to a CPU and the machine."""

    __slots__ = ("machine", "cpu", "kind", "task", "locks_held",
                 "pending_irqs")

    def __init__(self, machine, cpu, kind, task=None):
        self.machine = machine
        self.cpu = cpu
        self.kind = kind
        self.task = task
        #: The interrupt vectors pending on ``cpu`` (its machine
        #: state's list, refreshed by :meth:`move_to`).  A hardirq
        #: handler never delivers interrupts itself, so its context
        #: watches a tuple that stays empty.
        self.pending_irqs = (
            () if kind == KIND_HARDIRQ
            else machine.states[cpu.index].pending_irqs
        )
        #: Number of spinlocks currently held by this context; while
        #: non-zero, softirqs are deferred on this CPU (the
        #: ``spin_lock_bh`` discipline of the network stack) and the
        #: task cannot be preempted or block.
        self.locks_held = 0

    @property
    def now(self):
        """This CPU's local clock."""
        return self.cpu.now

    @property
    def cpu_index(self):
        return self.cpu.index

    # ------------------------------------------------------------------
    # Work.
    # ------------------------------------------------------------------

    def charge(self, spec, instructions, reads=(), writes=(), extra_cycles=0,
               branches=None, mispredicts=None):
        """Execute one function invocation on the current CPU.

        After the charge, interrupts pending on the CPU are delivered
        (unless we *are* the interrupt handler).  Devices raise their
        lines only from engine events, and no event fires while a CPU
        steps, so in practice this check finds nothing: a device
        interrupt waits for the target CPU's next step, up to
        ``STEP_QUANTUM`` cycles (see DESIGN.md section 6).
        """
        # Positional call: this wrapper runs once per simulated function
        # invocation and keyword argument binding is measurable here.
        cycles = self.cpu.charge(
            spec, instructions, reads, writes, extra_cycles,
            branches, mispredicts,
        )
        # Common case: nothing pending; skip the delivery call.
        if self.pending_irqs:
            self.machine.deliver_pending_hardirqs(self.cpu)
        return cycles

    def move_to(self, cpu):
        """Rebind this (task) context to ``cpu`` -- on dispatch."""
        self.cpu = cpu
        self.pending_irqs = self.machine.states[cpu.index].pending_irqs

    # ------------------------------------------------------------------
    # Services routed through the machine.
    # ------------------------------------------------------------------

    def wake_up(self, waitqueue, n=None):
        """Wake tasks sleeping on ``waitqueue`` (all by default)."""
        return self.machine.wake_up(waitqueue, self, n=n)

    def unlock(self, lock):
        """Release a spinlock acquired via the ``("spin", lock)`` op."""
        self.machine.unlock(lock, self)

    def raise_softirq(self, index):
        """Mark a softirq pending on the current CPU."""
        self.machine.raise_softirq(self.cpu.index, index)

    def add_timer(self, timer, delay_cycles):
        """Arm a kernel timer on the current CPU."""
        self.machine.add_timer(timer, self.cpu.index, delay_cycles)

    def del_timer(self, timer):
        """Cancel a kernel timer."""
        self.machine.del_timer(timer)

    def __repr__(self):
        return "ExecContext(%s on %s, task=%r)" % (
            self.kind,
            self.cpu.name,
            self.task.name if self.task else None,
        )
