"""Interrupt routing: IRQ lines and the IO-APIC.

Each device owns an IRQ line with a vector (the paper's NICs appear as
``IRQ0x19_interrupt`` ... ``IRQ0x27_interrupt`` in its Table 4) and an
``smp_affinity`` mask, settable exactly like writing to
``/proc/irq/N/smp_affinity``.  The default mask routes everything to
CPU0 -- the Linux 2.4 / Windows NT default configuration the paper
studies as its baseline.

Routing picks the lowest-numbered allowed CPU, modelling the flat
logical-destination lowest-priority delivery that lands on CPU0 in
practice on this hardware generation.
"""


class IrqLine:
    """One interrupt line: vector, handler, and its affinity mask."""

    def __init__(self, vector, name, handler, smp_affinity=0x1):
        self.vector = vector
        self.name = name
        #: Plain callable ``handler(ctx)`` -- the top half.  Top halves
        #: are synchronous and non-blocking in this model (they ack the
        #: device, drain rings, and raise softirqs).
        self.handler = handler
        self.smp_affinity = smp_affinity

    def set_affinity(self, mask):
        """Write ``/proc/irq/<n>/smp_affinity``."""
        if mask <= 0:
            raise ValueError("smp_affinity must enable at least one CPU")
        self.smp_affinity = mask

    def __repr__(self):
        return "IrqLine(0x%x %s affinity=0x%x)" % (
            self.vector,
            self.name,
            self.smp_affinity,
        )


class IoApic:
    """Vector registry plus the routing decision."""

    def __init__(self, n_cpus):
        self.n_cpus = n_cpus
        self.lines = {}

    def register(self, line):
        if line.vector in self.lines:
            raise ValueError("vector 0x%x already registered" % line.vector)
        self.lines[line.vector] = line
        return line

    def get(self, vector):
        return self.lines[vector]

    def route(self, vector):
        """CPU index that should receive ``vector`` right now."""
        line = self.lines[vector]
        mask = line.smp_affinity & ((1 << self.n_cpus) - 1)
        if mask == 0:
            raise RuntimeError(
                "IRQ 0x%x has no online CPU in its affinity mask" % vector
            )
        # Lowest-numbered allowed CPU (flat lowest-priority delivery).
        cpu = 0
        while not (mask >> cpu) & 1:
            cpu += 1
        return cpu

    def distribute(self, vectors, n_cpus=None):
        """Spread ``vectors`` evenly across CPUs (the IRQ-affinity mode).

        NICs 1..4 to CPU0 and 5..8 to CPU1 on a 2P system, matching the
        paper's configuration; generalizes block-wise for more CPUs.
        Returns ``{vector: cpu_index}``.
        """
        n_cpus = n_cpus or self.n_cpus
        ordered = sorted(vectors)
        per_cpu = -(-len(ordered) // n_cpus)
        assignment = {}
        for i, vector in enumerate(ordered):
            cpu = min(i // per_cpu, n_cpus - 1)
            self.lines[vector].set_affinity(1 << cpu)
            assignment[vector] = cpu
        return assignment


class IrqRotator:
    """The Linux-2.6 interrupt-distribution scheme (paper section 7).

    "The current version of Linux 2.6 takes a more intelligent scheme
    whereby the kernel dispatches interrupts to one processor for a
    short duration before it randomly switches the interrupt delivery
    to a different processor.  The random distribution resolves the
    system bottleneck problem while the delayed switching provides a
    best-effort approach to improve cache locality.  However, cache
    inefficiencies are still unavoidable."

    Every ``interval_cycles`` each IRQ line is re-routed to a randomly
    chosen CPU.  The re-route also charges a small uncached write on
    CPU0 (the TPR update the paper calls out).
    """

    def __init__(self, machine, vectors, interval_cycles=20_000_000,
                 per_line=True):
        self.machine = machine
        self.vectors = list(vectors)
        self.interval_cycles = interval_cycles
        #: ``per_line`` rotates each line independently; the strict 2.6
        #: behaviour rotates all lines to one CPU at a time.
        self.per_line = per_line
        self._rng = machine.rng.stream("irq-rotator")
        self._stopped = False
        self._pending = machine.engine.schedule_after(
            interval_cycles, self._rotate, label="irq rotate"
        )

    def _rotate(self):
        if self._stopped:
            return
        machine = self.machine
        # Draw over *physical cores*, not logical CPUs: with
        # hyperthreading, randrange(machine.n_cpus) would land half of
        # all rotations on the second sibling thread of a core, which
        # shares every cache with its partner and gains nothing while
        # contending for the core.  Non-HT machines see the identical
        # RNG draw sequence (len(reps) == n_cpus).
        reps = machine.core_representatives()
        if self.per_line:
            for vector in self.vectors:
                cpu = reps[self._rng.randrange(len(reps))]
                machine.ioapic.get(vector).set_affinity(1 << cpu)
        else:
            cpu = reps[self._rng.randrange(len(reps))]
            for vector in self.vectors:
                machine.ioapic.get(vector).set_affinity(1 << cpu)
        self._pending = machine.engine.schedule_after(
            self.interval_cycles, self._rotate, label="irq rotate"
        )

    def stop(self):
        """Cancel the pending rotation and never re-arm (teardown).

        Same discipline as :meth:`repro.net.rss.RssSteering.stop`: a
        controller must not keep firing once the measurement window is
        over.
        """
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
