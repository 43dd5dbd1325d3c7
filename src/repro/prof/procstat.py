"""A ``/proc/interrupts``-style ledger.

The paper cross-checks interrupt routing ("we first confirmed that
CPU0 is responsible for servicing all device interrupts") against
``/proc`` statistics; the kernel layer feeds this ledger on every
delivered interrupt so experiments can make the same check.
"""


class ProcInterrupts:
    """Per-(IRQ line, CPU) delivery counters."""

    def __init__(self, n_cpus):
        self.n_cpus = n_cpus
        self._counts = {}
        self._names = {}
        self.ipi_counts = [0] * n_cpus

    def register(self, irq, name):
        """Declare an IRQ line (e.g. ``0x19`` -> ``eth0``)."""
        self._names[irq] = name
        self._counts.setdefault(irq, [0] * self.n_cpus)

    def count(self, irq, cpu_index):
        """Record one delivery of ``irq`` on ``cpu_index``."""
        row = self._counts.get(irq)
        if row is None:
            row = [0] * self.n_cpus
            self._counts[irq] = row
        row[cpu_index] += 1

    def count_ipi(self, cpu_index):
        """Record one inter-processor interrupt received by ``cpu_index``."""
        self.ipi_counts[cpu_index] += 1

    def total_device_interrupts(self, cpu_index=None):
        """Device interrupts delivered, optionally for one CPU."""
        if cpu_index is None:
            return sum(sum(row) for row in self._counts.values())
        return sum(row[cpu_index] for row in self._counts.values())

    def total_ipis(self, cpu_index=None):
        """IPIs delivered, optionally for one CPU."""
        if cpu_index is None:
            return sum(self.ipi_counts)
        return self.ipi_counts[cpu_index]

    def reset(self):
        """Zero all counters (start of the measurement window).

        Zeroing happens **in place**: rebinding ``self.ipi_counts`` to
        a fresh list would silently orphan any reference handed out
        before the window (a dashboard or analysis holding the row
        would keep reading pre-reset numbers forever), so the IPI row
        is cleared the same way as the per-IRQ rows.
        """
        for row in self._counts.values():
            for i in range(self.n_cpus):
                row[i] = 0
        ipi = self.ipi_counts
        for i in range(self.n_cpus):
            ipi[i] = 0

    def render(self):
        """Format the classic ``/proc/interrupts`` table."""
        header = "      " + "".join("%12s" % ("CPU%d" % i) for i in range(self.n_cpus))
        lines = [header]
        for irq in sorted(self._counts):
            row = self._counts[irq]
            cells = "".join("%12d" % c for c in row)
            lines.append("0x%02x: %s  %s" % (irq, cells, self._names.get(irq, "?")))
        cells = "".join("%12d" % c for c in self.ipi_counts)
        lines.append("RES:  %s  rescheduling interrupts" % cells)
        return "\n".join(lines)
