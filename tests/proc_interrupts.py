"""Read per-line delivery counts back from ``/proc/interrupts``.

The paper checks interrupt routing against ``/proc`` statistics; the
tests do the same, parsing the table that
:meth:`repro.prof.procstat.ProcInterrupts.render` prints.
"""


def deliveries(procstat, irq):
    """Per-CPU delivery counts of line ``irq``, as the table shows them."""
    prefix = "0x%02x:" % irq
    for line in procstat.render().splitlines():
        if line.startswith(prefix):
            return [int(c) for c in line.split()[1:1 + procstat.n_cpus]]
    return [0] * procstat.n_cpus
