"""repro: a simulation-based reproduction of
"Architectural Characterization of Processor Affinity in Network
Processing" (Foong, Fung, Newell, Abraham, Irelan, Lopez-Estrada;
ISPASS 2005).

The package builds the paper's entire experimental apparatus in
software: a cycle-approximate 2-processor Pentium 4 Xeon server
(caches, TLBs, branch prediction, machine clears, MESI coherence), a
Linux-2.4.20-shaped kernel (O(1)-style scheduler with CPU affinity,
IO-APIC interrupt routing, softirqs, spinlocks, timers), a TCP/IP
stack partitioned into the paper's functional bins, e1000-class NICs
with DMA and interrupt coalescing, and the ttcp workload -- then
reruns the paper's affinity experiments and regenerates every table
and figure.

Entry points:

* :mod:`repro.core.experiment` -- ``run_experiment``; the per-artefact
  analyses are the other :mod:`repro.core` modules;
* ``repro-affinity`` (console script) -- run experiments from a shell;
* ``examples/`` and ``benchmarks/`` in the source tree.
"""

__version__ = "1.0.0"

PAPER_TITLE = (
    "Architectural Characterization of Processor Affinity in Network "
    "Processing"
)
PAPER_VENUE = "ISPASS 2005"
