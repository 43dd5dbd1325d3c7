"""Operating-system model: a Linux-2.4.20 (Red Hat backport) lookalike.

The paper's mechanisms live here:

* :mod:`repro.kernel.task` / :mod:`repro.kernel.scheduler` -- processes
  with static CPU affinity (``sys_sched_setaffinity``), per-CPU
  runqueues with cache-warmth wakeup placement, wake-time steering
  toward the waking CPU, idle pull balancing and reschedule IPIs: the
  O(1)-scheduler behaviours the paper's Red Hat 2.4.20 kernel shipped.
* :mod:`repro.kernel.interrupts` -- an IO-APIC that routes each device
  IRQ according to its ``smp_affinity`` mask (all lines default to
  CPU0, the Linux/Windows default the paper calls out).
* :mod:`repro.kernel.softirq` -- per-CPU bottom halves (NET_RX style):
  softirqs run on the CPU whose top half raised them, the property that
  makes interrupt affinity "indirectly lead to process affinity".
* :mod:`repro.kernel.locks` -- spinlocks with the exact branch
  behaviour of the paper's Table 2 (decrement-and-test fast path, a
  PAUSE spin loop whose branch count scales with wait time).
* :mod:`repro.kernel.timers` -- per-CPU timer wheels driven by a 1 kHz
  tick.
* :mod:`repro.kernel.machine` -- the conductor: steps each CPU through
  its activity stack (hardirq > softirq > task), delivers interrupts
  with machine clears, and context-switches tasks.
* :mod:`repro.kernel.context` -- ``ExecContext``, the handle through
  which kernel and stack code charge CPU work.

Import names from their defining module; the package re-exports
nothing.
"""
