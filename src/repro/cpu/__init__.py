"""Cycle-approximate model of the paper's Pentium 4 Xeon processors.

Each simulated CPU owns a private three-level cache hierarchy, split
TLBs, a trace cache (instruction fetch), and a branch-predictor warmth
model.  Executing a :class:`~repro.cpu.function.FunctionSpec` charges
cycles derived from these structures plus the retire-width floor, and
increments the per-CPU performance-monitoring counters that the
profiling layer reads -- the same events the paper samples with
Oprofile (cycles, instructions, branches, mispredictions, LLC misses,
trace-cache misses, TLB walks, machine clears).

====================  ==============================================
:mod:`.core`          ``Cpu``: the pure (reference) charging engine
:mod:`.compiled`      ``CompiledCpu``: the flat-array engine the C
                      core drives
:mod:`.engine`        engine selection and the C core's build
:mod:`.cache`         ``SetAssocCache``
:mod:`.function`      ``FunctionSpec``, ``FunctionTable``, ``BINS``
:mod:`.params`        ``CacheGeometry``, ``TlbGeometry``,
                      ``CostModel``, ``CpuParams``
:mod:`.events`        the PMU event indices (``CYCLES`` ...
                      ``MACHINE_CLEARS``), ``EVENT_NAMES``,
                      ``N_EVENTS``, ``SKID_PERIOD``, ``zero_counts``
====================  ==============================================

Import names from their defining module; the package re-exports
nothing, so ``from repro.cpu.events import N_EVENTS`` loads only
:mod:`repro.cpu.events`.
"""
