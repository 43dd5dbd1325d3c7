"""Cycle-approximate model of the paper's Pentium 4 Xeon processors.

Each simulated CPU owns a private three-level cache hierarchy, split
TLBs, a trace cache (instruction fetch), and a branch-predictor warmth
model.  Executing a :class:`~repro.cpu.function.FunctionSpec` charges
cycles derived from these structures plus the retire-width floor, and
increments the per-CPU performance-monitoring counters that the
profiling layer reads -- the same events the paper samples with
Oprofile (cycles, instructions, branches, mispredictions, LLC misses,
trace-cache misses, TLB walks, machine clears).
"""

from repro.cpu.cache import SetAssocCache
from repro.cpu.core import Cpu
from repro.cpu.events import (
    BRANCHES,
    BR_MISPREDICTS,
    CYCLES,
    DTLB_WALKS,
    EVENT_NAMES,
    INSTRUCTIONS,
    ITLB_WALKS,
    L2_HITS,
    L3_HITS,
    LLC_MISSES,
    MACHINE_CLEARS,
    N_EVENTS,
    SKID_PERIOD,
    TC_MISSES,
    zero_counts,
)
from repro.cpu.function import FunctionSpec, FunctionTable
from repro.cpu.params import CacheGeometry, CostModel, CpuParams, TlbGeometry

__all__ = [
    "Cpu",
    "SetAssocCache",
    "FunctionSpec",
    "FunctionTable",
    "CacheGeometry",
    "TlbGeometry",
    "CostModel",
    "CpuParams",
    "EVENT_NAMES",
    "N_EVENTS",
    "CYCLES",
    "INSTRUCTIONS",
    "BRANCHES",
    "BR_MISPREDICTS",
    "LLC_MISSES",
    "L2_HITS",
    "L3_HITS",
    "TC_MISSES",
    "ITLB_WALKS",
    "DTLB_WALKS",
    "MACHINE_CLEARS",
    "SKID_PERIOD",
    "zero_counts",
]
