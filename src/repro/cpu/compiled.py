"""The compiled-engine CPU: array state over a C bookkeeping base.

:class:`CompiledCpu` is the flat-array form of :class:`~repro.cpu.
core.Cpu`.  It owns the same component set -- three data-cache levels,
two TLBs, trace cache, branch predictor -- but in the ``array('q')``
layouts of :mod:`repro.cpu.arraystate`, and its :meth:`charge` is one
call into ``_enginecore.charge``, which runs the entire hot path in C
over buffers bound once at machine construction (coherence
invalidations included), then advances the CPU's clock, busy cycles
and oprofile skid sample.

Those per-charge fields (``now``, ``busy_cycles``, ``recent_load``,
``last_spec``, ``skid_spec``, ``sibling``) are C struct members of the
extension's ``CpuCore`` type, so the concrete class is built over it
once the extension is loaded: :func:`cpu_class`.  Machine-layer code
reads and writes them as plain attributes.  Construction (identity,
HT-sibling sharing, clocks, skid state, ``memsys.attach_cpu``) and the
cold paths the machine runs between charges (machine clears, idle
advance, utilization) are :class:`~repro.cpu.core.CpuBase`'s, shared
with the pure engine; this module supplies only the array components
(:meth:`CompiledCpu._components`) and the ``array('q')`` totals.  The
duck-typed surface matches ``Cpu``; the equivalence and golden suites
run the same workloads over both and require identical state and
event streams.
"""

import functools
from array import array

from repro.cpu.arraystate import (
    ArrayBranchPredictor,
    ArraySetAssocCache,
    ArrayTlb,
    ArrayTraceCache,
)
from repro.cpu.core import CpuBase
from repro.cpu.events import zero_counts


@functools.lru_cache(maxsize=None)
def cpu_class(core):
    """The concrete compiled CPU class over ``core.CpuCore``.

    One class per loaded extension module: the C base holds the
    per-charge fields, :class:`CompiledCpu` supplies the rest.
    """
    return type("CompiledCpu", (CompiledCpu, core.CpuCore), {
        "__slots__": CompiledCpu.STATE_SLOTS,
        "__module__": __name__,
    })


class CompiledCpu(CpuBase):
    """One processor of the simulated SMP, on the compiled engine.

    Instantiate through :func:`cpu_class`; ``core.build_state`` then
    binds the instance to the machine's engine state (and sets
    ``_core``, the extension module).
    """

    __slots__ = ()

    #: Python-side instance fields of the concrete class.
    STATE_SLOTS = (
        "index",
        "name",
        "params",
        "costs",
        "memsys",
        "sink",
        "registry",
        "domain",
        "l1",
        "l2",
        "l3",
        "itlb",
        "dtlb",
        "trace_cache",
        "branch_predictor",
        "totals",
        "_busy_at_last_tick",
    )

    def __init__(self, index, params, costs, memsys, sink, registry,
                 name=None, share_with=None, domain=None):
        self.registry = registry
        # Same layout as the reference's list, but buffer-exportable so
        # the C engine adds into it directly.
        CpuBase.__init__(self, index, params, costs, memsys, sink,
                         array("q", zero_counts()), name, share_with, domain)

    def _components(self, params):
        return (
            ArraySetAssocCache(params.l1),
            ArraySetAssocCache(params.l2),
            ArraySetAssocCache(params.l3),
            ArrayTlb(params.itlb),
            ArrayTlb(params.dtlb),
            ArrayTraceCache(params.trace_cache),
            ArrayBranchPredictor(params.bp_capacity, self.registry),
        )

    # ------------------------------------------------------------------
    # The hot path.
    # ------------------------------------------------------------------

    def charge(self, spec, instructions, reads=(), writes=(), extra_cycles=0,
               branches=None, mispredicts=None):
        """Execute one invocation of ``spec``; same contract as
        :meth:`repro.cpu.core.Cpu.charge`."""
        return self._core.charge(self, spec, instructions, reads, writes,
                                 extra_cycles, branches, mispredicts)
