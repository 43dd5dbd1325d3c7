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
reads and writes them as plain attributes.  The cold paths the machine
runs between charges (machine clears, idle advance, utilization) are
:class:`~repro.cpu.core.CpuBase`'s, shared with the pure engine.  The
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
        self.index = index
        self.name = name or ("CPU%d" % index)
        self.params = params
        self.costs = costs
        self.memsys = memsys
        self.sink = sink
        self.registry = registry
        self.domain = domain if domain is not None else index
        self.sibling = None
        self.recent_load = 0.0
        if share_with is None:
            self.l1 = ArraySetAssocCache(params.l1)
            self.l2 = ArraySetAssocCache(params.l2)
            self.l3 = ArraySetAssocCache(params.l3)
            self.itlb = ArrayTlb(params.itlb)
            self.dtlb = ArrayTlb(params.dtlb)
            self.trace_cache = ArrayTraceCache(params.trace_cache)
            self.branch_predictor = ArrayBranchPredictor(
                params.bp_capacity, registry)
        else:
            self.l1 = share_with.l1
            self.l2 = share_with.l2
            self.l3 = share_with.l3
            self.itlb = share_with.itlb
            self.dtlb = share_with.dtlb
            self.trace_cache = share_with.trace_cache
            self.branch_predictor = share_with.branch_predictor
            self.domain = share_with.domain
            self.sibling = share_with
            share_with.sibling = self
        self.now = 0
        self.busy_cycles = 0
        # Same layout as the reference's list, but buffer-exportable so
        # the C engine adds into it directly.
        self.totals = array("q", zero_counts())
        self.last_spec = None
        self.skid_spec = None
        self._skid_acc = 0
        self._busy_at_last_tick = 0
        memsys.attach_cpu(self)

    # ------------------------------------------------------------------
    # The hot path.
    # ------------------------------------------------------------------

    def charge(self, spec, instructions, reads=(), writes=(), extra_cycles=0,
               branches=None, mispredicts=None):
        """Execute one invocation of ``spec``; same contract as
        :meth:`repro.cpu.core.Cpu.charge`."""
        return self._core.charge(self, spec, instructions, reads, writes,
                                 extra_cycles, branches, mispredicts)

    def __repr__(self):
        return "CompiledCpu(%s, now=%d, busy=%d)" % (
            self.name, self.now, self.busy_cycles)
