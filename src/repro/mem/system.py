"""Coherent memory system shared by all simulated CPUs.

A single directory tracks, per cache line, which CPUs may hold the
line and which CPU (if any) last wrote it.  The protocol is a compact
MESI abstraction:

* a **read miss** that finds the line dirty in another CPU's hierarchy
  is served cache-to-cache (still a last-level miss for the reader, as
  on the paper's front-side-bus Xeons, where a snoop hit costs about as
  much as DRAM);
* a **write** requires exclusivity -- every other CPU's copy is
  invalidated, so the next access on that CPU misses.  This is the
  mechanism behind the paper's observation that splitting TCP
  processing across CPUs inflates LLC misses: control blocks and
  socket structures written in softirq context on one CPU are re-read
  in process context on another.

The directory deliberately over-approximates presence: evicting a line
from a CPU's caches does not clear its directory bit (tracking that
exactly would require inclusive back-invalidation bookkeeping).  The
only consequence is that a rare memory fill may be classified as a
cache-to-cache transfer; both cost the same and both count as LLC
misses, so no reported metric is affected.

DMA is modelled faithfully for the cases that matter to the paper:
device writes (packet reception) invalidate the written lines in every
CPU, which is why receive-side payload copies are always cache-cold.
"""

#: Directory entry field indices.
SHARERS = 0
OWNER = 1


class DirectoryEntry(list):
    """``[sharers_mask, owner]`` -- a mutable two-slot record.

    Implemented as a list subclass so the hot paths in
    :mod:`repro.cpu.core` can index it without attribute overhead while
    tests and tools still get a meaningful type and repr.
    """

    __slots__ = ()

    def __repr__(self):
        return "DirectoryEntry(sharers=0b%s, owner=%d)" % (
            bin(self[SHARERS])[2:],
            self[OWNER],
        )


class Interconnect:
    """What both engines' memory systems share: the attached CPUs and
    the front-side-bus model.

    Counters are plain attribute writes here; the compiled memory
    system backs the same names with properties over the stats buffer
    its C core reads, so these writes reach that buffer.
    """

    def __init__(self, dma_read_invalidates=True):
        #: On the paper's front-side-bus chipsets, device reads snoop
        #: with invalidation: a transmitted buffer is cache-cold when
        #: the CPU next touches it.  This is what keeps transmit-copy
        #: MPI high (~0.01) *regardless of affinity* in the paper's
        #: Table 1 ("affinity did not seem to affect copies").
        self.dma_read_invalidates = dma_read_invalidates
        self._cpus = []
        #: One representative CPU per coherence domain.  HT siblings
        #: share a cache hierarchy, so invalidating through any one of
        #: them empties the physical caches for the whole domain.
        self._domain_reps = {}
        self.dma_lines_written = 0
        self.dma_lines_read = 0
        self.invalidations = 0
        self.c2c_transfers = 0
        #: Shared front-side-bus state: recent utilization (EWMA, fed
        #: by the machine tick) and the per-miss queuing delay derived
        #: from it.  See CostModel.bus_slot_cycles.
        self.bus_utilization = 0.0
        self.bus_delay = 0

    def update_bus(self, miss_slots_cycles, window_cycles, costs):
        """Refresh the queuing-delay estimate from one tick's traffic.

        ``miss_slots_cycles`` is the bus time consumed by fills during
        the window (misses x slot).  Utilization feeds an M/M/1-style
        expected wait, capped at ``bus_max_delay``.
        """
        if window_cycles <= 0:
            return
        instant = min(0.95, miss_slots_cycles / float(window_cycles))
        self.bus_utilization = (
            0.7 * self.bus_utilization + 0.3 * instant
        )
        u = self.bus_utilization
        delay = int(costs.bus_slot_cycles * u / (1.0 - u))
        self.bus_delay = min(delay, costs.bus_max_delay)

    def attach_cpu(self, cpu):
        """Register a CPU; its *domain* is its coherence identity."""
        if cpu in self._cpus:
            raise ValueError("CPU %r attached twice" % cpu)
        self._cpus.append(cpu)
        domain = getattr(cpu, "domain", cpu.index)
        self._domain_reps.setdefault(domain, cpu)

    @property
    def cpus(self):
        return list(self._cpus)


class MemorySystem(Interconnect):
    """The reference memory system: a dict directory plus the coherence
    and DMA transitions the pure engine runs."""

    def __init__(self, dma_read_invalidates=True):
        super().__init__(dma_read_invalidates)
        self.directory = {}

    # ------------------------------------------------------------------
    # Coherence operations used by the CPU access path.
    # ------------------------------------------------------------------

    def make_exclusive(self, line, domain):
        """Grant ``domain`` write ownership, invalidating other copies.

        Returns the number of *other* domains whose copy was invalidated.
        """
        mybit = 1 << domain
        entry = self.directory.get(line)
        if entry is None:
            self.directory[line] = DirectoryEntry((mybit, domain))
            return 0
        others = entry[SHARERS] & ~mybit
        invalidated = 0
        if others:
            for dom, rep in self._domain_reps.items():
                if others & (1 << dom):
                    rep.invalidate_line(line)
                    invalidated += 1
            self.invalidations += invalidated
        entry[SHARERS] = mybit
        entry[OWNER] = domain
        return invalidated

    # ------------------------------------------------------------------
    # DMA.
    # ------------------------------------------------------------------

    def dma_write(self, addr, size):
        """Device writes memory (e.g. NIC receive DMA).

        Every CPU copy of the written lines is invalidated and memory
        becomes the owner, so subsequent CPU reads are cold misses.
        """
        from repro.mem.layout import line_span

        span = line_span(addr, size)
        get_entry = self.directory.get
        reps = self._domain_reps.items()
        invalidations = 0
        for line in span:
            entry = get_entry(line)
            if entry is not None and entry[SHARERS]:
                sharers = entry[SHARERS]
                for dom, rep in reps:
                    if sharers & (1 << dom):
                        rep.invalidate_line(line)
                        invalidations += 1
                entry[SHARERS] = 0
                entry[OWNER] = -1
        self.invalidations += invalidations
        self.dma_lines_written += len(span)

    def dma_read(self, addr, size):
        """Device reads memory (e.g. NIC transmit DMA).

        With ``dma_read_invalidates`` (the default, matching the
        paper's chipset generation) dirty CPU copies are written back
        and *invalidated*; otherwise they are merely downgraded to
        shared and stay warm.
        """
        from repro.mem.layout import line_span

        span = line_span(addr, size)
        get_entry = self.directory.get
        reps = self._domain_reps.items()
        invalidate = self.dma_read_invalidates
        invalidations = 0
        for line in span:
            entry = get_entry(line)
            if entry is not None:
                sharers = entry[SHARERS]
                if invalidate and sharers:
                    for dom, rep in reps:
                        if sharers & (1 << dom):
                            rep.invalidate_line(line)
                            invalidations += 1
                    entry[SHARERS] = 0
                entry[OWNER] = -1
        self.invalidations += invalidations
        self.dma_lines_read += len(span)

    # ------------------------------------------------------------------
    # Introspection helpers (tests, tools).
    # ------------------------------------------------------------------

    def sharers_of(self, line):
        """Bitmask of CPUs the directory believes may cache ``line``."""
        entry = self.directory.get(line)
        return 0 if entry is None else entry[SHARERS]

    def owner_of(self, line):
        """Dirty owner of ``line`` or -1."""
        entry = self.directory.get(line)
        return -1 if entry is None else entry[OWNER]
