"""The simulated CPU: charging work against the microarchitecture.

:meth:`Cpu.charge` is the single point where simulated kernel work is
turned into cycles.  Given a function spec, a dynamic instruction
count and the byte ranges read/written, it drives instruction fetch
through the trace cache, translation through the TLBs, data through
the private three-level cache hierarchy (with coherence against the
other CPUs via the shared :class:`~repro.mem.system.MemorySystem`),
and branches through the predictor model; the resulting penalties are
summed with the retire-width floor and the function's dependency
stalls.  Every event is simultaneously pushed to the profiling sink,
attributed to ``(cpu, function)`` exactly like Oprofile attributes PMU
samples in the paper.
"""

from repro.cpu.branch import BranchPredictor
from repro.cpu.cache import SetAssocCache, TraceCache
from repro.cpu.tlb import Tlb
from repro.cpu.events import (
    BRANCHES,
    BR_MISPREDICTS,
    CYCLES,
    DTLB_WALKS,
    INSTRUCTIONS,
    ITLB_WALKS,
    L2_HITS,
    L3_HITS,
    LLC_MISSES,
    MACHINE_CLEARS,
    SKID_PERIOD,
    TC_MISSES,
    zero_counts,
)
from repro.mem.layout import CACHE_LINE, PAGE_SIZE
from repro.mem.system import DirectoryEntry


class CpuBase:
    """What both engines' CPUs share: construction and the cold paths
    the machine layer runs between charges.  Slotless, so it mixes into
    :class:`Cpu` and into the compiled CPU built over the C ``CpuCore``
    type alike.

    An engine supplies only its state layout: :meth:`_components`
    builds the seven per-core cache/TLB/predictor units, and the
    ``totals`` buffer comes in from its ``__init__``.
    """

    __slots__ = ()

    def __init__(self, index, params, costs, memsys, sink, totals,
                 name=None, share_with=None, domain=None):
        """
        ``share_with`` makes this CPU a HyperThreading sibling of
        another: the two logical processors share one physical core's
        caches, TLBs, trace cache and branch predictor (the P4 Xeon's
        SMT arrangement), and belong to one coherence ``domain``.
        """
        self.index = index
        self.name = name or ("CPU%d" % index)
        self.params = params
        self.costs = costs
        self.memsys = memsys
        self.sink = sink
        #: Coherence identity: which physical cache hierarchy we use.
        self.domain = domain if domain is not None else index
        #: HT sibling (set for both halves of a pair), and the
        #: sibling's recent busy fraction (updated by the machine tick)
        #: used to model execution-resource contention.
        self.sibling = None
        self.recent_load = 0.0
        if share_with is None:
            (self.l1, self.l2, self.l3, self.itlb, self.dtlb,
             self.trace_cache, self.branch_predictor) = self._components(
                params)
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
        #: Local clock in cycles.  The machine layer keeps it in sync
        #: with the global event engine.
        self.now = 0
        #: Cycles spent doing work (charges + interrupt flushes); the
        #: complement of idle time, for CPU-utilization reporting.
        self.busy_cycles = 0
        #: Per-CPU event totals (same layout as the sink's vectors).
        self.totals = totals
        #: The function most recently executed.
        self.last_spec = None
        #: Cycle-weighted sample of recently-executing functions: the
        #: spec that crossed the most recent sampling boundary.  This
        #: is the attribution target for asynchronous machine clears --
        #: like Oprofile's skid, a clear lands on whatever code was
        #: (statistically) on the CPU, weighted by time, not by call
        #: frequency.
        self.skid_spec = None
        self._skid_acc = 0
        #: Busy-cycle snapshot taken by the machine's load-tracking tick.
        self._busy_at_last_tick = 0
        memsys.attach_cpu(self)

    def machine_clear(self, attr_spec, counted, flush=True):
        """Apply a pipeline clear caused by an asynchronous interruption.

        ``counted`` is what the (noisy) MACHINE_CLEAR PMU event records;
        the performance charge is one pipeline flush when ``flush`` is
        true.  Events are attributed to ``attr_spec`` -- the interrupted
        function for IPIs, the handler for device interrupts -- which is
        exactly the "skid" attribution the paper works around in its
        Table 4 analysis.
        """
        cycles = self.costs.machine_clear if flush else 0
        if cycles:
            self.now += cycles
            self.busy_cycles += cycles
        totals = self.totals
        totals[CYCLES] += cycles
        totals[MACHINE_CLEARS] += counted
        self.sink.record(
            self.index, attr_spec, cycles, 0, 0, 0, 0, 0, 0, 0, 0, 0, counted
        )
        return cycles

    def advance_idle(self, cycles):
        """Let the local clock follow global time while idle-polling."""
        if cycles > 0:
            self.now += cycles

    def utilization(self, total_cycles=None):
        """Busy fraction of this CPU over ``total_cycles`` (or ``now``)."""
        denom = total_cycles if total_cycles else self.now
        if denom <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / float(denom))

    def __repr__(self):
        return "%s(%s, now=%d, busy=%d)" % (
            type(self).__name__, self.name, self.now, self.busy_cycles)


class Cpu(CpuBase):
    """One processor of the simulated SMP (the pure engine)."""

    __slots__ = (
        "index",
        "name",
        "params",
        "costs",
        "memsys",
        "sink",
        "domain",
        "sibling",
        "recent_load",
        "l1",
        "l2",
        "l3",
        "itlb",
        "dtlb",
        "trace_cache",
        "branch_predictor",
        "now",
        "busy_cycles",
        "totals",
        "last_spec",
        "skid_spec",
        "_skid_acc",
        "_busy_at_last_tick",
        "_walk_ctx",
        "_charge_ctx",
        "_inval_ctx",
    )

    def __init__(self, index, params, costs, memsys, sink, name=None,
                 share_with=None, domain=None):
        CpuBase.__init__(self, index, params, costs, memsys, sink,
                         zero_counts(), name, share_with, domain)
        #: Everything the fused data walks (:meth:`_read_range`,
        #: :meth:`_write_range`) need, packed into one tuple so the hot
        #: path pays a single attribute load + unpack instead of ~20
        #: attribute lookups per call.  Safe to freeze here: the
        #: caches' ``_sets`` lists, the directory dict and the cost
        #: constants are never reassigned after construction (every
        #: transition mutates the set lists in place), and ``domain``
        #: is final once the base's ``share_with`` wiring ran.
        self._walk_ctx = (
            self.l1, self.l2, self.l3,
            self.l1._sets, self.l1._mask, self.l1._ways,
            self.l2._sets, self.l2._mask, self.l2._ways,
            self.l3._sets, self.l3._mask, self.l3._ways,
            memsys, memsys.directory,
            memsys.make_exclusive,
            self.domain, 1 << self.domain,
            costs.l2_hit, costs.l3_hit, costs.c2c_transfer,
            costs.llc_miss, costs.llc_store_miss,
            self.dtlb, self.dtlb.access, self.dtlb.access_range,
        )
        #: Set lists + masks only, for the per-line coherence
        #: invalidation path (:meth:`invalidate_line`).
        self._inval_ctx = (
            self.l1._sets, self.l1._mask,
            self.l2._sets, self.l2._mask,
            self.l3._sets, self.l3._mask,
        )
        #: Same idea for :meth:`charge` itself: bound methods of the
        #: (never reassigned) fetch/translate/accounting units plus the
        #: scalar cost constants, one tuple load per charge.  The tail
        #: carries the L1/DTLB/directory handles for the single-line
        #: fast path in the data loops (the TLB objects go in whole,
        #: not their ``_entries`` lists, because ``flush_below``
        #: *reassigns* those lists).
        self._charge_ctx = (
            self.trace_cache.miss_count,
            self.itlb, self.itlb.access,
            self.branch_predictor,
            sink.record,
            self.totals,
            costs.tc_miss, costs.itlb_walk, costs.dtlb_walk,
            costs.br_mispredict, costs.retire_width, costs.smt_penalty,
            index,
            self.l1, self.l1._sets, self.l1._mask,
            self.dtlb,
            memsys.directory, 1 << self.domain, self.domain,
        )

    def _components(self, params):
        return (
            SetAssocCache(params.l1),
            SetAssocCache(params.l2),
            SetAssocCache(params.l3),
            Tlb(params.itlb),
            Tlb(params.dtlb),
            TraceCache(params.trace_cache),
            BranchPredictor(params.bp_capacity),
        )

    # ------------------------------------------------------------------
    # Hot path.
    # ------------------------------------------------------------------

    def charge(self, spec, instructions, reads=(), writes=(), extra_cycles=0,
               branches=None, mispredicts=None):
        """Execute one invocation of ``spec`` and return its cycle cost.

        Parameters
        ----------
        spec:
            The :class:`~repro.cpu.function.FunctionSpec` being run.
        instructions:
            Dynamic instructions retired by this invocation.
        reads / writes:
            Iterables of ``(addr, size)`` byte ranges touched.
        extra_cycles:
            Additional stall cycles decided by the caller (e.g. an I/O
            register read in a driver).
        branches / mispredicts:
            Overrides for the spec-derived branch counts; used by the
            spinlock code, whose branch behaviour is data-dependent
            (Table 2 of the paper).
        """
        (tc_miss_count, itlb, itlb_access, branch_predictor,
         sink_record, totals,
         tc_miss_cost, itlb_walk_cost, dtlb_walk_cost,
         br_mispredict_cost, retire_width, smt_penalty,
         my_index,
         l1, sets1, mask1, dtlb, directory, mybit, domain) = self._charge_ctx
        self.last_spec = spec
        llc_misses = 0
        l2_hits = 0
        l3_hits = 0
        penalty = 0

        # Instruction fetch through the trace cache (one batched walk).
        # The by-count memo skips the fetch_lines frame on repeat
        # instruction counts (the overwhelmingly common case); the cap
        # bounds pathological count diversity.
        fetch_memo = spec._fetch_by_count
        lines = fetch_memo.get(instructions)
        if lines is None:
            lines = spec.fetch_lines(instructions)
            if len(fetch_memo) < 512:
                fetch_memo[instructions] = lines
        tc_misses = tc_miss_count(lines)
        itlb_walks = 0
        # Inline of the ITLB MRU hit (a no-op on TLB state); the Tlb
        # method owns every other case.
        ientries = itlb._entries
        if ientries and ientries[0] == spec.code_page:
            itlb.hits += 1
        elif not itlb_access(spec.code_page):
            itlb_walks = 1
        if tc_misses:
            penalty += tc_misses * tc_miss_cost
        if itlb_walks:
            penalty += itlb_walk_cost

        # Data accesses (the walk functions fuse the DTLB translation,
        # so each range costs one call, not two).  The dominant range
        # shape is a hot single-line struct touch -- L1-MRU hit,
        # DTLB-MRU hit, and (for writes) already exclusive to us.  That
        # case is provably a no-op on every piece of state except two
        # hit counters, so it is recognised here and the walk-function
        # call skipped entirely.  Any condition failing falls through
        # to the full walk having mutated nothing.
        dtlb_walks = 0
        if reads or writes:
            if reads:
                read_range = self._read_range
                for addr, size in reads:
                    if size <= 0:
                        continue
                    line = addr // CACHE_LINE
                    if line == (addr + size - 1) // CACHE_LINE:
                        b1 = sets1[line & mask1]
                        if b1 and b1[0] == line:
                            dentries = dtlb._entries
                            if dentries and dentries[0] == addr // PAGE_SIZE:
                                l1.hits += 1
                                dtlb.hits += 1
                                continue
                    miss, l2h, l3h, cyc, walks = read_range(addr, size)
                    dtlb_walks += walks
                    llc_misses += miss
                    l2_hits += l2h
                    l3_hits += l3h
                    penalty += cyc
            if writes:
                write_range = self._write_range
                for addr, size in writes:
                    if size <= 0:
                        continue
                    line = addr // CACHE_LINE
                    if line == (addr + size - 1) // CACHE_LINE:
                        b1 = sets1[line & mask1]
                        if b1 and b1[0] == line:
                            # L1-resident => the directory entry exists
                            # (see the walk functions' invariant note).
                            entry = directory[line]
                            if entry[0] == mybit and entry[1] == domain:
                                dentries = dtlb._entries
                                if dentries and dentries[0] == addr // PAGE_SIZE:
                                    l1.hits += 1
                                    dtlb.hits += 1
                                    continue
                    miss, l2h, l3h, cyc, walks = write_range(addr, size)
                    dtlb_walks += walks
                    llc_misses += miss
                    l2_hits += l2h
                    l3_hits += l3h
                    penalty += cyc
        if dtlb_walks:
            penalty += dtlb_walks * dtlb_walk_cost

        # Spec-static per-count costs (stall cycles and default branch
        # count are pure functions of (spec, instructions) -- memoized).
        pair = spec._cost_memo.get(instructions)
        if pair is None:
            pair = (
                int(instructions * spec.stall_per_instr) + spec.stall_per_call,
                int(instructions * spec.branch_frac),
            )
            if len(spec._cost_memo) < 512:
                spec._cost_memo[instructions] = pair
        static_stall, default_branches = pair

        # Branches.
        if branches is None:
            branches = default_branches
        if mispredicts is None:
            mispredicts = branch_predictor.predict(
                spec.name, branches, spec.mispredict_rate
            )
        else:
            branch_predictor.mispredicts += mispredicts
        if mispredicts:
            penalty += mispredicts * br_mispredict_cost

        cycles = (
            -(-instructions // retire_width)
            + static_stall
            + extra_cycles
            + penalty
        )
        sibling = self.sibling
        if sibling is not None and sibling.recent_load > 0.0:
            # SMT contention: a busy sibling steals issue slots and
            # cache ports; slow down in proportion to its load.
            cycles += int(cycles * smt_penalty * sibling.recent_load)

        self.now += cycles
        self.busy_cycles += cycles
        self._skid_acc += cycles
        if self._skid_acc >= SKID_PERIOD:
            self._skid_acc %= SKID_PERIOD
            self.skid_spec = spec

        totals[CYCLES] += cycles
        totals[INSTRUCTIONS] += instructions
        totals[BRANCHES] += branches
        totals[BR_MISPREDICTS] += mispredicts
        totals[LLC_MISSES] += llc_misses
        totals[L2_HITS] += l2_hits
        totals[L3_HITS] += l3_hits
        totals[TC_MISSES] += tc_misses
        totals[ITLB_WALKS] += itlb_walks
        totals[DTLB_WALKS] += dtlb_walks

        sink_record(
            my_index,
            spec,
            cycles,
            instructions,
            branches,
            mispredicts,
            llc_misses,
            l2_hits,
            l3_hits,
            tc_misses,
            itlb_walks,
            dtlb_walks,
            0,
        )
        return cycles

    def _read_range(self, addr, size):
        """Read walk of one byte range through the hierarchy at line
        granularity.

        This loop and :meth:`_write_range` are fused forms of the
        line-at-a-time walk that calls
        :meth:`~repro.cpu.cache.SetAssocCache.access` per line per
        level: one Python loop drives all three levels (and, for
        writes, the directory-exclusivity step), operating directly on
        the caches' set lists.  They are bit-identical to that walk --
        an L1 hit never touches L2; each level still sees its accesses
        in the same line order; ``access`` fills on miss (so explicit
        back-fills are no-ops); an already-MRU hit's LRU move is a
        no-op; directory entries are per-line independent and neither
        the read-miss step nor ``make_exclusive`` touches *this*
        domain's caches (so the write-exclusivity step may run per
        line instead of after the whole walk); and ``bus_delay`` only
        changes at machine ticks, never mid-charge.
        ``tests/test_access_range_edges.py`` checks this equivalence
        against a per-level ``access`` model after every charge.

        The read-miss step (inlined at every LLC miss) is the MESI
        directory's: a line owned dirty by another domain is a
        cache-to-cache transfer that downgrades the owner to shared,
        and the reader joins the sharer set (a never-seen line gets a
        fresh shared entry).

        The cold-line fast path rests on a directory invariant: these
        loops are the only way data lines enter the private hierarchy,
        every insertion sets this domain's sharer bit (the read-miss
        step and ``make_exclusive`` both do), and the bit is only
        ever cleared together with an ``invalidate_line`` that empties
        all three levels.  The directory over-approximates presence, so
        *bit set* proves nothing -- but *bit clear* proves the line is
        nowhere in this hierarchy, and all three membership scans can
        be skipped.  This is the common case for receive payloads,
        which arrive by DMA (DMA invalidates and clears sharer bits).
        The golden-determinism suite pins all of these equivalences.

        Both loops also fuse the DTLB translation for the range (the
        TLB and the cache hierarchy are independent state, so ordering
        between them within one charge cannot affect results) and
        return ``(llc_misses, l2_hits, l3_hits, cycles, dtlb_walks)``.
        """
        (l1, l2, l3,
         sets1, mask1, ways1,
         sets2, mask2, ways2,
         sets3, mask3, ways3,
         memsys, directory, make_exclusive,
         index, mybit,
         l2_hit_cost, l3_hit_cost, c2c_cost,
         miss_cost, _llc_store_cost,
         dtlb, dtlb_access, dtlb_access_range) = self._walk_ctx
        if size <= 0:
            return 0, 0, 0, 0, 0
        # DTLB translation, fused so a data range costs one call.  The
        # single-page case (most struct touches) checks the MRU entry
        # inline -- that hit is a no-op on TLB state -- and otherwise
        # defers to the Tlb methods, which own the full LRU logic.
        last = addr + size - 1
        page = addr // PAGE_SIZE
        if page == last // PAGE_SIZE:
            tlb_entries = dtlb._entries
            if tlb_entries and tlb_entries[0] == page:
                dtlb.hits += 1
                dtlb_walks = 0
            else:
                dtlb_walks = 0 if dtlb_access(page) else 1
        else:
            dtlb_walks = dtlb_access_range(addr, size)
        # Inline of layout.line_span (hot path; keep the two in sync).
        first = addr // CACHE_LINE
        span = range(first, last // CACHE_LINE + 1)
        l1_hits = 0
        l2_hits = 0
        l3_hits = 0
        llc_misses = 0
        cycles = 0
        for line in span:
            b1 = sets1[line & mask1]
            if b1 and b1[0] == line:
                l1_hits += 1
                continue
            if line in b1:
                l1_hits += 1
                del b1[b1.index(line)]
                b1.insert(0, line)
                continue
            b1.insert(0, line)
            if len(b1) > ways1:
                b1.pop()
            # Subscript, not ``.get``: entries are never deleted, so
            # KeyError means a genuinely never-seen line -- rare enough
            # (bounded by the address-space footprint) that the except
            # path beats paying a bound-method call on every line.
            try:
                entry = directory[line]
            except KeyError:
                # Never-seen line: fill through all levels, created
                # shared (the read-miss step).
                b2 = sets2[line & mask2]
                b2.insert(0, line)
                if len(b2) > ways2:
                    b2.pop()
                b3 = sets3[line & mask3]
                b3.insert(0, line)
                if len(b3) > ways3:
                    b3.pop()
                llc_misses += 1
                directory[line] = DirectoryEntry((mybit, -1))
                cycles += miss_cost
                continue
            if not entry[0] & mybit:
                # Provably cold (sharer bit clear): fill straight through
                # all levels, then the read-miss step.
                b2 = sets2[line & mask2]
                b2.insert(0, line)
                if len(b2) > ways2:
                    b2.pop()
                b3 = sets3[line & mask3]
                b3.insert(0, line)
                if len(b3) > ways3:
                    b3.pop()
                llc_misses += 1
                owner = entry[1]
                if 0 <= owner != index:
                    memsys.c2c_transfers += 1
                    entry[1] = -1
                    cycles += c2c_cost
                else:
                    cycles += miss_cost
                entry[0] |= mybit
                continue
            b2 = sets2[line & mask2]
            if b2 and b2[0] == line:
                l2_hits += 1
                cycles += l2_hit_cost
            elif line in b2:
                l2_hits += 1
                cycles += l2_hit_cost
                del b2[b2.index(line)]
                b2.insert(0, line)
            else:
                b2.insert(0, line)
                if len(b2) > ways2:
                    b2.pop()
                b3 = sets3[line & mask3]
                if b3 and b3[0] == line:
                    l3_hits += 1
                    cycles += l3_hit_cost
                elif line in b3:
                    l3_hits += 1
                    cycles += l3_hit_cost
                    del b3[b3.index(line)]
                    b3.insert(0, line)
                else:
                    b3.insert(0, line)
                    if len(b3) > ways3:
                        b3.pop()
                    llc_misses += 1
                    # The read-miss step, our sharer bit known set.
                    owner = entry[1]
                    if 0 <= owner != index:
                        memsys.c2c_transfers += 1
                        entry[1] = -1
                        cycles += c2c_cost
                    else:
                        cycles += miss_cost
        if llc_misses:
            # Shared-FSB queuing, one slot per fill.
            cycles += llc_misses * memsys.bus_delay
        n_lines = len(span)
        l1.hits += l1_hits
        l1.misses += n_lines - l1_hits
        n_lines -= l1_hits
        l2.hits += l2_hits
        l2.misses += n_lines - l2_hits
        n_lines -= l2_hits
        l3.hits += l3_hits
        l3.misses += n_lines - l3_hits
        return llc_misses, l2_hits, l3_hits, cycles, dtlb_walks

    def _write_range(self, addr, size):
        """Write walk with the exclusivity step fused per line.

        See :meth:`_read_range` for the model notes.  Relative to the
        read loop, every line additionally acquires write ownership:
        the historical separate directory pass is folded in (legal
        because ``make_exclusive`` never touches this domain's caches),
        and for a line the directory has never seen, the
        read-miss step + ``make_exclusive`` pair collapses to creating
        the entry already exclusive.
        """
        (l1, l2, l3,
         sets1, mask1, ways1,
         sets2, mask2, ways2,
         sets3, mask3, ways3,
         memsys, directory, make_exclusive,
         index, mybit,
         l2_hit_cost, l3_hit_cost, c2c_cost,
         _llc_miss_cost, miss_cost,
         dtlb, dtlb_access, dtlb_access_range) = self._walk_ctx
        if size <= 0:
            return 0, 0, 0, 0, 0
        # DTLB translation fused in; see :meth:`_read_range`.
        last = addr + size - 1
        page = addr // PAGE_SIZE
        if page == last // PAGE_SIZE:
            tlb_entries = dtlb._entries
            if tlb_entries and tlb_entries[0] == page:
                dtlb.hits += 1
                dtlb_walks = 0
            else:
                dtlb_walks = 0 if dtlb_access(page) else 1
        else:
            dtlb_walks = dtlb_access_range(addr, size)
        # Inline of layout.line_span (hot path; keep the two in sync).
        first = addr // CACHE_LINE
        span = range(first, last // CACHE_LINE + 1)
        l1_hits = 0
        l2_hits = 0
        l3_hits = 0
        llc_misses = 0
        cycles = 0
        for line in span:
            b1 = sets1[line & mask1]
            if b1 and b1[0] == line:
                l1_hits += 1
                # L1-resident lines always have a directory entry: data
                # enters this hierarchy only via these walks, and every
                # insertion ensures the entry exists (entries are never
                # deleted), so a plain subscript is safe.
                entry = directory[line]
                if entry[0] != mybit or entry[1] != index:
                    make_exclusive(line, index)
                continue
            if line in b1:
                l1_hits += 1
                del b1[b1.index(line)]
                b1.insert(0, line)
                entry = directory[line]
                if entry[0] != mybit or entry[1] != index:
                    make_exclusive(line, index)
                continue
            b1.insert(0, line)
            if len(b1) > ways1:
                b1.pop()
            try:
                entry = directory[line]
            except KeyError:
                # Never-seen line: fill through, created exclusive.
                b2 = sets2[line & mask2]
                b2.insert(0, line)
                if len(b2) > ways2:
                    b2.pop()
                b3 = sets3[line & mask3]
                b3.insert(0, line)
                if len(b3) > ways3:
                    b3.pop()
                llc_misses += 1
                cycles += miss_cost
                directory[line] = DirectoryEntry((mybit, index))
                continue
            if not entry[0] & mybit:
                # Provably cold here (sharer bit clear): fill through;
                # the read-miss step, then claim exclusivity.
                b2 = sets2[line & mask2]
                b2.insert(0, line)
                if len(b2) > ways2:
                    b2.pop()
                b3 = sets3[line & mask3]
                b3.insert(0, line)
                if len(b3) > ways3:
                    b3.pop()
                llc_misses += 1
                owner = entry[1]
                if 0 <= owner != index:
                    memsys.c2c_transfers += 1
                    entry[1] = -1
                    cycles += c2c_cost
                else:
                    cycles += miss_cost
                entry[0] |= mybit
                make_exclusive(line, index)
                continue
            b2 = sets2[line & mask2]
            if b2 and b2[0] == line:
                l2_hits += 1
                cycles += l2_hit_cost
            elif line in b2:
                l2_hits += 1
                cycles += l2_hit_cost
                del b2[b2.index(line)]
                b2.insert(0, line)
            else:
                b2.insert(0, line)
                if len(b2) > ways2:
                    b2.pop()
                b3 = sets3[line & mask3]
                if b3 and b3[0] == line:
                    l3_hits += 1
                    cycles += l3_hit_cost
                elif line in b3:
                    l3_hits += 1
                    cycles += l3_hit_cost
                    del b3[b3.index(line)]
                    b3.insert(0, line)
                else:
                    b3.insert(0, line)
                    if len(b3) > ways3:
                        b3.pop()
                    llc_misses += 1
                    # The read-miss step, our sharer bit known set.
                    owner = entry[1]
                    if 0 <= owner != index:
                        memsys.c2c_transfers += 1
                        entry[1] = -1
                        cycles += c2c_cost
                    else:
                        cycles += miss_cost
            if entry[0] != mybit or entry[1] != index:
                make_exclusive(line, index)
        if llc_misses:
            # Shared-FSB queuing, one slot per fill.
            cycles += llc_misses * memsys.bus_delay
        n_lines = len(span)
        l1.hits += l1_hits
        l1.misses += n_lines - l1_hits
        n_lines -= l1_hits
        l2.hits += l2_hits
        l2.misses += n_lines - l2_hits
        n_lines -= l2_hits
        l3.hits += l3_hits
        l3.misses += n_lines - l3_hits
        return llc_misses, l2_hits, l3_hits, cycles, dtlb_walks

    # ------------------------------------------------------------------
    # Coherence.
    # ------------------------------------------------------------------

    def invalidate_line(self, line):
        """Coherence invalidation from the directory or DMA.

        The one invalidation transition of the data caches, inlined
        over all three levels' set lists (this runs once per
        invalidated line per domain on every receive DMA).  The trace
        cache holds instruction lines, which coherence never touches.
        """
        sets1, mask1, sets2, mask2, sets3, mask3 = self._inval_ctx
        bucket = sets1[line & mask1]
        if line in bucket:
            bucket.remove(line)
        bucket = sets2[line & mask2]
        if line in bucket:
            bucket.remove(line)
        bucket = sets3[line & mask3]
        if line in bucket:
            bucket.remove(line)
