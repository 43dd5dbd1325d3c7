"""Socket buffers and the slab allocator.

Two slab caches back the stack, as in Linux: ``skb_head`` (the
``struct sk_buff`` metadata) and ``skb_data`` (the 2KB payload
buffer).  Each cache keeps **per-CPU freelists**: an object freed on a
CPU is preferentially reallocated there, still warm in that CPU's
caches.  This is the micro-mechanism behind much of the paper's
Buffer-mgmt improvement: under full affinity a connection's buffers
cycle through a single CPU's freelist and stay cache-hot; without
affinity they are allocated on one CPU, freed on the other, and every
reuse begins with coherence misses.
"""

#: Bound on a per-CPU freelist before overflowing to the global list.
PER_CPU_FREELIST_MAX = 64

#: Byte size of the sk_buff metadata object.
SKB_HEAD_SIZE = 256

#: The leading byte counts of the metadata the stack charges
#: (:meth:`SkBuff.head_range`).
HEAD_RANGE_SIZES = (64, 128, SKB_HEAD_SIZE)


class SlabCache:
    """A size-class allocator with per-CPU freelists."""

    def __init__(self, name, obj_size, space, n_cpus, prefix_sizes=()):
        self.name = name
        self.obj_size = obj_size
        #: Leading ranges precomputed on every object this cache
        #: creates (:meth:`~repro.mem.layout.MemoryObject.
        #: precompute_prefixes`); objects are recycled, so each is
        #: built once per object, not per allocation.
        self.prefix_sizes = prefix_sizes
        self._space = space
        self._per_cpu = [[] for _ in range(n_cpus)]
        self._global = []
        self.created = 0
        self.allocs = 0
        self.frees = 0
        self.cross_cpu_refills = 0
        #: Absolute live-object count and double-free detection: these
        #: survive measurement resets because the conservation law they
        #: feed (see repro.faults.invariants) is about object identity,
        #: not window activity.
        self.live = 0
        self._free_ids = set()
        self.double_frees = 0

    def alloc(self, cpu_index):
        """Return a :class:`~repro.mem.layout.MemoryObject` to use."""
        self.allocs += 1
        self.live += 1
        local = self._per_cpu[cpu_index]
        if local:
            obj = local.pop()
        elif self._global:
            self.cross_cpu_refills += 1
            obj = self._global.pop()
        else:
            self.created += 1
            obj = self._space.alloc(
                "%s#%d" % (self.name, self.created), self.obj_size
            )
            if self.prefix_sizes:
                obj.precompute_prefixes(self.prefix_sizes)
        self._free_ids.discard(id(obj))
        return obj

    def free(self, obj, cpu_index):
        """Return an object to ``cpu_index``'s freelist (LIFO = hot)."""
        if id(obj) in self._free_ids:
            self.double_frees += 1
            return
        self._free_ids.add(id(obj))
        self.frees += 1
        self.live -= 1
        local = self._per_cpu[cpu_index]
        if len(local) < PER_CPU_FREELIST_MAX:
            local.append(obj)
        else:
            self._global.append(obj)

    def outstanding(self):
        """Objects currently live (allocated and not freed)."""
        return self.allocs - self.frees

    def reset_stats(self):
        self.allocs = 0
        self.frees = 0
        self.cross_cpu_refills = 0


class SkBuff:
    """A socket buffer: metadata object + data buffer object.

    ``len`` is the payload length; ``consumed`` tracks partial reads on
    the receive path (a 128-byte ``read()`` consumes an MSS-sized skb
    over many calls, as in the paper's small-transaction runs).
    """

    __slots__ = (
        "head",
        "data",
        "len",
        "seq",
        "consumed",
        "is_ack",
        "end_seq",
        "conn",
        "sent_at",
        "is_clone",
        "pkt",
    )

    #: Payload starts after the header area of the data buffer.
    HEADER_BYTES = 64

    def __init__(self, head, data, conn=None):
        self.head = head
        self.data = data
        self.len = 0
        self.seq = 0
        self.end_seq = 0
        self.consumed = 0
        self.is_ack = False
        self.conn = conn
        self.sent_at = 0
        self.is_clone = False
        #: The on-wire packet this skb was built from (receive path).
        self.pkt = None

    @property
    def remaining(self):
        """Unconsumed payload bytes (receive path)."""
        return self.len - self.consumed

    @property
    def truesize(self):
        return SKB_HEAD_SIZE + self.data.size

    def payload_range(self, offset=0, size=None):
        """(addr, size) of payload bytes for cache modelling.

        A GRO-merged super-frame carries more payload than one data
        buffer holds (the real skb chains the absorbed frames' pages);
        its addresses wrap over this skb's buffer.  Unmerged skbs --
        every skb unless LRO/GRO is enabled -- never reach the wrap.
        """
        if size is None:
            size = self.len - offset
        cap = self.data.size - self.HEADER_BYTES
        if offset + size > cap:
            offset = offset % cap
            size = min(size, cap - offset)
        return self.data.field(self.HEADER_BYTES + offset, size)

    def header_range(self):
        """(addr, size) of the protocol header area (precomputed on
        slab data objects)."""
        return self.data.prefix[self.HEADER_BYTES]

    def head_range(self, size=SKB_HEAD_SIZE):
        """(addr, size) of the first ``size`` bytes of the sk_buff
        metadata, one of :data:`HEAD_RANGE_SIZES` (precomputed on slab
        head objects)."""
        return self.head.prefix[size]

    def room(self, mss):
        """Payload bytes this skb can still take (transmit coalescing)."""
        cap = min(mss, self.data.size - self.HEADER_BYTES)
        return cap - self.len

    def __repr__(self):
        return "SkBuff(len=%d, seq=%d, ack=%r)" % (self.len, self.seq, self.is_ack)


class SkbPools:
    """The pair of slab caches plus allocation/free helpers that
    charge the paper's Buffer-mgmt costs."""

    def __init__(self, machine, params):
        self.machine = machine
        self.head_cache = SlabCache(
            "skb_head", SKB_HEAD_SIZE, machine.space, machine.n_cpus,
            prefix_sizes=HEAD_RANGE_SIZES,
        )
        self.data_cache = SlabCache(
            "skb_data", params.skb_truesize, machine.space, machine.n_cpus,
            prefix_sizes=(SkBuff.HEADER_BYTES,),
        )
        machine.add_resettable(self.head_cache)
        machine.add_resettable(self.data_cache)
        #: Live clone skbs (share their original's data buffer); part
        #: of the skb conservation law checked after every run.
        self.clones_live = 0

    def alloc(self, ctx, spec, base_instructions, conn=None):
        """``alloc_skb``: charge buffer-mgmt work, return a fresh skb."""
        cpu_index = ctx.cpu.index
        head = self.head_cache.alloc(cpu_index)
        data = self.data_cache.alloc(cpu_index)
        skb = SkBuff(head, data, conn=conn)
        ctx.charge(
            spec,
            base_instructions,
            reads=[(head.addr, 64)],
            writes=[(head.addr, SKB_HEAD_SIZE), (data.addr, 64)],
        )
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit("skb_alloc", cpu=cpu_index, ts=ctx.now)
        return skb

    def free(self, ctx, spec, base_instructions, skb):
        """``kfree_skb``: charge buffer-mgmt work, recycle the objects.

        A clone returns only its metadata; the shared data buffer is
        owned by the original (retransmit-queue) skb, as in Linux.
        """
        cpu_index = ctx.cpu.index
        ctx.charge(
            spec,
            base_instructions,
            reads=[(skb.head.addr, SKB_HEAD_SIZE)],
            writes=[(skb.head.addr, 64)],
        )
        self.head_cache.free(skb.head, cpu_index)
        if skb.is_clone:
            self.clones_live -= 1
        else:
            self.data_cache.free(skb.data, cpu_index)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit("skb_free", cpu=cpu_index, ts=ctx.now)

    def clone(self, ctx, spec, base_instructions, skb):
        """``skb_clone``: new metadata sharing the original's data."""
        head = self.head_cache.alloc(ctx.cpu.index)
        clone = SkBuff(head, skb.data, conn=skb.conn)
        clone.len = skb.len
        clone.seq = skb.seq
        clone.end_seq = skb.end_seq
        clone.is_ack = skb.is_ack
        clone.is_clone = True
        self.clones_live += 1
        ctx.charge(
            spec,
            base_instructions,
            reads=[(skb.head.addr, SKB_HEAD_SIZE)],
            writes=[(head.addr, SKB_HEAD_SIZE)],
        )
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.emit("skb_alloc", cpu=ctx.cpu_index, ts=ctx.now)
        return clone

    def alloc_nocharge(self, cpu_index, conn=None):
        """Setup-time allocation (ring population) -- no CPU charge."""
        head = self.head_cache.alloc(cpu_index)
        data = self.data_cache.alloc(cpu_index)
        return SkBuff(head, data, conn=conn)

    def free_nocharge(self, skb, cpu_index):
        """Device-side free (TOE retransmit-queue trim runs on the NIC
        engine): the objects recycle without any host CPU charge."""
        self.head_cache.free(skb.head, cpu_index)
        if skb.is_clone:
            self.clones_live -= 1
        else:
            self.data_cache.free(skb.data, cpu_index)
