"""Receive-side scaling and Flow Director: multi-queue flow steering.

The paper's conclusion looks forward to NICs that "look deeper into
packets to extract flow information (receive-side scaling) and direct
connections and interrupts, dynamically, to a specific processor".
This module implements both generations of that vision on the
simulated hardware:

* :class:`RssSteering` -- the *software* approximation available to a
  single-vector NIC: a controller periodically points each
  connection's interrupt line at the CPU its consuming process last
  ran on, achieving full-affinity-like alignment with no static
  pinning.  (Used by the ``rss`` affinity mode on single-queue
  stacks; kept verbatim from the original extension study.)

* :class:`NicSteering` -- *hardware* multi-queue steering for a
  :class:`~repro.net.nic.Nic` built with ``n_queues > 1``: a Toeplitz
  hash over the flow's 4-tuple indexes a 128-entry indirection table
  (receive-side scaling, the Microsoft RSS contract), optionally
  overridden by a :class:`FlowDirector` exact-match table that
  retargets a flow's queue toward the CPU last seen transmitting it
  (Intel's ATR/Flow Director).  The Flow Director path deliberately
  reproduces the stale-entry race analysed by Wu et al. ("Why Does
  Flow Director Cause Packet Reordering?"): frames already pending on
  the flow's old queue are claimed *after* younger frames steered to
  the new queue, and the receiver sees the inversion as out-of-order
  segments and duplicate ACKs.
"""

from array import array

#: The canonical 40-byte Toeplitz hash key from the Microsoft RSS
#: verification suite.  Any key works for load spreading; using the
#: reference key lets the implementation be checked against the
#: published test vectors.
TOEPLITZ_KEY = bytes((
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
    0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
    0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
))

#: Entries in the RSS indirection table (the usual hardware size).
INDIRECTION_ENTRIES = 128

#: Flow Director samples every Nth transmitted frame of a flow (the
#: ATR sample rate; ixgbe defaults to 20, we sample more aggressively
#: so short simulated windows still exercise retargeting).
FD_SAMPLE_RATE = 8

#: Exact-match filter entries the Flow Director table holds (ixgbe's
#: perfect-filter table is 8K entries at the default FDIR allocation).
#: With more active flows than entries the hardware evicts -- a
#: capacity effect that only appears at scale-study flow counts.
FD_TABLE_CAPACITY = 8192


def _toeplitz_tables(key, n_bytes):
    """Per-byte-position XOR tables of the Toeplitz hash.

    Because the hash is linear over GF(2), the contribution of each
    input byte is independent of every other byte: ``tables[p][v]`` is
    the hash of an ``n_bytes`` input that is zero except for value
    ``v`` at position ``p``, and the hash of any input is the XOR of
    its bytes' entries.
    """
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    if n_bytes * 8 > key_bits - 32:
        raise ValueError("input too long for a %d-bit key" % key_bits)
    windows = [
        (key_int >> (key_bits - 32 - i)) & 0xFFFFFFFF
        for i in range(n_bytes * 8)
    ]
    tables = []
    for p in range(n_bytes):
        table = [0] * 256
        for v in range(256):
            h = 0
            for j in range(8):
                if v & (0x80 >> j):
                    h ^= windows[8 * p + j]
            table[v] = h
        tables.append(tuple(table))
    return tuple(tables)


#: Client hosts per /24 subnet and subnets per /16 in the synthesized
#: flow tuples (addresses 10.0.0-249.1-250).
_HOSTS = 250
#: Ephemeral source ports: ``_PORT_BASE`` plus the connection id's
#: Knuth multiplicative hash modulo ``_PORT_SPAN``.
_PORT_BASE = 32768
_PORT_SPAN = 28233
_PORT_MULT = 2654435761


def flow_tuple_bytes(conn_id):
    """The simulated connection's TCP/IPv4 4-tuple, RSS input order.

    On-wire packets carry only ``conn_id`` (payload bytes live in
    simulated memory, not Python data), so the classifier synthesizes
    the 4-tuple the real header would carry: every connection is a
    distinct client host/port talking to the SUT's service port.

    Ephemeral ports are spread by a Knuth multiplicative hash rather
    than allocated consecutively: Toeplitz is linear over GF(2), so
    tuples differing only in a couple of low bit positions can land in
    congruent indirection slots (all our all-consecutive candidates
    hit queue 0 with the canonical key) -- and real stacks randomize
    ephemeral port selection for unrelated reasons anyway.
    """
    src_ip = bytes((10, 0, (conn_id // _HOSTS) % _HOSTS,
                    1 + conn_id % _HOSTS))
    dst_ip = bytes((10, 0, 1, 1))
    src_port = _PORT_BASE + (conn_id * _PORT_MULT) % _PORT_SPAN
    dst_port = 5001
    return (src_ip + dst_ip
            + src_port.to_bytes(2, "big") + dst_port.to_bytes(2, "big"))


#: :func:`flow_hash`'s lookup tables, built on first use.
_FLOW_TABLES = None


def _flow_hash_tables():
    global _FLOW_TABLES
    tables = _toeplitz_tables(TOEPLITZ_KEY, 12)
    # The tuple's constant part: destination address and port, the
    # client network prefix.  Its hash folds into the host table.
    fixed = bytearray(flow_tuple_bytes(0))
    fixed[2] = fixed[3] = fixed[8] = fixed[9] = 0
    base = 0
    for p, v in enumerate(fixed):
        base ^= tables[p][v]
    _FLOW_TABLES = (
        array("I", tables[2][:_HOSTS]),
        array("I", [base ^ tables[3][1 + i] for i in range(_HOSTS)]),
        array("I", [
            tables[8][port >> 8] ^ tables[9][port & 0xFF]
            for port in range(_PORT_BASE, _PORT_BASE + _PORT_SPAN)
        ]),
    )
    return _FLOW_TABLES


def flow_hash(conn_id):
    """The Toeplitz hash of ``flow_tuple_bytes(conn_id)``, in closed form.

    Toeplitz is linear over GF(2), and the flow tuple varies in only
    three fields: the client subnet byte, the client host byte and the
    source port.  The hash is therefore a constant XOR one lookup per
    field, in tables over each field's values (250, 250 and 28,233
    entries; the constant is folded into the host table).  Equality
    with the bit-serial definition (the tests' oracle) is pinned on
    both sides of every period boundary.
    """
    subnet, host, port = _FLOW_TABLES or _flow_hash_tables()
    return (subnet[(conn_id // _HOSTS) % _HOSTS]
            ^ host[conn_id % _HOSTS]
            ^ port[(conn_id * _PORT_MULT) % _PORT_SPAN])


class RssIndirection:
    """The RSS indirection table: hash LSBs -> queue index.

    Initialized to the standard equal-weight round-robin spread; the
    table itself never changes during a run (re-balancing is a host
    driver action, out of scope), which is what makes pure-RSS
    steering a *static* function of the flow tuple.
    """

    def __init__(self, n_queues, entries=INDIRECTION_ENTRIES):
        self.table = [i % n_queues for i in range(entries)]
        self.mask = entries - 1

    def lookup(self, hash_value):
        return self.table[hash_value & self.mask]


class FlowDirector:
    """Intel ATR-style exact-match flow table (conn_id -> queue).

    The NIC samples transmitted frames: every :data:`FD_SAMPLE_RATE`
    frames of a flow, the queue serving the *transmitting CPU*
    (``cpu % n_queues``, the ATR TX-queue selection) is written into
    the flow's filter.  Receive lookups prefer a filter hit over the
    RSS indirection table.  Because the update races with frames
    already accepted on the old queue, a retarget can reorder the
    flow -- the measurable effect this model exists to surface.
    """

    def __init__(self, n_queues, capacity=FD_TABLE_CAPACITY):
        self.n_queues = n_queues
        self.capacity = capacity
        self.filters = {}
        self._tx_seen = {}
        self.samples = 0
        self.retargets = 0

    def match(self, conn_id):
        """The filter's queue for ``conn_id``, or ``None`` on a miss."""
        return self.filters.get(conn_id)

    def sample_tx(self, conn_id, cpu_index):
        """Observe one transmitted frame; maybe update the filter.

        Returns the new queue on a retarget, else ``None``.
        """
        seen = self._tx_seen.get(conn_id, 0) + 1
        self._tx_seen[conn_id] = seen
        if seen % FD_SAMPLE_RATE != 0:
            return None
        self.samples += 1
        queue = cpu_index % self.n_queues
        if self.filters.get(conn_id) == queue:
            return None
        if conn_id not in self.filters and len(self.filters) >= self.capacity:
            # Table full: evict the oldest filter (FIFO -- dict
            # preserves insertion order).  The evicted flow falls back
            # to its static RSS queue, exactly the capacity behaviour
            # Wu et al. flag as the onset of large-scale reordering.
            self.filters.pop(next(iter(self.filters)))
        self.filters[conn_id] = queue
        self.retargets += 1
        return queue

    def reset_stats(self):
        self.samples = 0
        self.retargets = 0


class NicSteering:
    """Per-NIC receive steering: RSS indirection + optional FD table."""

    def __init__(self, nic, n_queues):
        self.nic = nic
        self.n_queues = n_queues
        self.indirection = RssIndirection(n_queues)
        self.flow_director = FlowDirector(n_queues)
        self.fd_enabled = False

    def enable_flow_director(self):
        self.fd_enabled = True

    def rss_queue_for(self, conn_id):
        """The static RSS queue (indirection table on the 4-tuple)."""
        return self.indirection.lookup(flow_hash(conn_id))

    def queue_for(self, conn_id):
        """The queue the NIC steers ``conn_id`` to right now."""
        if self.fd_enabled:
            queue = self.flow_director.match(conn_id)
            if queue is not None:
                return queue
        return self.rss_queue_for(conn_id)

    def sample_tx(self, conn_id, cpu_index):
        """TX-path hook (``dev_queue_xmit``): feed the ATR sampler."""
        if not self.fd_enabled:
            return
        queue = self.flow_director.sample_tx(conn_id, cpu_index)
        if queue is not None:
            if self.nic.params.itr_absorb:
                # Wu et al.: hold the new queue's interrupt one
                # coalescing window so frames of this flow already
                # latched on the old queue deliver to the host first,
                # absorbing the stale-filter reorder.
                self.nic.absorb_hold(queue)
            tracer = self.nic.machine.tracer
            if tracer is not None:
                tracer.emit("fd_retarget", cpu=cpu_index,
                            conn=conn_id, queue=queue)

    def reset_stats(self):
        self.flow_director.reset_stats()


class RssSteering:
    """Dynamic per-flow interrupt steering (single-queue software RSS)."""

    def __init__(self, machine, stack, tasks, interval_cycles=2_000_000):
        if len(tasks) != len(stack.connections):
            raise ValueError(
                "need one task per connection (%d tasks, %d connections)"
                % (len(tasks), len(stack.connections))
            )
        self.machine = machine
        self.stack = stack
        self.tasks = list(tasks)
        self.interval_cycles = interval_cycles
        self._stopped = False
        self._pending = machine.engine.schedule_after(
            interval_cycles, self._steer, label="rss steer"
        )

    def _target_cpu(self, task):
        """The CPU to point the flow's interrupt at.

        With hyperthreading, interrupts are steered to the *physical
        core* (its first logical CPU) rather than whichever sibling
        the task last occupied: landing the IRQ on the sibling thread
        keeps the shared caches warm without contending for the exact
        logical processor the task runs on.  Without SMT this is the
        identity function.
        """
        if self.machine.hyperthreading:
            return self.machine.core_first(task.prev_cpu)
        return task.prev_cpu

    def _steer(self):
        if self._stopped:
            return
        machine = self.machine
        for conn, task in zip(self.stack.connections, self.tasks):
            line = machine.ioapic.get(conn.nic.vector)
            target_mask = 1 << self._target_cpu(task)
            if line.smp_affinity != target_mask:
                line.set_affinity(target_mask)
        self._pending = machine.engine.schedule_after(
            self.interval_cycles, self._steer, label="rss steer"
        )

    def stop(self):
        """Cancel the pending steer and never re-arm.

        Without this the controller re-schedules itself forever: it
        keeps firing after the measurement window closes, perturbing
        any timing measured afterwards and keeping the event queue
        from draining.  Experiment teardown calls it as soon as the
        window ends.
        """
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
