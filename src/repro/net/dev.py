"""Device layer: transmit queueing and per-CPU softnet state.

``dev_queue_xmit`` serializes transmitters on the device's TX lock --
under no affinity, a process transmitting on CPU1 and ACK-driven
transmits from softirq on CPU0 contend here, one of the lock-bin
costs full affinity removes.  It is the one transmit hand-off: a
single frame and an LSO burst take the same lock, descriptor and
doorbell.

The softnet structures mirror 2.4: a per-CPU *backlog* queue fed by
``netif_rx`` in the top half and drained by ``net_rx_action``, and a
per-CPU *completion* queue of transmitted clones freed by
``net_tx_action``.
"""


def dev_queue_xmit(ctx, stack, nic, skb, frames, lso=False):
    """Queue frames to the NIC: lock, descriptor fill, doorbell.

    ``frames`` is a list of ``(skb, packet)`` for the wire: one frame,
    or under LSO (``lso=True``) a whole burst the NIC engine segments
    (:meth:`repro.net.nic.Nic.hw_xmit`).  ``skb`` is what the
    descriptor points at and the TX-completion interrupt returns: the
    driver's clone of a data segment, an ACK or control skb, or the
    clone standing in for an LSO burst's descriptor chain.  One lock,
    descriptor and doorbell cover the call either way.

    The Flow Director ATR sampler sees one transmit per call, so one
    per LSO burst -- real LSO NICs sample the header the driver handed
    them, which is exactly one header per large send.
    """
    specs = stack.specs
    instr = stack.instr
    conn_id = frames[0][1].conn_id
    tx_lock = nic.tx_lock_for(conn_id)
    yield ("spin", tx_lock)
    ctx.charge(
        specs["dev_queue_xmit"],
        instr["dev_queue_xmit"],
        reads=[skb.head_range(64)],
        writes=[(nic.regs.addr, 32)],
    )
    desc = nic.next_tx_desc()
    # Descriptor write plus the uncached doorbell write (~250 cycles of
    # posted-write / ordering cost on this chipset generation).
    ctx.charge(
        specs["e1000_xmit_frame"],
        instr["e1000_xmit_frame"],
        reads=[skb.head_range(128)],
        writes=[desc],
        extra_cycles=250,
    )
    nic.hw_xmit(frames, skb, ctx.now, lso)
    # Flow Director ATR sampling: the NIC inspects outgoing frames and
    # (every Nth per flow) retargets the flow's RX queue toward the
    # transmitting CPU.  ``steering`` is None on single-queue devices.
    steering = nic.steering
    if steering is not None:
        steering.sample_tx(conn_id, ctx.cpu_index)
    ctx.unlock(tx_lock)


class SoftnetData:
    """Per-CPU softnet state: backlog + completion queues."""

    def __init__(self, machine, cpu_index):
        self.cpu_index = cpu_index
        self.backlog = []
        self.completion_queue = []
        self.obj = machine.space.alloc("softnet_data%d" % cpu_index, 256)
        self._head = self.obj.field(0, 64)
        self.backlog_peak = 0

    def enqueue_backlog(self, skb):
        self.backlog.append(skb)
        if len(self.backlog) > self.backlog_peak:
            self.backlog_peak = len(self.backlog)

    def head_range(self):
        return self._head
