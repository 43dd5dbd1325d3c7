"""Device layer: transmit queueing and per-CPU softnet state.

``dev_queue_xmit`` serializes transmitters on the device's TX lock --
under no affinity, a process transmitting on CPU1 and ACK-driven
transmits from softirq on CPU0 contend here, one of the lock-bin
costs full affinity removes.

The softnet structures mirror 2.4: a per-CPU *backlog* queue fed by
``netif_rx`` in the top half and drained by ``net_rx_action``, and a
per-CPU *completion* queue of transmitted clones freed by
``net_tx_action``.
"""


def dev_queue_xmit(ctx, stack, nic, skb, packet):
    """Queue a frame to the NIC: lock, descriptor fill, doorbell."""
    specs = stack.specs
    instr = stack.instr
    tx_lock = nic.tx_lock_for(packet.conn_id)
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
    nic.hw_xmit(skb, packet, ctx.now)
    # Flow Director ATR sampling: the NIC inspects outgoing frames and
    # (every Nth per flow) retargets the flow's RX queue toward the
    # transmitting CPU.  ``steering`` is None on single-queue devices.
    steering = nic.steering
    if steering is not None:
        steering.sample_tx(packet.conn_id, ctx.cpu_index)
    ctx.unlock(tx_lock)


def dev_queue_xmit_lso(ctx, stack, nic, desc_skb, frames):
    """LSO doorbell: one lock / descriptor chain / doorbell covers a
    whole burst of segments; the NIC engine segments it
    (:meth:`repro.net.nic.Nic.lso_xmit`).

    The Flow Director ATR sampler sees one transmit per burst rather
    than one per frame -- real LSO NICs sample the header the driver
    handed them, which is exactly one header per large send.
    """
    specs = stack.specs
    instr = stack.instr
    conn_id = frames[0][1].conn_id
    tx_lock = nic.tx_lock_for(conn_id)
    yield ("spin", tx_lock)
    ctx.charge(
        specs["dev_queue_xmit"],
        instr["dev_queue_xmit"],
        reads=[desc_skb.head_range(64)],
        writes=[(nic.regs.addr, 32)],
    )
    desc = nic.next_tx_desc()
    ctx.charge(
        specs["e1000_xmit_frame"],
        instr["e1000_xmit_frame"],
        reads=[desc_skb.head_range(128)],
        writes=[desc],
        extra_cycles=250,
    )
    nic.lso_xmit(desc_skb, frames, ctx.now)
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
