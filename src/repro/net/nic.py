"""An e1000-class gigabit NIC: rings, DMA, coalescing, serialized wire.

Device behaviour runs on engine events (no CPU cycles); CPU work
(filling descriptors, claiming completions) is charged by the driver
code in :mod:`repro.net.stack`.  The modelled properties that matter
to the paper:

* **DMA**: transmit DMA *reads* payload (CPU copies stay warm --
  snooped, not invalidated); receive DMA *writes* payload, so receive
  copies always start cache-cold.
* **Interrupt coalescing**: one interrupt per ``coalesce_frames``
  frames or ``coalesce_us`` after the first pending frame, whichever
  first -- the paper's NICs do the same, which is why per-handler
  machine-clear counts are invariant across affinity modes (interrupt
  *arrival* doesn't change, only its destination CPU).
* **Wire serialization**: each direction is a 1 Gb/s pipe; frames
  queue behind each other.  The CPU, not the wire, is the bottleneck
  in every experiment, as in the paper.

Receive, coalescing and interrupt state live on :class:`RxQueue`, of
which every port has at least one.  The paper's single-vector device
is the one-queue case: queue 0 shares the device's receive ring,
vector and TX lock, so it allocates nothing of its own.  Built with
``n_queues > 1`` the port becomes a multi-queue device of the
RSS/Flow Director generation: N hardware receive queues, each with its
own MSI-X-style vector, ring and TX lock, fed by a
:class:`~repro.net.rss.NicSteering` classifier.  Because each queue
latches, coalesces and fires independently, two frames of one flow
split across queues by a Flow Director retarget can be claimed out of
order -- the reordering race this extension exists to measure.
"""

from repro.mem.layout import lines_for
from repro.net.packet import HEADER_WIRE_BYTES
from repro.net.params import (
    NIC_ENGINE_ACK_CYCLES,
    NIC_ENGINE_CYCLES_PER_LINE,
    NIC_ENGINE_GRO_CYCLES,
    NIC_ENGINE_SEG_CYCLES,
)

TX_DESC_BYTES = 16
RX_DESC_BYTES = 16
RING_ENTRIES = 256

#: Largest byte count a GRO context may accumulate (the classic
#: 64KB-minus-headers super-frame bound).
GRO_MAX_BYTES = 65535


class GroEngine:
    """Per-queue LRO/GRO receive aggregation (one merge context per
    flow, as in the Linux GRO lists or an LRO-capable NIC).

    An in-order data frame either extends its flow's held super-frame
    or opens a new context; the context drains to ``rx_pending`` when
    the sender flushed (PSH), when a frame arrives out of order (GRO
    must *never* reorder -- a Flow Director retarget race still shows
    up as a reorder to the host unless the Wu et al. absorb variant
    is on, see ``NetParams.itr_absorb``), when the optional aging
    timer (``gro_flush_us``) expires, or when the queue's interrupt
    fires.  Held frames count toward the coalescing frame threshold
    and every context is flushed before the IRQ is raised, so a run
    in which no merge happens is event-for-event identical to GRO
    off.

    An absorbed frame's ring buffer is recycled back to ``rx_posted``
    (its bytes live on in the merged super-frame's length); the
    super-frame's payload addresses wrap over its single 2KB buffer
    (see ``SkBuff.payload_range``), modeling the chained page
    fragments of a real merged skb.
    """

    def __init__(self, rxq):
        self.owner = rxq  # the RxQueue this engine feeds
        self.nic = rxq.nic
        #: conn_id -> [held packet, held skb, aging-timer event]
        self.contexts = {}

    @property
    def held(self):
        return len(self.contexts)

    def receive(self, packet, skb):
        """One DMA-completed data frame enters the merge stage."""
        nic = self.nic
        entry = self.contexts.get(packet.conn_id)
        if entry is not None:
            held_pkt, held_skb, _ev = entry
            if (
                packet.seq == held_pkt.end_seq
                and held_skb.len + packet.len <= GRO_MAX_BYTES
            ):
                # In-order continuation: extend the super-frame.  The
                # header compare + descriptor coalesce runs on the NIC
                # engine, never a host CPU.
                nic.engine_charge(NIC_ENGINE_GRO_CYCLES, "gro")
                held_skb.len += packet.len
                held_skb.end_seq = packet.end_seq
                held_pkt.len += packet.len
                held_pkt.end_seq = packet.end_seq
                held_pkt.ack_seq = max(held_pkt.ack_seq, packet.ack_seq)
                nic.gro_merged += 1
                self.owner.rx_posted.append(skb)
                if packet.psh:
                    held_pkt.psh = True
                    self.flush(packet.conn_id, "push")
                return
            # Out of order (or context full): flush what we hold, then
            # let the new frame start fresh below.
            self.flush(packet.conn_id, "ooo")
        if packet.psh:
            # Sender-flushed single segment: straight through.
            self.owner.rx_pending.append((packet, skb))
            self.owner._signal()
            return
        ev = None
        flush_cycles = nic.params.gro_flush_cycles
        if flush_cycles > 0:
            conn_id = packet.conn_id
            ev = nic.engine.schedule_after(
                flush_cycles,
                lambda: self.flush(conn_id, "timer"),
                label="%s gro flush" % nic.name,
            )
        self.contexts[packet.conn_id] = [packet, skb, ev]
        self.owner._signal()

    def flush(self, conn_id, reason):
        """Drain one context to the pending list (and re-signal)."""
        entry = self.contexts.pop(conn_id, None)
        if entry is None:
            return
        packet, skb, ev = entry
        if ev is not None:
            ev.cancel()
        nic = self.nic
        if reason == "push":
            nic.gro_flushes_push += 1
        elif reason == "ooo":
            nic.gro_flushes_ooo += 1
        elif reason == "timer":
            nic.gro_flushes_timer += 1
        self.owner.rx_pending.append((packet, skb))
        self.owner._signal()

    def flush_all_for_fire(self):
        """Interrupt is firing: every held frame rides it to the host."""
        nic = self.nic
        for conn_id in list(self.contexts):
            packet, skb, ev = self.contexts.pop(conn_id)
            if ev is not None:
                ev.cancel()
            nic.gro_flushes_fire += 1
            self.owner.rx_pending.append((packet, skb))


class RxQueue:
    """One hardware receive queue: ring, completions, interrupt vector.

    Owns the latch-coalesce-fire state machine: frames steered here
    wait on *this* queue's frame/time thresholds and interrupt through
    *this* queue's vector.  Transmit completions are also signalled on
    the queue serving the flow, as MSI-X NICs pair TX completion
    vectors with their RX counterparts.  Queue 0 uses the device's
    receive ring; on a one-queue device it also takes the device's TX
    lock (the paper's single-vector NIC has one TX ring), so it
    allocates nothing.
    """

    def __init__(self, nic, qid, vector):
        self.nic = nic
        self.qid = qid
        self.vector = vector
        if qid == 0:
            self.ring = nic.rx_ring
        else:
            self.ring = nic.machine.space.alloc(
                "%s:rxq%d_ring" % (nic.name, qid),
                RING_ENTRIES * RX_DESC_BYTES,
            )
        if nic.n_queues == 1:
            self.tx_lock = nic.tx_lock
        else:
            # Paired TX queue lock: multi-queue NICs give each vector
            # its own TX ring, so transmitters on different queues never
            # contend (one shared lock across 16 CPUs melts down the
            # moment a holder is preempted).
            self.tx_lock = nic.machine.new_lock(
                "tx_lock:%s:q%d" % (nic.name, qid)
            )
        self.rx_posted = []   # skbs posted for receive DMA
        self.rx_pending = []  # received skbs awaiting interrupt claim
        self.tx_done = []     # completed skbs awaiting interrupt claim
        self._irq_latched = False
        self._coalesce_timer = None
        # Receive aggregation (None unless GRO/TOE is on).
        self.gro = GroEngine(self) if nic.params.rx_gro else None
        # Adaptive ITR state: frames-per-interrupt EWMA, fixed point x8.
        self._itr_ewma8 = 0
        # Wu et al. reorder absorption: a Flow Director retarget sets
        # this on the flow's *new* queue so stragglers still latched on
        # the old queue interrupt (and deliver) first.
        self.hold_until = 0
        # Statistics (windowed; see reset_stats).
        self.frames_steered = 0
        self.irqs_fired = 0

    def post_rx(self, skb):
        """Driver posts a buffer for receive DMA on this queue."""
        self.rx_posted.append(skb)

    def rx_posted_deficit(self):
        """Buffers to replenish to keep this queue's ring full."""
        return self.nic.params.rx_ring_size - len(self.rx_posted)

    # -- latch / coalesce / fire -----------------------------------------

    def _signal(self):
        nic = self.nic
        if self._irq_latched:
            return
        pending = len(self.rx_pending) + len(self.tx_done)
        if self.gro is not None:
            pending += self.gro.held
        if pending >= nic.params.coalesce_frames:
            self._fire()
        elif self._coalesce_timer is None:
            self._coalesce_timer = nic.engine.schedule_after(
                itr_delay_cycles(nic.params, self._itr_ewma8),
                self._coalesce_timeout,
                label="%s.q%d itr" % (nic.name, self.qid),
            )

    def _coalesce_timeout(self):
        self._coalesce_timer = None
        if not self._irq_latched and (
            self.rx_pending or self.tx_done
            or (self.gro is not None and self.gro.contexts)
        ):
            self._fire()

    def _fire(self):
        nic = self.nic
        if self.hold_until > nic.engine.now:
            # Absorbing a suspected retarget reorder: defer to the
            # hold deadline instead of interrupting now.
            if self._coalesce_timer is None:
                self._coalesce_timer = nic.engine.schedule_at(
                    self.hold_until, self._coalesce_timeout,
                    label="%s.q%d itr-hold" % (nic.name, self.qid),
                )
            return
        self._irq_latched = True
        if self._coalesce_timer is not None:
            self._coalesce_timer.cancel()
            self._coalesce_timer = None
        if self.gro is not None and self.gro.contexts:
            self.gro.flush_all_for_fire()
        if nic.params.itr_adaptive:
            claimed = len(self.rx_pending) + len(self.tx_done)
            self._itr_ewma8 = (3 * self._itr_ewma8 + 8 * claimed) // 4
        self.irqs_fired += 1
        if nic.faults is not None:
            delay = nic.faults.irq_delay_cycles(nic)
            if delay > 0:
                nic.irqs_delayed += 1
                nic.engine.schedule_after(
                    delay,
                    lambda: nic.machine.raise_irq(self.vector),
                    label="%s.q%d irq-delay" % (nic.name, self.qid),
                )
                return
        nic.machine.raise_irq(self.vector)

    def claim(self):
        """Top half reads this queue's cause register: pop completions."""
        self._irq_latched = False
        tx_done, self.tx_done = self.tx_done, []
        rx_pending, self.rx_pending = self.rx_pending, []
        if self.gro is not None and self.gro.contexts:
            # Frames still held for merging re-arm the coalescer.
            self._signal()
        return tx_done, rx_pending

    def reset_stats(self):
        self.frames_steered = 0
        self.irqs_fired = 0


def itr_delay_cycles(params, ewma8):
    """The interrupt throttle's current timer delay.

    Static ITR is the configured ``coalesce_us``.  The adaptive
    throttle retunes between a fifth of that (latency mode: a trickle
    of lone frames should not each eat a full window) and four times
    it (bulk mode: streams hit the frame threshold anyway, so a long
    backstop just cuts spurious timer fires), interpolating on the
    frames-per-interrupt EWMA -- the e1000/ixgbe adaptive-ITR shape.
    Deterministic integer math throughout.
    """
    base = params.coalesce_cycles
    if not params.itr_adaptive:
        return base
    target8 = 8 * params.coalesce_frames
    ewma8 = min(ewma8, target8)
    lo = max(1, base // 5)
    hi = base * 4
    return lo + (hi - lo) * ewma8 // target8


class Nic:
    """One port: a TX ring, ``n_queues`` receive queues, a full-duplex wire.

    The default is the paper's single-vector device (one
    :class:`RxQueue` on ``vector``); ``n_queues > 1`` with a matching
    ``queue_vectors`` tuple builds the multi-queue variant described in
    the module docstring.
    """

    def __init__(self, machine, index, vector, params, n_queues=1,
                 queue_vectors=None):
        self.machine = machine
        self.engine = machine.engine
        self.index = index
        self.name = "eth%d" % index
        self.vector = vector
        self.params = params
        space = machine.space
        self.tx_ring = space.alloc("%s:tx_ring" % self.name,
                                   RING_ENTRIES * TX_DESC_BYTES)
        self.rx_ring = space.alloc("%s:rx_ring" % self.name,
                                   RING_ENTRIES * RX_DESC_BYTES)
        self.regs = space.alloc("%s:regs" % self.name, 128)
        self.tx_lock = machine.new_lock("tx_lock:%s" % self.name)
        #: Remote endpoint; set by the stack.
        self.peer = None

        # Wire state.
        self._tx_wire_free_at = 0
        self._tx_head = 0  # descriptor index for address realism
        self._rx_wire_free_at = 0

        # Modeled NIC offload engine: a datapath processor alongside
        # the MAC that burns its *own* cycles (LSO segmentation, GRO
        # merging, TOE ACK processing) instead of a host CPU's.  Its
        # clock advances in event callbacks only -- the legacy device
        # never touches it.
        self.engine_busy_until = 0
        self.engine_cycles = 0
        self.engine_seg_cycles = 0
        self.engine_gro_cycles = 0
        self.engine_ack_cycles = 0
        self.engine_rcv_cycles = 0
        self.lso_frames = 0
        self.gro_merged = 0
        self.gro_flushes_push = 0
        self.gro_flushes_ooo = 0
        self.gro_flushes_timer = 0
        self.gro_flushes_fire = 0
        self.toe_acks = 0
        self.itr_holds = 0

        # Receive queues, and the classifier choosing among them (None
        # on a one-queue device: every frame lands on queue 0).
        self.n_queues = n_queues
        self.steering = None
        if n_queues == 1:
            self.rxqs = [RxQueue(self, 0, vector)]
        else:
            if queue_vectors is None or len(queue_vectors) != n_queues:
                raise ValueError(
                    "n_queues=%d needs %d queue_vectors" % (n_queues, n_queues)
                )
            from repro.net.rss import NicSteering

            self.queue_vectors = tuple(queue_vectors)
            self.rxqs = [
                RxQueue(self, q, self.queue_vectors[q])
                for q in range(n_queues)
            ]
            self.steering = NicSteering(self, n_queues)
            self.vector = self.queue_vectors[0]

        #: Set by :meth:`repro.faults.plan.FaultInjector.attach`: seeded
        #: drop/reorder/duplicate/IRQ-delay at the wire boundary.
        self.faults = None

        # Statistics.
        self.rx_drops = 0
        self.tx_drops = 0
        self.irqs_delayed = 0

    # ------------------------------------------------------------------
    # Descriptor and queue selection.
    # ------------------------------------------------------------------

    def next_tx_desc(self):
        idx = self._tx_head % RING_ENTRIES
        self._tx_head += 1
        return self.tx_ring.field(idx * TX_DESC_BYTES, TX_DESC_BYTES)

    def rxq_for(self, conn_id):
        """The receive queue serving ``conn_id`` right now."""
        steering = self.steering
        if steering is None:
            return self.rxqs[0]
        return self.rxqs[steering.queue_for(conn_id)]

    def tx_lock_for(self, conn_id):
        """The transmit lock guarding ``conn_id``'s TX queue.

        A one-queue device has one TX ring and one lock; multi-queue
        devices select the TX queue by the same flow hash as receive
        (the MSI-X pairing), so each queue's transmitters serialize
        only among themselves.
        """
        steering = self.steering
        if steering is None:
            return self.tx_lock
        return self.rxqs[steering.rss_queue_for(conn_id)].tx_lock

    # ------------------------------------------------------------------
    # Transmit path (driver hands a frame to the hardware).
    # ------------------------------------------------------------------

    def hw_xmit(self, frames, completion, now, lso=False):
        """Accept ``frames`` (a list of ``(skb, packet)``) at local time
        ``now``; wire + DMA are events.

        An LSO burst (``lso=True``, one large send of any length,
        one segment included) first charges the NIC engine descriptor
        build per segment plus the per-line segmentation/checksum pass
        the host no longer runs.  Every other transmit -- ACKs,
        control segments and retransmissions under LSO too -- goes
        straight to the wire.  The frames serialize back to back, and
        ``completion`` (the skb the TX-completion interrupt returns)
        is signalled after the last.
        """
        ready = now
        if lso:
            total = sum(packet.len for _skb, packet in frames)
            ready = max(now, self.engine_charge(
                NIC_ENGINE_SEG_CYCLES * len(frames)
                + NIC_ENGINE_CYCLES_PER_LINE * lines_for(total),
                "seg",
            ))
            self.lso_frames += len(frames)
        last = len(frames) - 1
        for i, (skb, packet) in enumerate(frames):
            self.engine.schedule_at(
                self._tx_wire_slot(ready, packet),
                lambda s=skb, p=packet, c=(completion if i == last
                                           else None):
                    self._tx_complete(s, p, c),
                label="%s tx" % self.name,
            )

    def _tx_wire_slot(self, ready, packet):
        """Serialize ``packet`` on the transmit wire, starting no
        earlier than ``ready``; returns the cycle it has left."""
        start = max(ready, self._tx_wire_free_at, self.engine.now)
        done = start + self.params.wire_cycles(packet.wire_len)
        self._tx_wire_free_at = done
        return done

    def _tx_complete(self, skb, packet, completion):
        """One frame left the wire.  Transmit DMA reads its header +
        payload from ``skb`` (the driver's clone, or for an LSO segment
        the original send-queue skb: zero-copy under TOE).
        ``completion`` is the skb the TX-completion interrupt hands
        back: the clone itself, an LSO burst's descriptor chain on its
        last segment, ``None`` on the burst's other segments."""
        if skb.len > 0:
            addr, size = skb.data.field(0, skb.HEADER_BYTES + skb.len)
        else:
            addr, size = skb.header_range()
        self.machine.memsys.dma_read(addr, size)
        if completion is not None:
            # MSI-X pairing: the completion interrupts on the queue
            # currently serving the flow.
            rxq = self.rxq_for(packet.conn_id)
            rxq.tx_done.append(completion)
            rxq._signal()
        self._tx_deliver(packet)

    def _tx_deliver(self, packet):
        if self.peer is None:
            return
        if self.faults is not None and packet.ctl is None:
            # The injector decides this frame's fate; control frames
            # are exempt (connection lifecycle is not retransmitted).
            self.faults.on_frame(self, "tx", packet, self._send_to_peer)
        else:
            self._send_to_peer(packet)

    def _send_to_peer(self, packet):
        self.engine.schedule_after(
            self.params.one_way_delay_cycles,
            lambda: self.peer.on_frame(packet),
            label="%s->peer" % self.name,
        )

    # ------------------------------------------------------------------
    # Receive path (frames arrive from the peer).
    # ------------------------------------------------------------------

    def deliver_frame(self, packet):
        """Peer-side entry: serialize on our receive wire, then DMA."""
        if self.faults is not None and packet.ctl is None:
            self.faults.on_frame(self, "rx", packet, self._enqueue_rx)
        else:
            self._enqueue_rx(packet)

    def _enqueue_rx(self, packet):
        start = max(self.engine.now, self._rx_wire_free_at)
        done = start + self.params.wire_cycles(packet.wire_len)
        self._rx_wire_free_at = done
        self.engine.schedule_at(
            done, lambda: self._rx_dma(packet), label="%s rx" % self.name
        )

    def _rx_dma(self, packet):
        """Classify the frame to a queue, then DMA into its next buffer."""
        rxq = self.rxq_for(packet.conn_id)
        if not rxq.rx_posted:
            self.rx_drops += 1
            return
        skb = rxq.rx_posted.pop(0)
        skb.seq = packet.seq
        skb.end_seq = packet.end_seq
        skb.len = packet.len
        skb.consumed = 0
        skb.is_ack = packet.is_ack
        skb.pkt = packet
        # Receive DMA writes header + payload: CPU copies will be cold.
        addr, size = skb.data.field(
            0, skb.HEADER_BYTES + max(packet.len, HEADER_WIRE_BYTES)
        )
        self.machine.memsys.dma_write(addr, size)
        rxq.frames_steered += 1
        tracer = self.machine.tracer
        if tracer is not None and self.steering is not None:
            tracer.emit("rx_steer", conn=packet.conn_id, queue=rxq.qid)
        if (
            rxq.gro is not None
            and packet.len > 0
            and not packet.is_ack
            and packet.ctl is None
        ):
            rxq.gro.receive(packet, skb)
        else:
            rxq.rx_pending.append((packet, skb))
            rxq._signal()

    # ------------------------------------------------------------------
    # Offload engine (LSO segmentation, GRO merge, TOE ACK processing).
    # ------------------------------------------------------------------

    def engine_charge(self, cycles, kind):
        """Burn ``cycles`` on the NIC engine clock; returns the engine
        time at which the work completes.

        The engine is a single serial unit: back-to-back work queues
        behind itself (``engine_busy_until``), which is what makes
        ``nic_engine_scale`` a meaningful diagnosis knob -- a slow
        enough engine becomes the bottleneck LSO moved off the host.
        """
        cycles = int(cycles * self.params.nic_engine_scale)
        start = self.engine.now
        if self.engine_busy_until > start:
            start = self.engine_busy_until
        done = start + cycles
        self.engine_busy_until = done
        self.engine_cycles += cycles
        if kind == "seg":
            self.engine_seg_cycles += cycles
        elif kind == "gro":
            self.engine_gro_cycles += cycles
        elif kind == "rcv":
            self.engine_rcv_cycles += cycles
        else:
            self.engine_ack_cycles += cycles
        return done

    def engine_ack_xmit(self, packet, now):
        """Emit a NIC-generated pure ACK (TOE): the engine builds the
        header and serializes it onto the wire.  No host skb, no DMA --
        the frame never exists in host memory."""
        ready = self.engine_charge(NIC_ENGINE_ACK_CYCLES, "ack")
        self.toe_acks += 1
        self.engine.schedule_at(
            self._tx_wire_slot(max(now, ready), packet),
            lambda: self._tx_deliver(packet),
            label="%s toe ack" % self.name,
        )

    def absorb_hold(self, qid):
        """Wu et al. reorder absorption: a Flow Director retarget just
        moved a flow here; hold this queue's interrupt one coalescing
        window so frames already latched on the old queue fire first."""
        rxq = self.rxqs[qid]
        hold = self.engine.now + self.params.coalesce_cycles
        if hold > rxq.hold_until:
            rxq.hold_until = hold
            self.itr_holds += 1

    def reset_stats(self):
        self.rx_drops = 0
        self.tx_drops = 0
        self.irqs_delayed = 0
        self.engine_cycles = 0
        self.engine_seg_cycles = 0
        self.engine_gro_cycles = 0
        self.engine_ack_cycles = 0
        self.engine_rcv_cycles = 0
        self.lso_frames = 0
        self.gro_merged = 0
        self.gro_flushes_push = 0
        self.gro_flushes_ooo = 0
        self.gro_flushes_timer = 0
        self.gro_flushes_fire = 0
        self.toe_acks = 0
        self.itr_holds = 0
        for rxq in self.rxqs:
            rxq.reset_stats()
        if self.steering is not None:
            self.steering.reset_stats()
