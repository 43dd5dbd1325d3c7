"""``struct sock``: per-connection protocol and buffer state.

The socket's backing memory is split the way the paper splits its
bins: the first half is the TCP control block (sequence state, window
bookkeeping -- touched by *Engine* code), the second half is queue and
memory accounting (touched by *Buffer mgmt* code).  Affinity
experiments hinge on these few cache lines: they are written by
softirq code on the interrupt CPU and read by process-context code on
the process CPU, so their residency tracks placement decisions.
"""

from repro.kernel.task import WaitQueue

#: Total size of the sock object (struct sock + struct tcp_opt + dst
#: + bound timers, as in 2.4); the first region is the TCB proper.
SOCK_SIZE = 2048
TCB_BYTES = 1024

#: The byte counts the stack charges from the start of the control
#: block (``Sock.tcb``) and of the buffer-accounting region
#: (``Sock.buf``).
TCB_RANGE_SIZES = (32, 48, 64, 96, 128, 192, 256, 320, 512, 576, 640)
BUF_RANGE_SIZES = (32, 48, 64, 96, 128, 192)

#: Bound on the out-of-order reassembly queue; beyond this the segment
#: is dropped and the sender's retransmission covers the range (2.4
#: similarly sheds ofo segments under rmem pressure).
OOO_QUEUE_MAX = 128

#: Cap on flow-class buffer/window scaling.  A representative's
#: aggregate window grows with its class weight so aggregation does
#: not *add* a window limit the exact system lacks in the paced
#: regime -- but the cap keeps a closed-loop representative's
#: window-open burst (window / mss segments, fired at t0) inside the
#: 256-descriptor RX ring: four flows' worth is ~181 segments, while
#: scaling further floods the ring, and the mass drop + retransmit
#: stall that follows models nothing the exact system does in its
#: steady state.
BUFFER_SCALE_CAP = 4


class Sock:
    """One established TCP connection endpoint on the SUT."""

    def __init__(self, machine, params, conn_id, name):
        self.conn_id = conn_id
        self.name = name
        self.params = params
        #: Per-socket buffer/window limits.  Normally the shared
        #: NetParams values; a flow-class representative (which carries
        #: the aggregate traffic of ``weight`` statistically-identical
        #: flows) scales them by its class weight -- the aggregate
        #: rmem/wmem/window across ``weight`` real sockets.
        #: TOE moves the send queue onto the NIC: the descriptor ring
        #: is far deeper than the classic host sndbuf, so TOE sockets
        #: account against 4x the host budget (the advertised window
        #: still caps bytes in flight).
        self._sndbuf_scale = 4 if params.toe else 1
        self.sndbuf = params.sndbuf * self._sndbuf_scale
        self.rcvbuf = params.rcvbuf
        self.max_window = params.max_window
        self.obj = machine.space.alloc("sock:%s" % name, SOCK_SIZE)
        #: ``(addr, size)`` of the first ``n`` bytes of the control
        #: block (``tcb[n]``, the Engine working set) and of the
        #: buffer-accounting region (``buf[n]``: queues, wmem/rmem
        #: counters), for every ``n`` the stack charges.  Built once:
        #: these are the most frequent ranges in the simulator.
        self.tcb = {size: self.tcb_range(size) for size in TCB_RANGE_SIZES}
        self.buf = {size: self.buf_range(size) for size in BUF_RANGE_SIZES}
        self.lock = machine.new_lock("sk_lock:%s" % name)
        self.snd_wq = WaitQueue("snd:%s" % name)
        self.rcv_wq = WaitQueue("rcv:%s" % name)
        #: Linux 2.4 socket-lock semantics: process context sets the
        #: *owner* flag under the spinlock and releases the spinlock;
        #: bottom halves that find the socket owned queue their segment
        #: on ``backlog`` instead of spinning, and the owner processes
        #: the backlog at ``release_sock`` -- in its own context, on
        #: its own CPU.  (This is why the paper's Table 4 shows
        #: ``tcp_rcv_established`` running on the process CPU.)
        self.owned = False
        self.backlog = []
        self.backlogged_total = 0
        #: Connection life cycle.  Bulk-workload sockets are born
        #: established (the paper sets its connections up once); the
        #: web-style workloads churn through setup and teardown.
        self.established = True
        self.fin_received = False
        self.episodes = 0

        # ----- transmit state -----
        self.snd_una = 0          # oldest unacknowledged sequence
        self.snd_nxt = 0          # next sequence to send
        self.snd_wnd = self.max_window
        #: Send queue: unacked-but-sent skbs followed by unsent ones;
        #: ``send_head`` indexes the first unsent skb.
        self.send_queue = []
        self.send_head = 0
        self.wmem_queued = 0      # truesize bytes accounted to sndbuf
        #: Consecutive duplicate ACKs seen (fast-retransmit trigger).
        self.dupacks = 0

        # ----- receive state -----
        self.rcv_nxt = 0
        self.receive_queue = []
        #: Out-of-order reassembly queue (``tcp_ofo_queue``), sorted by
        #: sequence; only populated when faults disturb the receive
        #: stream.  Held segments are deliberately *not* charged to
        #: ``rmem_queued``: the advertised window must not wobble with
        #: reassembly state, or the duplicate ACKs that signal a gap
        #: would stop looking like duplicates to the sender.
        self.ooo_queue = []
        self.ooo_segs_in = 0
        self.dup_segs_in = 0
        self.ooo_drops = 0
        self.ooo_peak = 0
        #: ACKs sent from the duplicate/gap arms of tcp_rcv_established
        #: -- duplicate ACKs on the wire, the receiver-side signature
        #: of reordering (always zero on a loss-free single-queue run).
        self.dup_acks_out = 0
        self.rmem_queued = 0
        #: TOE posted-buffer low-water mark: payload bytes the blocked
        #: reader is waiting for.  The NIC (tcp_rcv_established under
        #: toe) only raises the completion event -- wakes the reader --
        #: once this much is placed.  0 = wake on any data (host-stack
        #: sk_data_ready semantics).
        self.toe_rcv_need = 0
        self.last_window_advertised = self.max_window
        self.segs_since_ack = 0
        self.delack_pending = False

        # Timers are attached by the stack (they need handler closures).
        self.delack_timer = None
        self.rexmit_timer = None

        # Statistics.
        self.segs_out = 0
        self.segs_in = 0
        self.acks_out = 0
        self.acks_in = 0
        self.bytes_queued_total = 0

    def scale_buffers(self, weight):
        """Size this socket as a flow-class representative for
        ``weight`` flows: the aggregate send/receive buffer and window
        of that many single-flow sockets, capped at
        :data:`BUFFER_SCALE_CAP` flows' worth.  ``weight == 1`` is
        exactly the shared-params sizing."""
        scale = min(weight, BUFFER_SCALE_CAP)
        self.sndbuf = self.params.sndbuf * scale * self._sndbuf_scale
        self.rcvbuf = self.params.rcvbuf * scale
        self.max_window = self.params.max_window * scale
        self.snd_wnd = self.max_window
        self.last_window_advertised = self.max_window

    # ------------------------------------------------------------------
    # Memory ranges for cache modelling.
    # ------------------------------------------------------------------

    def tcb_range(self, size):
        """The first ``size`` bytes of the control block (clamped to
        it); the hot paths use the prebuilt :attr:`tcb` table."""
        return self.obj.field(0, min(size, TCB_BYTES))

    def buf_range(self, size):
        """The first ``size`` bytes of the buffer-accounting region;
        the hot paths use the prebuilt :attr:`buf` table."""
        return self.obj.field(TCB_BYTES, size)

    # ------------------------------------------------------------------
    # Transmit-side bookkeeping.
    # ------------------------------------------------------------------

    @property
    def in_flight(self):
        return self.snd_nxt - self.snd_una

    def sndbuf_free(self):
        return self.sndbuf - self.wmem_queued

    def can_queue_skb(self):
        """Room to account one more skb against the send buffer?"""
        return self.sndbuf_free() >= self.params.skb_truesize

    def tail_unsent(self):
        """The unsent tail skb Nagle coalescing appends to, or None."""
        if self.send_head < len(self.send_queue):
            return self.send_queue[-1]
        return None

    def window_allows(self, skb_len):
        return self.in_flight + skb_len <= self.snd_wnd

    def ack_clean(self, ack_seq):
        """Drop fully-acked skbs from the head; returns the skbs freed."""
        freed = []
        while self.send_queue and self.send_head > 0:
            skb = self.send_queue[0]
            if skb.end_seq <= ack_seq:
                freed.append(self.send_queue.pop(0))
                self.send_head -= 1
                self.wmem_queued -= skb.truesize
            else:
                break
        if ack_seq > self.snd_una:
            self.snd_una = ack_seq
        return freed

    # ------------------------------------------------------------------
    # Receive-side bookkeeping.
    # ------------------------------------------------------------------

    def rcvbuf_free(self):
        return self.rcvbuf - self.rmem_queued

    def rcv_available(self):
        """Unread payload bytes sitting in the receive queue (the TOE
        posted-buffer completion threshold is expressed in these)."""
        return sum(skb.remaining for skb in self.receive_queue)

    def advertised_window(self):
        """Classic un-scaled receive window from free buffer space.

        Free space is discounted (tcp_adv_win_scale) because the
        window is promised in payload bytes while the buffer fills in
        truesize: 5/8 of free space keeps a full window of MSS
        segments (truesize/payload ~ 1.58) within rcvbuf.
        """
        usable = self.rcvbuf_free() * 5 // 8
        return max(0, min(self.max_window, usable))

    def receive_data(self, skb):
        """Queue an in-order data skb (state only; charging is the
        caller's job)."""
        if skb.seq != self.rcv_nxt:
            raise RuntimeError(
                "%s: out-of-order segment seq=%d rcv_nxt=%d"
                % (self.name, skb.seq, self.rcv_nxt)
            )
        self.rcv_nxt = skb.end_seq
        self.receive_queue.append(skb)
        self.rmem_queued += skb.truesize
        self.segs_in += 1
        self.bytes_queued_total += skb.len

    def enqueue_ooo(self, skb):
        """Hold an out-of-order segment for reassembly.

        Returns ``False`` when the segment is already held (a duplicate
        delivery) or the queue is full -- the caller frees the skb and
        the sender's retransmission covers the range either way.
        """
        if len(self.ooo_queue) >= OOO_QUEUE_MAX:
            self.ooo_drops += 1
            return False
        insert_at = 0
        for i, held in enumerate(self.ooo_queue):
            if held.seq == skb.seq and held.end_seq == skb.end_seq:
                self.dup_segs_in += 1
                return False
            if held.seq < skb.seq:
                insert_at = i + 1
        self.ooo_queue.insert(insert_at, skb)
        self.ooo_segs_in += 1
        if len(self.ooo_queue) > self.ooo_peak:
            self.ooo_peak = len(self.ooo_queue)
        return True

    def reset_connection(self):
        """Return to CLOSED/LISTEN state after teardown (state only).

        The caller must have drained queues (our teardown protocol
        guarantees no in-flight residue).
        """
        if (self.send_queue or self.receive_queue or self.backlog
                or self.ooo_queue):
            raise RuntimeError(
                "%s: teardown with residue (send=%d recv=%d backlog=%d "
                "ooo=%d)"
                % (self.name, len(self.send_queue),
                   len(self.receive_queue), len(self.backlog),
                   len(self.ooo_queue))
            )
        self.snd_una = 0
        self.snd_nxt = 0
        self.send_head = 0
        self.wmem_queued = 0
        self.dupacks = 0
        self.rcv_nxt = 0
        self.rmem_queued = 0
        self.toe_rcv_need = 0
        self.segs_since_ack = 0
        self.last_window_advertised = self.max_window
        self.established = False
        self.fin_received = False
        self.episodes += 1

    def window_update_due(self):
        """Should a window-update ACK be sent after the reader drained?"""
        return (
            self.advertised_window() - self.last_window_advertised
            >= 2 * self.params.mss
        )

    def __repr__(self):
        return (
            "Sock(%s una=%d nxt=%d inflight=%d rcvq=%d)"
            % (self.name, self.snd_una, self.snd_nxt, self.in_flight,
               len(self.receive_queue))
        )
