"""The ideal remote endpoint (the paper's client machines).

In every experiment the SUT is the bottleneck -- the paper's clients
are faster boxes whose only job is to keep the wire busy.  We model
them as zero-cost protocol engines:

* **sink** mode (SUT transmits): consume data instantly, return a
  cumulative ACK every ``ack_every`` segments (plus a flush timer so a
  trailing odd segment is not stranded), always advertising the full
  window;
* **source** mode (SUT receives): stream MSS segments as fast as the
  receiver's advertised window and the gigabit wire allow, reacting
  to the SUT's ACKs exactly like a correct TCP sender;
* **initiator** mode (request/response): issue fixed-size commands and
  consume block-sized responses, keeping ``queue_depth`` commands
  outstanding -- an iSCSI-initiator-shaped client for the paper's
  "file IO over iSCSI/TCP" future-work experiment.
"""

from repro.net.packet import ack_packet, control_packet, data_packet
from repro.net.sock import BUFFER_SCALE_CAP

#: Sink flush delay: a trailing un-ACKed segment is acknowledged after
#: this long (cycles at 2 GHz ~ 100 us), mirroring delayed-ACK.
SINK_FLUSH_CYCLES = 200_000


class PeerMux:
    """Fan-out for a shared multi-queue NIC: one peer per connection.

    A single-queue stack gives every connection its own NIC, so
    ``nic.peer`` is that connection's :class:`Peer`.  A multi-queue
    stack shares one NIC between all connections; the mux stands in as
    ``nic.peer`` and dispatches each transmitted frame to the peer of
    the flow that sent it.
    """

    def __init__(self):
        self.peers = {}

    def register(self, conn_id, peer):
        self.peers[conn_id] = peer

    def on_frame(self, packet):
        self.peers[packet.conn_id].on_frame(packet)


class Peer:
    """One remote endpoint, bound to one NIC and one connection."""

    def __init__(self, machine, nic, conn_id, params, mode,
                 command_bytes=48, block_bytes=8192, queue_depth=4,
                 request_bytes=256, requests_per_conn=8,
                 think_cycles=100_000):
        if mode not in ("sink", "source", "initiator", "client"):
            raise ValueError("unknown peer mode %r" % mode)
        self.machine = machine
        self.engine = machine.engine
        self.nic = nic
        self.conn_id = conn_id
        self.params = params
        self.mode = mode

        #: Window this peer advertises back to the SUT (sink mode) and
        #: assumes until the SUT's first ACK (source mode).  Normally
        #: one flow's window; :meth:`scale_window` sizes it for a
        #: flow-class representative carrying ``weight`` flows.
        self.adv_window = params.max_window

        # Sink state.
        self.rcv_nxt = 0
        self._unacked_segments = 0
        self._flush_event = None
        #: Out-of-order reassembly queue: list of (seq, end_seq) held
        #: past a loss-induced gap, merged when the gap fills.
        self._ooo = []
        self.dup_acks_sent = 0
        self.reorder_depth_peak = 0

        # Source state.
        #: Application message boundary (bytes): the segment that
        #: completes a multiple of this carries PSH, telling a GRO NIC
        #: on the receive side not to hold it in a merge context.  The
        #: stack sets it to the experiment's message size; 0 disables.
        self.push_boundary = 0
        self.snd_nxt = 0
        self.snd_una = 0
        self.peer_rcv_window = self.adv_window
        #: Offered-load pacing (repro.diagnose saturation search):
        #: cycles per payload byte at the paced rate, or ``None`` for
        #: the default window-limited (closed-loop) firehose.
        self._pace_cpb = None
        self._pace_phase_cycles = 0
        self._pace_t0 = None
        self._pace_sent = 0
        self._pace_event = None
        #: Loss recovery (source mode): off by default -- the loss-free
        #: baseline's event sequence must not change -- and enabled by
        #: the fault injector, which makes the peer behave like a
        #: correct TCP sender: RTO with doubling backoff plus fast
        #: retransmit on three duplicate ACKs.
        self.loss_recovery = False
        self.dup_acks_seen = 0
        self.retransmits = 0
        self.rto_fires = 0
        self._dupack_run = 0
        self._rto_backoff = 1
        self._rexmit_event = None

        # Initiator state.
        self.command_bytes = command_bytes
        self.block_bytes = block_bytes
        self.queue_depth = queue_depth
        self.commands_sent = 0
        self.responses_completed = 0

        # Web-client state (connection-churn episodes).
        self.request_bytes = request_bytes
        self.requests_per_conn = requests_per_conn
        self.think_cycles = think_cycles
        self.phase = "idle"
        self.requests_sent_this_conn = 0

    # ------------------------------------------------------------------
    # Frames arriving from the SUT.
    # ------------------------------------------------------------------

    def on_frame(self, packet):
        if self.mode == "sink":
            self._receive_data(packet)
        elif self.mode == "source":
            self._source_on_frame(packet)
        elif self.mode == "initiator":
            self._initiator_on_frame(packet)
        else:
            self._client_on_frame(packet)

    # ------------------------------------------------------------------
    # Receiving the SUT's data: the sink's whole job, and the response
    # half of the initiator and the web client.
    # ------------------------------------------------------------------

    def _receive_data(self, packet):
        """Consume one frame of the SUT's data stream and ACK it.

        Returns ``True`` only when ``rcv_nxt`` advanced; a pure ACK, a
        gap or a duplicate returns ``False`` (after any immediate ACK
        it owes).
        """
        if packet.is_ack or packet.len == 0:
            return False  # pure ACK (window updates) -- nothing to do
        if packet.seq > self.rcv_nxt:
            # A gap: buffer out of order and duplicate-ACK immediately
            # so the sender's fast retransmit can kick in.
            self._ooo.append((packet.seq, packet.end_seq))
            if len(self._ooo) > self.reorder_depth_peak:
                self.reorder_depth_peak = len(self._ooo)
            self.dup_acks_sent += 1
            self._send_ack()
            return False
        if packet.end_seq > self.rcv_nxt:
            self.rcv_nxt = packet.end_seq
            self._drain_ooo()
        else:
            # Entirely duplicate data (a retransmission overlap): ack
            # our current state immediately.
            self._send_ack()
            return False
        self._unacked_segments += 1
        if self._unacked_segments >= self.params.ack_every:
            self._send_ack()
        elif self._flush_event is None:
            self._flush_event = self.engine.schedule_after(
                SINK_FLUSH_CYCLES, self._flush, label="peer%d flush" % self.conn_id
            )
        return True

    def _drain_ooo(self):
        """Advance rcv_nxt over any buffered segments the gap-fill
        reached (TCP reassembly)."""
        progressed = True
        while progressed:
            progressed = False
            keep = []
            for seq, end_seq in self._ooo:
                if seq <= self.rcv_nxt:
                    if end_seq > self.rcv_nxt:
                        self.rcv_nxt = end_seq
                    progressed = True
                else:
                    keep.append((seq, end_seq))
            self._ooo = keep

    def _flush(self):
        self._flush_event = None
        if self._unacked_segments:
            self._send_ack()

    def _send_ack(self):
        self._unacked_segments = 0
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self.nic.deliver_frame(
            ack_packet(self.conn_id, self.rcv_nxt, self.adv_window)
        )

    # ------------------------------------------------------------------
    # Source: stream data into the SUT.
    # ------------------------------------------------------------------

    def scale_window(self, weight):
        """Size this peer as the remote end of a flow-class
        representative: the aggregate window of ``weight`` clients
        (capped like :meth:`Sock.scale_buffers`)."""
        self.adv_window = self.params.max_window * min(
            weight, BUFFER_SCALE_CAP
        )
        if self.peer_rcv_window == self.params.max_window:
            self.peer_rcv_window = self.adv_window

    def set_pacing(self, gbps, phase=0.0):
        """Cap this source's offered load at ``gbps`` (payload rate).

        The pump then releases segments on a cycle-accurate token
        schedule instead of bursting to the window edge, with
        work-conserving catch-up: a pump delayed by a closed window
        sends back-to-back until the cumulative schedule is restored,
        so the *average* offered rate is exactly ``gbps`` whenever the
        receiver can absorb it.  Retransmissions bypass pacing (they
        replace, not add, offered bytes).  Call before
        :meth:`start_stream`; ``None`` restores closed-loop behavior.

        ``phase`` (fraction of one release interval, ``[0, 1)``)
        offsets this source's schedule.  A population of paced flows
        passes ``phase=i/n``: independent real flows start at random
        phases, so the aggregate arrival stream at a queue is evenly
        interleaved -- not the lockstep thundering herd that a shared
        zero phase would synthesize.
        """
        if gbps is None:
            self._pace_cpb = None
            return
        if gbps <= 0:
            raise ValueError("pacing rate must be positive")
        if not 0.0 <= phase < 1.0:
            raise ValueError("pacing phase must be in [0, 1)")
        self._pace_cpb = self.params.hz / (gbps * 1e9 / 8.0)
        self._pace_phase_cycles = int(
            phase * self.params.mss * self._pace_cpb
        )

    def _pace_fire(self):
        self._pace_event = None
        self._pump()

    def start_stream(self):
        """Begin transmitting (source mode)."""
        if self.mode != "source":
            raise RuntimeError("start_stream on a sink peer")
        if self._pace_cpb is not None and self._pace_t0 is None:
            self._pace_t0 = self.engine.now
        self._pump()

    def _source_on_frame(self, packet):
        if packet.ack_seq > self.snd_una:
            self.snd_una = packet.ack_seq
            if self.loss_recovery:
                self._dupack_run = 0
                self._rto_backoff = 1
                self._arm_rexmit()
        elif (
            self.loss_recovery
            and packet.ack_seq == self.snd_una
            and packet.window == self.peer_rcv_window
            and self.snd_nxt > self.snd_una
        ):
            # Same ack, same window, data in flight: a duplicate ACK
            # signalling a gap at the receiver (window updates from the
            # reader draining are excluded by the window comparison).
            self._dupack_run += 1
            self.dup_acks_seen += 1
            if self._dupack_run == 3:
                self._retransmit_head()
        self.peer_rcv_window = packet.window
        self._pump()

    def _pump(self):
        """Send while the receiver's window has room (and, when paced,
        while the token schedule has released the next segment)."""
        mss = self.params.mss
        cpb = self._pace_cpb
        while self.snd_nxt + mss <= self.snd_una + self.peer_rcv_window:
            if cpb is not None:
                # Segment k is released at phase + k intervals; the
                # first goes out at the phase offset itself, so a
                # staggered population streams at its aggregate rate
                # from t0 (not after one full per-flow interval --
                # which for a 100K-flow population would be longer
                # than the whole simulation).
                due = (self._pace_t0 + self._pace_phase_cycles
                       + int(self._pace_sent * cpb))
                now = self.engine.now
                if due > now:
                    if self._pace_event is None:
                        self._pace_event = self.engine.schedule_after(
                            due - now, self._pace_fire,
                            label="peer%d pace" % self.conn_id,
                        )
                    break
                self._pace_sent += mss
            self.nic.deliver_frame(self._data_segment(self.snd_nxt, mss))
            self.snd_nxt += mss
        if (
            self.loss_recovery
            and self._rexmit_event is None
            and self.snd_nxt > self.snd_una
        ):
            self._arm_rexmit()

    # -- loss recovery (enabled by the fault injector) -----------------

    def enable_loss_recovery(self):
        self.loss_recovery = True

    def _arm_rexmit(self):
        if self._rexmit_event is not None:
            self._rexmit_event.cancel()
            self._rexmit_event = None
        if self.snd_nxt > self.snd_una:
            self._rexmit_event = self.engine.schedule_after(
                self.params.rto_cycles * self._rto_backoff,
                self._rexmit_fire,
                label="peer%d rto" % self.conn_id,
            )

    def _rexmit_fire(self):
        self._rexmit_event = None
        if self.snd_nxt <= self.snd_una:
            return
        self.rto_fires += 1
        self._rto_backoff = min(self._rto_backoff * 2, 8)
        self._dupack_run = 0
        self._retransmit_head()
        self._arm_rexmit()

    def _retransmit_head(self):
        """Resend the oldest unacknowledged segment."""
        length = min(self.params.mss, self.snd_nxt - self.snd_una)
        if length <= 0:
            return
        self.retransmits += 1
        self.nic.deliver_frame(self._data_segment(self.snd_una, length))

    def _data_segment(self, seq, length):
        """A data segment of the stream, marked PSH when it *contains*
        a message boundary (the boundary almost never coincides with
        an MSS-aligned segment end)."""
        pkt = data_packet(self.conn_id, seq, length)
        if self.push_boundary:
            pkt.psh = (seq + length) % self.push_boundary < length
        return pkt

    # ------------------------------------------------------------------
    # Initiator: command/response pipelining (iSCSI-shaped).
    # ------------------------------------------------------------------

    def start_commands(self):
        """Issue the initial command window (initiator mode)."""
        if self.mode != "initiator":
            raise RuntimeError("start_commands on a %s peer" % self.mode)
        self._pump_commands()

    def _initiator_on_frame(self, packet):
        # Response data from the SUT: consume like a sink.
        if not self._receive_data(packet):
            return
        self.responses_completed = self.rcv_nxt // self.block_bytes
        self._pump_commands()

    def _pump_commands(self):
        while (
            self.commands_sent - self.responses_completed < self.queue_depth
        ):
            self.nic.deliver_frame(
                data_packet(self.conn_id, self.snd_nxt, self.command_bytes)
            )
            self.snd_nxt += self.command_bytes
            self.commands_sent += 1

    # ------------------------------------------------------------------
    # Web client: connection-churn episodes (setup, K requests, FIN).
    # ------------------------------------------------------------------

    def start_episodes(self):
        """Begin the first connection episode (client mode)."""
        if self.mode != "client":
            raise RuntimeError("start_episodes on a %s peer" % self.mode)
        self._open_connection()

    def _open_connection(self):
        self.phase = "setup"
        self.requests_sent_this_conn = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0
        self._ooo = []
        self._unacked_segments = 0
        self.nic.deliver_frame(control_packet(self.conn_id, "syn"))

    def _client_on_frame(self, packet):
        if packet.ctl == "synack":
            self.phase = "established"
            self.nic.deliver_frame(control_packet(self.conn_id, "estab_ack"))
            self._send_request()
            return
        if packet.ctl == "finack":
            self.phase = "idle"
            self.engine.schedule_after(
                self.think_cycles, self._open_connection,
                label="client%d think" % self.conn_id,
            )
            return
        # Response data: consume like a sink.
        if not self._receive_data(packet):
            return
        # A response is complete when the byte stream reaches the next
        # response boundary.
        if self.rcv_nxt >= self.requests_sent_this_conn * self.block_bytes:
            if self.requests_sent_this_conn < self.requests_per_conn:
                self._send_request()
            else:
                # Make sure the server's data is fully acknowledged,
                # then close.
                self._send_ack()
                self.phase = "closing"
                self.nic.deliver_frame(
                    control_packet(self.conn_id, "fin")
                )

    def _send_request(self):
        self.nic.deliver_frame(
            data_packet(self.conn_id, self.snd_nxt, self.request_bytes)
        )
        self.snd_nxt += self.request_bytes
        self.requests_sent_this_conn += 1

    def reset_stats(self):
        self.dup_acks_sent = 0
        self.dup_acks_seen = 0
        self.retransmits = 0
        self.rto_fires = 0
