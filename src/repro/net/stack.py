"""Stack assembly: connections, drivers, softirqs, system calls.

One :class:`NetworkStack` wires the full data path of the paper's SUT:
eight NICs (vectors straight out of the paper's Table 4), one
connection per NIC, per-CPU softnet state, TCP timers, and the
``sys_write``/``sys_read`` entry points the ttcp workload calls.
"""

from repro.kernel.interrupts import IrqLine
from repro.kernel.softirq import NET_RX_SOFTIRQ, NET_TX_SOFTIRQ
from repro.kernel.timers import KernelTimer
from repro.net.copies import charge_rx_copy, charge_toe_rx_placement
from repro.net.dev import SoftnetData
from repro.net.nic import Nic
from repro.net.params import (
    FUNCTION_PROFILES,
    LOCK_HOLD_NOMINAL_CYCLES,
    TOE_DOORBELL_INSTRUCTIONS,
    NetParams,
    base_instructions,
    register_profiles,
)
from repro.net.peer import Peer, PeerMux
from repro.net.skbuff import SkbPools
from repro.net.sock import Sock
from repro.net.tcp_input import net_rx_action, process_segment
from repro.net.tcp_output import send_control, tcp_send_ack, tcp_sendmsg

#: The paper's NIC interrupt vectors (Table 4).
PAPER_NIC_VECTORS = (0x19, 0x1A, 0x1B, 0x1D, 0x23, 0x24, 0x25, 0x27)

#: First MSI-X vector of a multi-queue NIC's per-queue block; queue q
#: interrupts on ``QUEUE_VECTOR_BASE + q``.  Chosen clear of the
#: paper's legacy vectors above.
QUEUE_VECTOR_BASE = 0x40


class Connection:
    """One ttcp connection: socket + NIC + remote peer + user buffer.

    Slotted: the scale study holds one of these per *flow class*
    rather than per flow, but even so the mutable per-connection
    record stays compact and typo-proof (no stray dict growth from
    the charge path).
    """

    __slots__ = (
        "conn_id", "sock", "nic", "peer", "user_buffer", "file_obj",
        "write_seq", "rexmit_armed", "rto_fires",
        "fast_retransmits", "retransmitted_segments", "flow_class",
    )

    def __init__(self, conn_id, sock, nic, peer, user_buffer, file_obj):
        self.conn_id = conn_id
        self.sock = sock
        self.nic = nic
        self.peer = peer
        self.user_buffer = user_buffer
        self.file_obj = file_obj
        #: Next sequence number to assign to queued (not yet sent) data.
        self.write_seq = 0
        self.rexmit_armed = False
        self.rto_fires = 0
        self.fast_retransmits = 0
        self.retransmitted_segments = 0
        #: The FlowClass this connection represents (aggregated stacks
        #: only); None when the connection is a single exact flow.
        self.flow_class = None

    def reset_stats(self):
        self.rto_fires = 0
        self.fast_retransmits = 0
        self.retransmitted_segments = 0

    def __repr__(self):
        return "Connection(%d via %s)" % (self.conn_id, self.nic.name)


class NetworkStack:
    """The assembled TCP/IP stack on a :class:`~repro.kernel.machine.Machine`."""

    NET_RX = NET_RX_SOFTIRQ
    NET_TX = NET_TX_SOFTIRQ

    def __init__(self, machine, params=None, n_connections=8, mode="tx",
                 message_size=65536, vectors=PAPER_NIC_VECTORS,
                 n_queues=1, flow_classes=None):
        """
        Parameters
        ----------
        mode:
            ``"tx"`` -- the SUT transmits (peers are sinks);
            ``"rx"`` -- the SUT receives (peers are sources);
            ``"iscsi"`` -- request/response: peers are iSCSI-shaped
            initiators issuing read commands, the SUT serves blocks
            (the paper's future-work workload);
            ``"web"`` -- connection-churn request/response: clients set
            up a connection, issue a few requests, and tear it down
            (the paper's workload-partitioning argument).
        message_size:
            The ttcp transaction size; sizes the per-process user
            buffer (ttcp reuses one buffer for every iteration).
        n_queues:
            ``1`` (default) builds the paper's topology: one
            single-vector NIC per connection.  ``> 1`` builds a single
            shared multi-queue NIC with that many hardware RX queues
            (MSI-X vector per queue) steered by RSS/Flow Director; all
            connections ride the one port, as on modern hardware.
        flow_classes:
            Optional flow-class aggregation plan (multi-queue only): a
            list of :class:`~repro.net.flowclass.FlowClass` whose
            weights sum to ``n_connections``.  The stack then builds
            one *representative* connection per class (carrying the
            class's queue, vector, ring and TX-lock residency) instead
            of one per flow; ``n_connections`` remains the modelled
            flow count.  ``None`` (default) simulates every flow
            exactly.
        """
        if mode not in ("tx", "rx", "iscsi", "web"):
            raise ValueError(
                "mode must be 'tx', 'rx', 'iscsi' or 'web', got %r" % mode
            )
        if n_queues < 1:
            raise ValueError("n_queues must be >= 1, got %d" % n_queues)
        if n_queues == 1 and n_connections > len(vectors):
            raise ValueError(
                "%d connections but only %d IRQ vectors"
                % (n_connections, len(vectors))
            )
        if flow_classes is not None:
            if n_queues == 1:
                raise ValueError(
                    "flow-class aggregation requires a multi-queue stack "
                    "(n_queues > 1)"
                )
            total = sum(fc.weight for fc in flow_classes)
            if total != n_connections:
                raise ValueError(
                    "flow-class weights sum to %d but n_connections is %d"
                    % (total, n_connections)
                )
        self.machine = machine
        self.params = params or NetParams()
        self.mode = mode
        self.message_size = message_size
        self.n_queues = n_queues
        #: Total modelled flows (>= len(self.connections) when
        #: aggregating) and the aggregation plan, if any.
        self.n_flows = n_connections
        self.flow_classes = flow_classes
        self.aggregated = flow_classes is not None and any(
            fc.weight > 1 for fc in flow_classes
        )
        #: Set by FaultInjector.attach(); None in fault-free runs.
        self.fault_injector = None
        # Diagnosis lock-hold knob: extra cycles spent inside every
        # process-context socket critical section, scaled against the
        # nominal hold length.  0 at the default scale of 1.0, so the
        # baseline charge sequence is unchanged.
        self._lock_hold_extra = int(round(
            (self.params.lock_hold_scale - 1.0) * LOCK_HOLD_NOMINAL_CYCLES
        ))
        self.specs = register_profiles(machine.functions)
        #: Per-invocation base instruction budget of every profiled
        #: function (``base_instructions``), resolved once.
        self.instr = {
            name: base_instructions(name) for name in FUNCTION_PROFILES
        }
        self.pools = SkbPools(machine, self.params)
        self.softnet = [
            SoftnetData(machine, i) for i in range(machine.n_cpus)
        ]
        # Shared read-mostly kernel structures.
        self.route_cache = machine.space.alloc("rt_cache", 512)
        self.ehash = machine.space.alloc("tcp_ehash", 1024)
        self.xtime = machine.space.alloc("xtime", 64)

        machine.softirqs.register(NET_RX_SOFTIRQ, self._net_rx_action)
        machine.softirqs.register(NET_TX_SOFTIRQ, self._net_tx_action)

        self.nics = []
        self.connections = []
        if n_queues == 1:
            for i in range(n_connections):
                nic = Nic(machine, i, vectors[i], self.params)
                machine.register_irq(
                    IrqLine(vectors[i], nic.name,
                            self._make_isr(nic, nic.rxqs[0]))
                )
                self.nics.append(nic)
                self.connections.append(self._make_connection(i, nic))
        else:
            queue_vectors = tuple(
                QUEUE_VECTOR_BASE + q for q in range(n_queues)
            )
            nic = Nic(machine, 0, queue_vectors[0], self.params,
                      n_queues=n_queues, queue_vectors=queue_vectors)
            for rxq in nic.rxqs:
                machine.register_irq(
                    IrqLine(rxq.vector, "%s-rxq%d" % (nic.name, rxq.qid),
                            self._make_isr(nic, rxq))
                )
            nic.peer = PeerMux()
            machine.add_resettable(nic)
            self.nics.append(nic)
            if flow_classes is None:
                rep_ids = range(n_connections)
            else:
                # One representative per class, ascending conn id --
                # for an all-singleton plan this loop is operation-for-
                # operation the exact loop above, which is what makes
                # singleton aggregation bit-identical by construction.
                rep_ids = [fc.rep_conn_id for fc in flow_classes]
            for i, rep_id in enumerate(rep_ids):
                conn = self._make_connection(rep_id, nic, shared=True)
                if flow_classes is not None:
                    conn.flow_class = flow_classes[i]
                    # The representative carries the class's aggregate
                    # traffic, so it gets the aggregate buffer/window
                    # resources of ``weight`` single-flow endpoints
                    # (identity when weight == 1).
                    if flow_classes[i].weight > 1:
                        conn.sock.scale_buffers(flow_classes[i].weight)
                        conn.peer.scale_window(flow_classes[i].weight)
                nic.peer.register(rep_id, conn.peer)
                # Queue-level reordering must be recoverable: sources
                # need dup-ACK fast retransmit exactly as real TCP
                # senders facing a Flow Director NIC do (Wu et al.).
                conn.peer.enable_loss_recovery()
                self.connections.append(conn)
        #: conn_id -> Connection.  With aggregation the representative
        #: ids are sparse, so positional indexing into
        #: ``self.connections`` is no longer valid anywhere.
        self._conn_by_id = {c.conn_id: c for c in self.connections}
        self._prime_rx_rings()

    def conn_for(self, conn_id):
        """The connection (exact flow or class representative) with
        this on-wire id."""
        return self._conn_by_id[conn_id]

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    def _make_connection(self, conn_id, nic, shared=False):
        machine = self.machine
        sock = Sock(machine, self.params, conn_id, "conn%d" % conn_id)
        peer_mode = {"tx": "sink", "rx": "source", "iscsi": "initiator",
                     "web": "client"}[self.mode]
        peer = Peer(machine, nic, conn_id, self.params, peer_mode,
                    block_bytes=self.message_size)
        # Source peers mark the last segment of each application
        # message PSH so a GRO NIC flushes at message boundaries.
        peer.push_boundary = self.message_size
        if self.mode == "web":
            sock.established = False
        if not shared:
            nic.peer = peer
        user_buffer = machine.space.alloc_page_aligned(
            "ttcp_buf%d" % conn_id, max(self.message_size, 64), zone="user"
        )
        file_obj = machine.space.alloc("file:conn%d" % conn_id, 128)
        conn = Connection(conn_id, sock, nic, peer, user_buffer, file_obj)
        sock.delack_timer = KernelTimer(
            "delack:%d" % conn_id, self._make_delack_handler(conn)
        )
        sock.rexmit_timer = KernelTimer(
            "rexmit:%d" % conn_id, self._make_rexmit_handler(conn)
        )
        machine.add_resettable(conn)
        if not shared:
            machine.add_resettable(nic)
        machine.add_resettable(peer)
        return conn

    def _prime_rx_rings(self):
        """Fill every receive ring before traffic starts (driver init)."""
        for nic in self.nics:
            for rxq in nic.rxqs:
                for skb in self.pools.alloc_ring(self.params.rx_ring_size):
                    rxq.post_rx(skb)

    def start_peers(self):
        """Kick active peers (receive and iSCSI experiments)."""
        for conn in self.connections:
            if conn.peer.mode == "source":
                conn.peer.start_stream()
            elif conn.peer.mode == "initiator":
                conn.peer.start_commands()
            elif conn.peer.mode == "client":
                conn.peer.start_episodes()

    # ------------------------------------------------------------------
    # Interrupt service routine (top half; plain function).
    # ------------------------------------------------------------------

    def _make_isr(self, nic, rxq):
        """The handler of one receive queue's vector: the completion
        pops, ring touches and replenish all belong to ``rxq`` (a
        one-queue NIC's only queue uses the device's own ring)."""

        def isr(ctx):
            specs = self.specs
            instr = self.instr
            # ICR read: an uncached MMIO read costs hundreds of cycles.
            ctx.charge(
                specs["e1000_intr"],
                instr["e1000_intr"],
                reads=[(nic.regs.addr, 64)],
                extra_cycles=350,
            )
            tx_done, rx_frames = rxq.claim()
            if tx_done:
                softnet = self.softnet[ctx.cpu_index]
                ctx.charge(
                    specs["e1000_clean_tx_irq"],
                    instr["e1000_clean_tx_irq"]
                    + 25 * len(tx_done),
                    reads=[nic.tx_ring.field(0, 16 * min(64, len(tx_done)))],
                    writes=[softnet.head_range()],
                )
                softnet.completion_queue.extend(tx_done)
                ctx.raise_softirq(NET_TX_SOFTIRQ)
            if rx_frames:
                softnet = self.softnet[ctx.cpu_index]
                ctx.charge(
                    specs["e1000_clean_rx_irq"],
                    instr["e1000_clean_rx_irq"]
                    + 30 * len(rx_frames),
                    reads=[rxq.ring.field(0, 16 * min(64, len(rx_frames)))],
                )
                for _, skb in rx_frames:
                    ctx.charge(
                        specs["netif_rx"],
                        instr["netif_rx"],
                        writes=[skb.head_range(256), softnet.head_range()],
                    )
                    softnet.enqueue_backlog(skb)
                ctx.raise_softirq(NET_RX_SOFTIRQ)
                # Replenish the ring (e1000_alloc_rx_buffers).
                deficit = min(len(rx_frames), rxq.rx_posted_deficit())
                if deficit > 0:
                    ctx.charge(
                        specs["e1000_alloc_rx_buffers"],
                        instr["e1000_alloc_rx_buffers"],
                        writes=[rxq.ring.field(0, 16 * deficit)],
                    )
                    for _ in range(deficit):
                        rxq.post_rx(self.pools.alloc(ctx))

        return isr

    # ------------------------------------------------------------------
    # Softirq actions.
    # ------------------------------------------------------------------

    def _net_rx_action(self, ctx):
        return net_rx_action(ctx, self)

    def _net_tx_action(self, ctx):
        """Free transmitted clones (dev_kfree_skb_irq completion)."""
        specs = self.specs
        instr = self.instr
        softnet = self.softnet[ctx.cpu_index]
        queue, softnet.completion_queue = softnet.completion_queue, []
        ctx.charge(
            specs["net_tx_action"],
            instr["net_tx_action"],
            reads=[softnet.head_range()],
        )
        for skb in queue:
            self.pools.free(ctx, skb)
        return
        yield  # pragma: no cover -- marks this as a generator

    # ------------------------------------------------------------------
    # Socket ownership (Linux 2.4 lock_sock / release_sock).
    # ------------------------------------------------------------------

    def lock_sock(self, ctx, conn):
        """Take process-context ownership of the socket.

        Bottom halves arriving while we own it will backlog their
        segments rather than spin.
        """
        sock = conn.sock
        yield ("spin", sock.lock)
        ctx.charge(
            self.specs["sock_sendmsg"],
            20,
            writes=[sock.buf[32]],
            extra_cycles=self._lock_hold_extra,
        )
        sock.owned = True
        ctx.unlock(sock.lock)

    def release_sock(self, ctx, conn):
        """Drop ownership, first processing any backlogged segments --
        in *our* context, on *our* CPU (``__release_sock``)."""
        sock = conn.sock
        specs = self.specs
        instr = self.instr
        yield ("spin", sock.lock)
        while sock.backlog:
            skb = sock.backlog.pop(0)
            ctx.unlock(sock.lock)
            ctx.charge(
                specs["skb_queue_ops"],
                instr["skb_queue_ops"],
                reads=[(skb.head.addr, 64)],
            )
            for op in process_segment(ctx, self, conn, skb):
                yield op
            yield ("spin", sock.lock)
        sock.owned = False
        ctx.unlock(sock.lock)

    # ------------------------------------------------------------------
    # TCP timer handlers.
    # ------------------------------------------------------------------

    def _make_delack_handler(self, conn):
        def handler(ctx):
            sock = conn.sock
            yield ("spin", sock.lock)
            ctx.charge(
                self.specs["tcp_delack_timer"],
                self.instr["tcp_delack_timer"],
                reads=[sock.tcb[96]],
            )
            if sock.owned:
                # Socket busy in process context: retry shortly (the
                # 2.4 handler does exactly this).
                ctx.unlock(sock.lock)
                ctx.add_timer(sock.delack_timer, self.machine.tick_cycles)
                return
            sock.delack_pending = False
            if sock.segs_since_ack > 0:
                for op in tcp_send_ack(ctx, self, conn):
                    yield op
            ctx.unlock(sock.lock)

        return handler

    def _make_rexmit_handler(self, conn):
        def handler(ctx):
            sock = conn.sock
            yield ("spin", sock.lock)
            ctx.charge(
                self.specs["tcp_write_timer"],
                self.instr["tcp_write_timer"],
                reads=[sock.tcb[96]],
            )
            if sock.owned:
                ctx.unlock(sock.lock)
                conn.rexmit_armed = False
                self.arm_rexmit_timer(ctx, conn)
                return
            conn.rexmit_armed = False
            if sock.in_flight > 0:
                # Retransmission timeout: resend the oldest unacked
                # segment and back the timer off.  (The paper's
                # loss-free testbed never reaches here; fault-injection
                # experiments do.)
                conn.rto_fires += 1
                from repro.net.tcp_output import tcp_retransmit_skb

                for op in tcp_retransmit_skb(ctx, self, conn):
                    yield op
                self.arm_rexmit_timer(ctx, conn)
            ctx.unlock(sock.lock)

        return handler

    def arm_rexmit_timer(self, ctx, conn):
        """(Re)arm the retransmit timer -- mod_timer churn on ACKs."""
        ctx.charge(
            self.specs["mod_timer"],
            self.instr["mod_timer"],
            writes=[conn.sock.buf[32]],
        )
        timer = conn.sock.rexmit_timer
        if conn.rexmit_armed:
            self.machine.del_timer(timer)
        ctx.add_timer(timer, self.params.rto_cycles)
        conn.rexmit_armed = True

    # ------------------------------------------------------------------
    # System calls (process context).
    # ------------------------------------------------------------------

    def _syscall_entry(self, ctx, conn, syscall, sock_fn, inet_fn):
        """Charge a socket syscall's entry and its socket layer: the
        BSD glue (``sock_fn``) and the inet layer (``inet_fn``) -- or
        under TOE one doorbell write into the NIC's command queue,
        which bypasses the inet glue."""
        specs = self.specs
        instr = self.instr
        file_range = (conn.file_obj.addr, 64)
        ctx.charge(
            specs[syscall],
            instr[syscall],
            reads=[(ctx.task._struct.addr, 128), file_range],
        )
        if self.params.toe:
            ctx.charge(
                specs[sock_fn],
                TOE_DOORBELL_INSTRUCTIONS,
                reads=[file_range],
            )
            return
        ctx.charge(
            specs[sock_fn],
            instr[sock_fn],
            reads=[file_range, conn.sock.buf[64]],
        )
        ctx.charge(
            specs[inet_fn],
            instr[inet_fn],
            reads=[conn.sock.tcb[64]],
        )

    def sys_write(self, ctx, conn, nbytes):
        """``write(fd, buf, nbytes)`` on a blocking TCP socket."""
        self._syscall_entry(ctx, conn, "sys_write", "sock_sendmsg",
                            "inet_sendmsg")
        copied = yield from tcp_sendmsg(ctx, self, conn, nbytes)
        return copied

    def sys_read(self, ctx, conn, nbytes):
        """``read(fd, buf, nbytes)``: blocks only when no data at all.

        A TOE read's receive completions ride the NIC's event queue."""
        specs = self.specs
        instr = self.instr
        sock = conn.sock
        self._syscall_entry(ctx, conn, "sys_read", "sock_recvmsg",
                            "inet_recvmsg")
        ctx.charge(
            specs["tcp_recvmsg"],
            instr["tcp_recvmsg"],
            reads=[sock.tcb[128]],
            writes=[sock.tcb[48]],
        )
        copied = 0
        for op in self.lock_sock(ctx, conn):
            yield op
        while copied < nbytes:
            if not sock.receive_queue:
                if sock.backlog:
                    # Data is sitting in our backlog: drain it by
                    # bouncing ownership (sk_wait_data does the same).
                    for op in self.release_sock(ctx, conn):
                        yield op
                    for op in self.lock_sock(ctx, conn):
                        yield op
                    continue
                if sock.fin_received:
                    break  # EOF (returns 0 when nothing was copied)
                if copied > 0 and not self.params.toe:
                    # sk_wait_data semantics: a host-stack read returns
                    # whatever arrived.  A TOE read is a posted buffer:
                    # the NIC keeps filling it and completes once, so
                    # the loop keeps going until ``nbytes`` are in.
                    break
                for op in self.release_sock(ctx, conn):
                    yield op
                ctx.charge(
                    specs["sock_wait"],
                    instr["sock_wait"],
                    reads=[sock.buf[64]],
                )
                if self.params.toe:
                    # TOE posted-buffer completion: the NIC fills the
                    # posted receive buffer and raises one moderated
                    # event; the host is not woken once per segment.
                    # Never wait for more than the caller asked for,
                    # and cap below the window so the threshold is
                    # always reachable under flow control.
                    need = min(nbytes - copied,
                               self.params.max_window * 3 // 4)
                    sock.toe_rcv_need = need
                    yield ("block", sock.rcv_wq,
                           lambda s=sock, n=need: (
                               s.rcv_available() >= n
                               or s.fin_received
                               or bool(s.backlog)))
                    sock.toe_rcv_need = 0
                else:
                    yield ("block", sock.rcv_wq,
                           lambda: (len(sock.receive_queue) > 0
                                    or sock.fin_received))
                for op in self.lock_sock(ctx, conn):
                    yield op
                continue
            skb = sock.receive_queue[0]
            chunk = min(nbytes - copied, skb.remaining)
            ctx.charge(
                specs["tcp_recvmsg"],
                55,
                reads=[sock.tcb[64], skb.head_range(64)],
            )
            if self.params.toe:
                # Direct data placement: the NIC DMAed the payload
                # straight into the posted user buffer; the host only
                # consumes the completion descriptors covering it.
                charge_toe_rx_placement(
                    ctx,
                    specs["__copy_to_user"],
                    conn.user_buffer.field(
                        copied % conn.user_buffer.size, chunk
                    ),
                    chunk,
                )
            else:
                charge_rx_copy(
                    ctx,
                    specs["__copy_to_user"],
                    skb.payload_range(skb.consumed, chunk),
                    conn.user_buffer.field(
                        copied % conn.user_buffer.size, chunk
                    ),
                    chunk,
                    cost_scale=self.params.copy_cost_scale,
                )
            tracer = self.machine.tracer
            if tracer is not None:
                tracer.emit("copy_to_user", cpu=ctx.cpu_index, ts=ctx.now,
                            vector=conn.nic.vector, bytes=chunk)
            skb.consumed += chunk
            copied += chunk
            if skb.remaining == 0:
                sock.receive_queue.pop(0)
                sock.rmem_queued -= skb.truesize
                ctx.charge(
                    specs["skb_queue_ops"],
                    instr["skb_queue_ops"],
                    reads=[sock.buf[96]],
                    writes=[sock.buf[128]],
                )
                ctx.charge(
                    specs["sk_stream_mem"],
                    instr["sk_stream_mem"],
                    reads=[sock.buf[96]],
                    writes=[sock.buf[96]],
                )
                self.pools.free(ctx, skb)
            # Window management: a drained buffer may owe the sender a
            # window update (tcp_cleanup_rbuf).
            ctx.charge(
                specs["__tcp_select_window"],
                instr["__tcp_select_window"],
                reads=[sock.tcb[64]],
            )
            if sock.window_update_due():
                for op in tcp_send_ack(ctx, self, conn):
                    yield op
            yield ("preempt_check",)
        for op in self.release_sock(ctx, conn):
            yield op
        return copied

    def sys_accept(self, ctx, conn):
        """``accept()``: block until the connection is established.

        The listening and three-way-handshake work happens in softirq
        context (see tcp_input.handle_control); the server process
        sleeps here until the third leg lands.
        """
        specs = self.specs
        instr = self.instr
        sock = conn.sock
        ctx.charge(
            specs["sys_accept"],
            instr["sys_accept"],
            reads=[(ctx.task._struct.addr, 128), (conn.file_obj.addr, 64)],
            writes=[(conn.file_obj.addr, 32)],
        )
        if not sock.established:
            yield ("block", sock.rcv_wq, lambda: sock.established)
        return conn

    def sock_close(self, ctx, conn):
        """``close()``: acknowledge the peer's FIN and release the sock.

        Our teardown protocol guarantees the queues are drained by the
        time the server closes, so the reset is residue-free.
        """
        specs = self.specs
        instr = self.instr
        sock = conn.sock
        for op in self.lock_sock(ctx, conn):
            yield op
        ctx.charge(
            specs["tcp_fin"],
            instr["tcp_fin"],
            reads=[sock.tcb[192]],
            writes=[sock.tcb[96]],
        )
        for op in send_control(ctx, self, conn, "finack"):
            yield op
        ctx.charge(
            specs["inet_csk_destroy_sock"],
            instr["inet_csk_destroy_sock"],
            reads=[sock.buf[128]],
            writes=[(sock.obj.addr, 512)],
        )
        if conn.rexmit_armed:
            self.machine.del_timer(sock.rexmit_timer)
            conn.rexmit_armed = False
        if sock.delack_pending:
            self.machine.del_timer(sock.delack_timer)
            sock.delack_pending = False
        for op in self.release_sock(ctx, conn):
            yield op
        sock.reset_connection()
        conn.write_seq = 0
