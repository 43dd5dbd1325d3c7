"""TCP receive path: softirq protocol processing and the sock backlog.

``net_rx_action`` (NET_RX softirq) drains the per-CPU backlog filled
by the top half, runs each segment through IP and TCP demux, and then
applies Linux 2.4's socket-lock discipline:

* socket *not owned* by a process -> process the segment right here,
  in softirq context, holding the socket spinlock (``bh_lock_sock``);
* socket *owned* (a ``sendmsg``/``recvmsg`` is mid-flight) -> append
  the segment to the socket backlog; the owning process runs the same
  code at ``release_sock`` time, in its own context, on its own CPU.

This split is load-bearing for the paper: it keeps the Locks bin tiny
(bottom halves rarely spin), and it is why heavy engine functions show
up on the *process* CPU in the paper's per-CPU machine-clear tables.
"""

from repro.net.params import (
    NIC_ENGINE_ACK_CYCLES,
    NIC_ENGINE_RCV_CYCLES,
    TOE_ACK_COMPLETION_INSTRUCTIONS,
    TOE_RCV_COMPLETION_INSTRUCTIONS,
)
from repro.net.tcp_output import (
    send_control,
    tcp_retransmit_skb,
    tcp_send_ack,
    tcp_write_xmit,
)

#: Segments processed per softirq invocation before yielding back
#: (net_rx_action's quota in 2.4).
NET_RX_BUDGET = 64

#: Duplicate ACKs before fast retransmit (TCP Reno).
FAST_RETRANSMIT_DUPACKS = 3


def net_rx_action(ctx, stack):
    """The NET_RX softirq handler."""
    specs = stack.specs
    instr = stack.instr
    softnet = stack.softnet[ctx.cpu_index]
    ctx.charge(
        specs["net_rx_action"],
        instr["net_rx_action"],
        reads=[softnet.head_range()],
    )
    budget = NET_RX_BUDGET
    while softnet.backlog and budget > 0:
        budget -= 1
        skb = softnet.backlog.pop(0)
        conn = stack.conn_for(skb.pkt.conn_id)
        sock = conn.sock
        # The bottom half timestamps every arriving packet (the bulk of
        # the paper's RX Timers bin is this do_gettimeofday call).
        ctx.charge(
            specs["do_gettimeofday"],
            instr["do_gettimeofday"],
            reads=[(stack.xtime.addr, 64)],
            extra_cycles=700,  # rdtsc + serialization on the P4
        )
        ctx.charge(
            specs["ip_rcv"],
            instr["ip_rcv"],
            reads=[skb.header_range(), skb.head_range(64)],
        )
        ctx.charge(
            specs["tcp_v4_rcv"],
            instr["tcp_v4_rcv"],
            reads=[sock.tcb[320], (stack.ehash.addr, 64)],
        )
        yield ("spin", sock.lock)
        if sock.owned:
            # Owner is mid-syscall: defer to its context.
            ctx.charge(
                specs["skb_queue_ops"],
                instr["skb_queue_ops"],
                reads=[sock.buf[48]],
                writes=[sock.buf[128], (skb.head.addr, 128)],
            )
            sock.backlog.append(skb)
            sock.backlogged_total += 1
            ctx.unlock(sock.lock)
        else:
            for op in process_segment(ctx, stack, conn, skb):
                yield op
            ctx.unlock(sock.lock)
    if softnet.backlog:
        # Quota exhausted: leave the rest for another pass.
        ctx.raise_softirq(stack.NET_RX)


def process_segment(ctx, stack, conn, skb):
    """``tcp_v4_do_rcv``: run one demuxed segment through TCP.

    Called either from softirq (socket lock held) or from process
    context during backlog drain (socket owned).
    """
    specs = stack.specs
    instr = stack.instr
    ctx.charge(
        specs["tcp_v4_do_rcv"],
        instr["tcp_v4_do_rcv"],
        reads=[conn.sock.tcb[64]],
    )
    if skb.pkt.ctl is not None:
        for op in handle_control(ctx, stack, conn, skb):
            yield op
        stack.pools.free(
            ctx, specs["kfree_skb"], instr["kfree_skb"], skb
        )
        return
    if skb.is_ack or skb.len == 0:
        for op in tcp_ack(ctx, stack, conn, skb):
            yield op
        stack.pools.free(
            ctx, specs["kfree_skb"], instr["kfree_skb"], skb
        )
    else:
        for op in tcp_rcv_established(ctx, stack, conn, skb):
            yield op


def handle_control(ctx, stack, conn, skb):
    """Connection-lifecycle segments: the server side of setup and
    teardown (SYN -> SYNACK, third-leg ACK -> ESTABLISHED, FIN -> EOF).
    """
    sock = conn.sock
    specs = stack.specs
    instr = stack.instr
    ctl = skb.pkt.ctl
    if ctl == "syn":
        # tcp_v4_conn_request + minisock allocation.
        ctx.charge(
            specs["tcp_v4_conn_request"],
            instr["tcp_v4_conn_request"],
            reads=[sock.tcb[320], (stack.ehash.addr, 128)],
            writes=[sock.tcb[128]],
        )
        ctx.charge(
            specs["tcp_create_openreq_child"],
            instr["tcp_create_openreq_child"],
            reads=[sock.buf[128]],
            writes=[(sock.obj.addr, 512)],
        )
        for op in send_control(ctx, stack, conn, "synack"):
            yield op
    elif ctl == "estab_ack":
        ctx.charge(
            specs["tcp_v4_syn_recv_sock"],
            instr["tcp_v4_syn_recv_sock"],
            reads=[sock.tcb[256]],
            writes=[sock.tcb[128]],
        )
        sock.established = True
        if sock.rcv_wq.waiters:
            ctx.wake_up(sock.rcv_wq)
    elif ctl == "fin":
        ctx.charge(
            specs["tcp_fin"],
            instr["tcp_fin"],
            reads=[sock.tcb[192]],
            writes=[sock.tcb[96]],
        )
        sock.fin_received = True
        if sock.rcv_wq.waiters:
            ctx.wake_up(sock.rcv_wq)
    elif ctl in ("synack", "finack"):
        # These are client-side segments; a server socket receiving
        # one indicates a protocol bug in the experiment wiring.
        raise RuntimeError("server received client control %r" % ctl)
    else:
        raise RuntimeError("unknown control segment %r" % ctl)


def tcp_ack(ctx, stack, conn, skb):
    """Process an incoming ACK: advance ``snd_una``, free acked skbs,
    open the window, wake a blocked writer, continue transmitting."""
    sock = conn.sock
    specs = stack.specs
    instr = stack.instr
    toe = stack.params.toe
    sock.acks_in += 1
    if toe:
        # TOE: the NIC engine owns ACK bookkeeping; the host reads one
        # completion entry off the TOE queue instead of walking the
        # full tcp_ack path over the 576-byte control block.
        ctx.charge(
            specs["tcp_ack"],
            TOE_ACK_COMPLETION_INSTRUCTIONS,
            reads=[sock.tcb[64], skb.header_range()],
            writes=[sock.tcb[32]],
        )
    else:
        ctx.charge(
            specs["tcp_ack"],
            instr["tcp_ack"],
            reads=[sock.tcb[576], skb.header_range()],
            writes=[sock.tcb[256]],
        )
    old_una = sock.snd_una
    freed = sock.ack_clean(skb.pkt.ack_seq)
    if toe:
        # ACK processing + retransmit-queue trim on the NIC engine.
        conn.nic.engine_charge(
            NIC_ENGINE_ACK_CYCLES + 40 * len(freed), "ack"
        )
        conn.nic.toe_acks += 1
    sock.snd_wnd = skb.pkt.window
    # Duplicate-ACK accounting and fast retransmit (Reno): three
    # duplicates for the same sequence point to a lost segment.
    if skb.pkt.ack_seq == old_una and sock.in_flight > 0:
        sock.dupacks += 1
        if sock.dupacks == FAST_RETRANSMIT_DUPACKS:
            conn.fast_retransmits += 1
            for op in tcp_retransmit_skb(ctx, stack, conn):
                yield op
    elif skb.pkt.ack_seq > old_una:
        sock.dupacks = 0
    for acked in freed:
        if toe:
            # The NIC engine trimmed the retransmit queue; the buffers
            # recycle without host buffer-management charges.
            stack.pools.free_nocharge(acked, ctx.cpu_index)
        else:
            ctx.charge(
                specs["sk_stream_mem"],
                instr["sk_stream_mem"],
                reads=[sock.buf[64]],
                writes=[sock.buf[48]],
            )
            stack.pools.free(
                ctx, specs["kfree_skb"], instr["kfree_skb"],
                acked,
            )
        conn.bytes_acked += acked.len
    # Retransmit timer: cancelled when the pipe drains, pushed out on
    # every ACK otherwise -- the mod_timer churn behind the paper's TX
    # Timers bin.
    if sock.in_flight == 0:
        if conn.rexmit_armed:
            ctx.charge(specs["del_timer"], instr["del_timer"],
                       writes=[sock.buf[32]])
            stack.machine.del_timer(sock.rexmit_timer)
            conn.rexmit_armed = False
    else:
        stack.arm_rexmit_timer(ctx, conn)
    # Wake a writer blocked on buffer space (sk_stream_write_space).
    if freed and sock.snd_wq.waiters and (
        sock.sndbuf_free() >= sock.sndbuf // 3
    ):
        ctx.wake_up(sock.snd_wq)
    # An opened window may let queued segments go out right here, in
    # softirq context, on this CPU.
    if sock.send_head < len(sock.send_queue):
        for op in tcp_write_xmit(ctx, stack, conn):
            yield op
    return


def tcp_rcv_established(ctx, stack, conn, skb):
    """Fast-path receive: queue data, schedule ACK, wake the reader."""
    sock = conn.sock
    specs = stack.specs
    instr = stack.instr
    params = stack.params
    if not params.rx_csum_offload and skb.len > 0:
        from repro.net.copies import charge_rx_csum

        charge_rx_csum(ctx, specs["csum_partial"],
                       skb.payload_range(0, skb.len), skb.len,
                       cost_scale=params.copy_cost_scale)
    if params.toe:
        # TOE receive: sequence tracking, reassembly and placement ran
        # on the NIC engine; the host consumes one completion event.
        ctx.charge(
            specs["tcp_rcv_established"],
            TOE_RCV_COMPLETION_INSTRUCTIONS,
            reads=[sock.tcb[64], skb.header_range()],
            writes=[sock.tcb[32]],
        )
        conn.nic.engine_charge(NIC_ENGINE_RCV_CYCLES, "rcv")
    else:
        ctx.charge(
            specs["tcp_rcv_established"],
            instr["tcp_rcv_established"],
            reads=[sock.tcb[640], skb.header_range(),
                   skb.head_range(128)],
            writes=[sock.tcb[256]],
        )
    # Fault-induced slow paths (duplicate, gap, overlap).  The loss-free
    # fast path falls straight through all three tests without charging
    # anything extra, keeping baseline runs byte-identical.
    if skb.end_seq <= sock.rcv_nxt:
        # Entirely duplicate data (a retransmission overlap): drop it
        # and re-ACK our state so the sender converges.
        sock.dup_segs_in += 1
        sock.dup_acks_out += 1
        stack.pools.free(
            ctx, specs["kfree_skb"], instr["kfree_skb"], skb
        )
        for op in tcp_send_ack(ctx, stack, conn):
            yield op
        return
    if skb.seq > sock.rcv_nxt:
        # A gap: hold the segment for reassembly and duplicate-ACK
        # immediately so the sender's fast retransmit can trigger
        # (tcp_data_queue's out-of-order arm).
        ctx.charge(
            specs["skb_queue_ops"],
            instr["skb_queue_ops"],
            reads=[sock.buf[64]],
            writes=[sock.buf[128], (skb.head.addr, 256)],
        )
        if not sock.enqueue_ooo(skb):
            stack.pools.free(
                ctx, specs["kfree_skb"], instr["kfree_skb"], skb
            )
        sock.dup_acks_out += 1
        for op in tcp_send_ack(ctx, stack, conn):
            yield op
        return
    if skb.seq < sock.rcv_nxt:
        # Partial overlap: trim the bytes we already have so the
        # stream advances by exactly the new payload.
        skb.len = skb.end_seq - sock.rcv_nxt
        skb.seq = sock.rcv_nxt
    sock.receive_data(skb)
    ctx.charge(
        specs["skb_queue_ops"],
        instr["skb_queue_ops"],
        reads=[sock.buf[64]],
        writes=[sock.buf[128], (skb.head.addr, 256)],
    )
    ctx.charge(
        specs["sk_stream_mem"],
        instr["sk_stream_mem"],
        reads=[sock.buf[96]],
        writes=[sock.buf[96]],
    )
    sock.segs_since_ack += 1
    # The in-order arrival may have filled the gap in front of held
    # out-of-order segments: splice them into the receive queue.
    while sock.ooo_queue and sock.ooo_queue[0].seq <= sock.rcv_nxt:
        held = sock.ooo_queue.pop(0)
        if held.end_seq <= sock.rcv_nxt:
            sock.dup_segs_in += 1
            stack.pools.free(
                ctx, specs["kfree_skb"], instr["kfree_skb"],
                held,
            )
            continue
        if held.seq < sock.rcv_nxt:
            held.len = held.end_seq - sock.rcv_nxt
            held.seq = sock.rcv_nxt
        sock.receive_data(held)
        ctx.charge(
            specs["skb_queue_ops"],
            instr["skb_queue_ops"],
            reads=[sock.buf[64]],
            writes=[sock.buf[128], (held.head.addr, 256)],
        )
        ctx.charge(
            specs["sk_stream_mem"],
            instr["sk_stream_mem"],
            reads=[sock.buf[96]],
            writes=[sock.buf[96]],
        )
        sock.segs_since_ack += 1
    if sock.segs_since_ack >= params.ack_every:
        for op in tcp_send_ack(ctx, stack, conn):
            yield op
    elif not sock.delack_pending:
        ctx.charge(specs["mod_timer"], instr["mod_timer"],
                   writes=[sock.buf[32]])
        ctx.add_timer(sock.delack_timer, params.delack_cycles)
        sock.delack_pending = True
    if sock.rcv_wq.waiters:
        # TOE posted-buffer moderation: the completion event fires only
        # once the reader's low-water mark is placed; the host-stack
        # path keeps 2.4's wake-on-any-data sk_data_ready.
        if (sock.toe_rcv_need == 0
                or sock.rcv_available() >= sock.toe_rcv_need
                or sock.fin_received):
            ctx.wake_up(sock.rcv_wq)
    return
