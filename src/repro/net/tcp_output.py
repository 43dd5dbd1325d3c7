"""TCP transmit path: sendmsg, segmentation/Nagle, transmit, ACKs.

All functions are generators run in process or softirq context; they
assume the conventions of :mod:`repro.kernel.machine` (``("spin",
lock)`` to acquire, ``ctx.unlock`` to release).  Charging follows the
paper's bins: engine work here, buffer management in
:mod:`repro.net.skbuff` helpers, driver work in :mod:`repro.net.dev`.

Each transmit rule is written once.  ``tcp_write_xmit`` is the one
send loop (window and Nagle test, sent bookkeeping) for per-segment
and LSO transmit alike; ``tcp_transmit_skb`` builds the header for a
segment or a whole LSO burst; every data, ACK and control frame
leaves through ``ip_queue_xmit`` and the device's one hand-off; and
``tcp_send_ack`` builds one ACK whether the host or, under TOE, the
NIC engine emits it.
"""

from repro.net.copies import charge_toe_tx_handoff, charge_tx_copy
from repro.net.dev import dev_queue_xmit
from repro.net.packet import ack_packet, control_packet, data_packet


def tcp_sendmsg(ctx, stack, conn, nbytes):
    """``tcp_sendmsg``: copy user data into the socket, send what the
    window allows, block when the send buffer is full.

    Returns the byte count (== ``nbytes``; TCP writes are complete).
    The socket is *owned* (lock_sock) for the duration of the call;
    ACKs arriving meanwhile are backlogged by the softirq and processed
    here, in our context, whenever we release (including around
    blocking waits) -- exactly the 2.4 discipline.
    """
    sock = conn.sock
    specs = stack.specs
    instr = stack.instr
    params = stack.params
    mss = params.mss
    copied = 0
    ctx.charge(
        specs["tcp_sendmsg"],
        instr["tcp_sendmsg"],
        reads=[sock.tcb[576]],
        writes=[sock.tcb[64]],
    )
    for op in stack.lock_sock(ctx, conn):
        yield op
    while copied < nbytes:
        tail = sock.tail_unsent()
        if tail is not None and tail.room(mss) > 0:
            skb = tail
            chunk = min(tail.room(mss), nbytes - copied)
        elif sock.can_queue_skb():
            skb = stack.pools.alloc(ctx, conn=conn)
            ctx.charge(
                specs["sk_stream_mem"],
                instr["sk_stream_mem"],
                reads=[sock.buf[96]],
                writes=[sock.buf[64]],
            )
            skb.seq = conn.write_seq
            skb.end_seq = skb.seq
            sock.send_queue.append(skb)
            sock.wmem_queued += skb.truesize
            chunk = min(min(mss, skb.room(mss)), nbytes - copied)
        else:
            # Send buffer full (sk_stream_wait_memory): release the
            # socket -- draining backlogged ACKs, which may already
            # free space -- then sleep until woken by write_space.
            for op in stack.release_sock(ctx, conn):
                yield op
            ctx.charge(
                specs["sock_wait"],
                instr["sock_wait"],
                reads=[sock.buf[64]],
            )
            if params.toe:
                # TOE send-completion moderation: the NIC coalesces
                # completion events and raises one when half the ring
                # has drained (or everything left fits), instead of
                # waking the host once per freed descriptor.
                need_true = (
                    -(-(nbytes - copied) // mss) * params.skb_truesize
                )
                need = min(need_true, sock.sndbuf // 2)
                yield ("block", sock.snd_wq,
                       lambda s=sock, n=need: s.sndbuf_free() >= n)
            else:
                yield ("block", sock.snd_wq, sock.can_queue_skb)
            for op in stack.lock_sock(ctx, conn):
                yield op
            continue
        # Per-chunk engine work: window math, sequence bookkeeping.
        ctx.charge(
            specs["tcp_sendmsg"],
            90,
            reads=[sock.tcb[320]],
            writes=[sock.tcb[64]],
        )
        if params.toe:
            # Zero-copy hand-off: pin pages, build pull descriptors.
            # The NIC engine reads+checksums the payload at LSO
            # segmentation time (Nic.hw_xmit).
            charge_toe_tx_handoff(
                ctx,
                specs["csum_and_copy_from_user"],
                conn.user_buffer.field(copied, chunk),
                chunk,
            )
        else:
            charge_tx_copy(
                ctx,
                specs["csum_and_copy_from_user"],
                conn.user_buffer.field(copied, chunk),
                skb.payload_range(skb.len, chunk),
                chunk,
                # Under LSO the NIC checksums while segmenting, so the
                # host runs the leaner pure-copy loop.
                csum_offload=params.tx_csum_offload or params.lso,
                cost_scale=params.copy_cost_scale,
            )
        skb.len += chunk
        skb.end_seq = skb.seq + skb.len
        conn.write_seq += chunk
        copied += chunk
        for op in tcp_write_xmit(ctx, stack, conn):
            yield op
        yield ("preempt_check",)
    for op in stack.release_sock(ctx, conn):
        yield op
    return copied


def tcp_write_xmit(ctx, stack, conn):
    """Transmit queued segments while the send window allows.

    Caller holds the socket lock.  Runs from process context (after a
    write) *and* from softirq context (when an ACK opens the window) --
    the latter is how transmit work lands on the interrupt CPU, one of
    the cross-CPU couplings affinity removes.

    Each segment is charged and handed to the device, then marked
    sent.  Under LSO/TSO every window-allowed segment is marked sent
    as it joins one burst, and the burst is charged and handed over
    once (:func:`tcp_transmit_skb`), so the protocol state machine
    (windows, Nagle, retransmit arming) cannot tell the two apart.
    """
    sock = conn.sock
    params = stack.params
    lso = params.tx_seg_offload
    burst = []
    while sock.send_head < len(sock.send_queue):
        skb = sock.send_queue[sock.send_head]
        if not sock.window_allows(skb.len):
            break
        if skb.len < params.mss and sock.in_flight > 0:
            break  # Nagle: hold the partial segment while data is out
        if lso:
            burst.append(skb)
        else:
            for op in tcp_transmit_skb(ctx, stack, conn, [skb]):
                yield op
        sock.send_head += 1
        was_empty_pipe = sock.in_flight == 0
        sock.snd_nxt = skb.end_seq
        if was_empty_pipe:
            stack.arm_rexmit_timer(ctx, conn)
    if burst:
        for op in tcp_transmit_skb(ctx, stack, conn, burst, lso=True):
            yield op


def tcp_transmit_skb(ctx, stack, conn, skbs, lso=False):
    """Build headers, clone for the driver, hand to the device queue.

    ``skbs`` is one segment, or under LSO (``lso=True``) a burst: the
    transmit machinery (write_xmit bookkeeping, header build, window
    selection, clone, driver descriptor + doorbell) is charged once
    for the burst, and the NIC engine segments it
    (:meth:`repro.net.nic.Nic.hw_xmit`).
    """
    sock = conn.sock
    specs = stack.specs
    instr = stack.instr
    head = skbs[0]
    ctx.charge(
        specs["tcp_write_xmit"],
        instr["tcp_write_xmit"],
        reads=[sock.tcb[96]],
    )
    ctx.charge(
        specs["tcp_transmit_skb"],
        instr["tcp_transmit_skb"],
        reads=[sock.tcb[512], head.head_range(128)],
        writes=[sock.tcb[192], head.header_range()],
    )
    ctx.charge(
        specs["__tcp_select_window"],
        instr["__tcp_select_window"],
        reads=[sock.tcb[64]],
    )
    window = sock.advertised_window()
    sock.last_window_advertised = window
    # The retransmit queue keeps the original; the driver consumes a
    # clone (freed at TX-complete in the NET_TX softirq).  Under LSO
    # one clone stands in for the burst's whole descriptor chain, and
    # the NIC reads each segment from its send-queue skb.
    clone = stack.pools.clone(ctx, head)
    frames = [
        (skb if lso else clone,
         data_packet(conn.conn_id, skb.seq, skb.len,
                     ack_seq=sock.rcv_nxt, window=window))
        for skb in skbs
    ]
    for op in ip_queue_xmit(ctx, stack, conn, clone, frames, lso):
        yield op


def ip_queue_xmit(ctx, stack, conn, skb, frames, lso=False):
    """IP output: route lookup (cached), header fill, to the device
    (``frames`` and ``lso`` as for :func:`repro.net.dev.dev_queue_xmit`)."""
    specs = stack.specs
    instr = stack.instr
    ctx.charge(
        specs["ip_queue_xmit"],
        instr["ip_queue_xmit"],
        reads=[(stack.route_cache.addr, 128)],
        writes=[skb.header_range()],
    )
    for op in dev_queue_xmit(ctx, stack, conn.nic, skb, frames, lso):
        yield op


def send_control(ctx, stack, conn, ctl):
    """Emit a connection-lifecycle segment (SYNACK / FINACK / FIN).

    Charged like a small transmit; caller holds the socket lock (or
    owns the socket)."""
    sock = conn.sock
    skb = stack.pools.alloc(ctx, conn=conn)
    skb.is_ack = True  # control segments carry no payload
    packet = control_packet(
        conn.conn_id, ctl, window=sock.advertised_window()
    )
    ctx.charge(
        stack.specs["tcp_transmit_skb"],
        150,
        reads=[sock.tcb[128]],
        writes=[skb.header_range()],
    )
    for op in ip_queue_xmit(ctx, stack, conn, skb, [(skb, packet)]):
        yield op


def tcp_retransmit_skb(ctx, stack, conn):
    """Retransmit the oldest unacknowledged segment (RTO or fast
    retransmit).  Caller holds the socket lock.  The window it
    advertises is not recorded as ``last_window_advertised``."""
    sock = conn.sock
    if sock.send_head == 0 or not sock.send_queue:
        return  # nothing in flight
    skb = sock.send_queue[0]
    ctx.charge(
        stack.specs["tcp_retransmit_skb"],
        stack.instr["tcp_retransmit_skb"],
        reads=[sock.tcb[512], skb.head_range(128)],
        writes=[sock.tcb[128], skb.header_range()],
    )
    packet = data_packet(
        conn.conn_id, skb.seq, skb.len,
        ack_seq=sock.rcv_nxt, window=sock.advertised_window(),
    )
    clone = stack.pools.clone(ctx, skb)
    conn.retransmitted_segments += 1
    tracer = stack.machine.tracer
    if tracer is not None:
        tracer.emit("tcp_retransmit", cpu=ctx.cpu_index, ts=ctx.now,
                    conn=conn.conn_id)
    for op in ip_queue_xmit(ctx, stack, conn, clone, [(clone, packet)]):
        yield op


def tcp_send_ack(ctx, stack, conn):
    """Emit a pure ACK (delayed-ACK fire, every-other-segment, or a
    window update from the reader).  Caller holds the socket lock.

    Under TOE the ACK is NIC-autonomous: the engine builds and emits
    it itself (:meth:`repro.net.nic.Nic.engine_ack_xmit`), and the
    host only cancels its (vestigial) delack timer."""
    sock = conn.sock
    specs = stack.specs
    instr = stack.instr
    toe = stack.params.toe
    if not toe:
        ctx.charge(
            specs["tcp_send_ack"],
            instr["tcp_send_ack"],
            reads=[sock.tcb[96]],
            writes=[sock.tcb[32]],
        )
        skb = stack.pools.alloc(ctx, conn=conn)
        skb.is_ack = True
    window = sock.advertised_window()
    packet = ack_packet(conn.conn_id, sock.rcv_nxt, window)
    sock.last_window_advertised = window
    sock.segs_since_ack = 0
    if sock.delack_pending:
        ctx.charge(specs["del_timer"], instr["del_timer"],
                   writes=[sock.buf[32]])
        stack.machine.del_timer(sock.delack_timer)
        sock.delack_pending = False
    if toe:
        conn.nic.engine_ack_xmit(packet, ctx.now)
        return
    ctx.charge(
        specs["tcp_transmit_skb"],
        140,
        reads=[sock.tcb[96]],
        writes=[skb.header_range()],
    )
    for op in ip_queue_xmit(ctx, stack, conn, skb, [(skb, packet)]):
        yield op
