"""The ttcp micro-benchmark.

One process per connection, doing nothing but ``write()`` (transmit
test) or ``read()`` (receive test) of a fixed transaction size in a
loop, reusing the same user buffer each iteration -- exactly the
paper's workload ("ttcp does no work other than read() or write()").
Transmit payload is served from cache (the buffer is written once at
start and then reused), mirroring the paper's in-kernel-web-server
caching assumption.
"""

from repro.kernel.task import Task, WaitQueue
from repro.kernel.timers import KernelTimer
from repro.prof.slotaccounting import ClassColumns


class TtcpWorkload:
    """Spawns one ttcp process per connection and counts goodput."""

    def __init__(self, machine, stack, message_size, offered_gbps=None):
        """``offered_gbps`` (transmit tests only) paces the writers to
        a fixed aggregate offered load, split across connections in
        proportion to their flow-class weight (evenly, when every
        connection is one exact flow), instead of the default
        write-as-fast-as-possible loop.  Pacing is work-conserving
        against a cumulative byte schedule: a writer that overslept
        (blocked on the send buffer, or on the millisecond-granular
        kernel timer used to wait) sends back-to-back until it catches
        up, so the average offered rate holds.  Receive tests ignore
        it -- the remote source peer is paced instead (see
        :meth:`repro.net.peer.Peer.set_pacing`)."""
        self.machine = machine
        self.stack = stack
        self.message_size = message_size
        n = len(stack.connections)
        # Fixed-size class-indexed columns (one slot per connection --
        # a class representative or an exact flow), allocated at final
        # size so measurement resets never re-bind the buffers.
        self._cols = ClassColumns(n, ("bytes", "messages"))
        self.bytes_done = self._cols.column("bytes")
        self.messages_done = self._cols.column("messages")
        # Representative ids are sparse under aggregation: translate
        # conn_id -> column position instead of indexing positionally.
        self._index = {
            conn.conn_id: i for i, conn in enumerate(stack.connections)
        }
        self.tasks = []
        self._pace_cpb = None
        if offered_gbps is not None and stack.mode == "tx":
            if offered_gbps <= 0:
                raise ValueError("offered_gbps must be positive")
            total_flows = getattr(stack, "n_flows", n)
            self._pace_cpb = []
            self._pace_phase = []
            for conn in stack.connections:
                fc = getattr(conn, "flow_class", None)
                weight = fc.weight if fc is not None else 1
                per_conn = offered_gbps * weight / total_flows
                cpb = machine.hz / (per_conn * 1e9 / 8.0)
                self._pace_cpb.append(cpb)
                # Stagger writer phases by connection id across one
                # write interval: independent real flows start at
                # random phases, so the population offers an evenly
                # interleaved stream, not a lockstep herd.
                self._pace_phase.append(
                    int(conn.conn_id / total_flows * message_size * cpb)
                )
            self._pace_t0 = [None] * n
            self._pace_offered = [0] * n
            self._pace_due = [False] * n
            self._pace_wqs = [WaitQueue("ttcp-pace%d" % i) for i in range(n)]
            self._pace_timers = [
                KernelTimer("tcp_write_timer", self._make_pace_handler(i))
                for i in range(n)
            ]
        machine.add_resettable(self)

    def _make_pace_handler(self, i):
        """Timer handler releasing writer ``i`` from its pacing sleep
        (runs in softirq context, like tcp_write_timer)."""

        def handler(ctx):
            ctx.charge(
                self.stack.specs["tcp_write_timer"],
                self.stack.instr["tcp_write_timer"],
            )
            self._pace_due[i] = True
            ctx.wake_up(self._pace_wqs[i])
            return
            yield  # pragma: no cover -- marks this as a generator

        return handler

    def spawn_all(self, initial_cpu=0):
        """Create the ttcp processes (affinity applied separately)."""
        for conn in self.stack.connections:
            if self.stack.mode == "tx":
                body = self._make_tx_body(conn)
            else:
                body = self._make_rx_body(conn)
            task = Task("ttcp%d" % conn.conn_id, body)
            self.tasks.append(task)
            self.machine.spawn(task, cpu_index=initial_cpu)
        return self.tasks

    def _make_tx_body(self, conn):
        stack = self.stack
        size = self.message_size
        index = self._index[conn.conn_id]

        def body(ctx):
            # Touch the buffer once so transmit copies run cache-warm
            # (ttcp "serving data directly from cache").
            warm = stack.specs["tcp_sendmsg"]
            ctx.charge(warm, 50,
                       writes=[(conn.user_buffer.addr, conn.user_buffer.size)])
            if self._pace_cpb is not None:
                self._pace_t0[index] = ctx.now + self._pace_phase[index]
            while True:
                n = yield from stack.sys_write(ctx, conn, size)
                self.bytes_done[index] += n
                self.messages_done[index] += 1
                if self._pace_cpb is not None:
                    self._pace_offered[index] += n
                    target = self._pace_t0[index] + int(
                        self._pace_offered[index] * self._pace_cpb[index]
                    )
                    if ctx.now < target:
                        # Ahead of the offered-load schedule: arm a
                        # write timer and sleep until the next release
                        # point (tick-granular, so catch-up above keeps
                        # the average rate exact).
                        self._pace_due[index] = False
                        ctx.charge(
                            stack.specs["mod_timer"],
                            stack.instr["mod_timer"],
                        )
                        ctx.add_timer(
                            self._pace_timers[index], target - ctx.now
                        )
                        yield ("block", self._pace_wqs[index],
                               lambda i=index: self._pace_due[i])
                yield ("preempt_check",)

        return body

    def _make_rx_body(self, conn):
        stack = self.stack
        size = self.message_size
        index = self._index[conn.conn_id]

        def body(ctx):
            while True:
                n = yield from stack.sys_read(ctx, conn, size)
                self.bytes_done[index] += n
                # ttcp counts buffers; partial reads still advance I/O.
                self.messages_done[index] += 1
                yield ("preempt_check",)

        return body

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def total_bytes(self):
        return sum(self.bytes_done)

    def reset_stats(self):
        self._cols.zero()

    def throughput_gbps(self, window_cycles, hz):
        """Goodput over the measurement window."""
        if window_cycles <= 0:
            return 0.0
        seconds = window_cycles / float(hz)
        return self.total_bytes() * 8.0 / seconds / 1e9
