"""A connection-churn web-server workload.

The paper's section 4 argues that any general networking workload can
be partitioned into "network fast paths", "network connection
setup/teardown" and "application processing", and that its
bulk-transfer findings project onto the fast-path share.  This
workload makes that claim testable: clients open a connection, issue a
handful of request/response exchanges (each with some application
processing on the server), and tear the connection down -- like a
static web server under HTTP/1.1 with short keep-alive.

Because only the fast-path share benefits from affinity, the measured
affinity gain here should sit *below* the ttcp gain, shrinking as
``app_instructions`` grows.
"""

from repro.kernel.task import Task

REQUEST_BYTES = 256


class WebServerWorkload:
    """One server process per connection, accept/serve/close loops."""

    def __init__(self, machine, stack, response_bytes,
                 app_instructions=4000):
        if stack.mode != "web":
            raise ValueError(
                "WebServerWorkload needs a stack in 'web' mode, got %r"
                % stack.mode
            )
        self.machine = machine
        self.stack = stack
        self.response_bytes = response_bytes
        #: Application work per request (request parsing, content
        #: lookup), charged to the non-stack 'application' bin.
        self.app_instructions = app_instructions
        self.requests_served = [0] * len(stack.connections)
        self.bytes_served = [0] * len(stack.connections)
        self.tasks = []
        machine.add_resettable(self)

    def spawn_all(self, initial_cpu=0):
        for conn in self.stack.connections:
            task = Task("httpd%d" % conn.conn_id, self._make_body(conn))
            self.tasks.append(task)
            self.machine.spawn(task, cpu_index=initial_cpu)
        return self.tasks

    def _make_body(self, conn):
        stack = self.stack
        index = conn.conn_id
        app_spec = stack.specs["application"]
        app_work = self.app_instructions
        response = self.response_bytes

        def body(ctx):
            while True:
                yield from stack.sys_accept(ctx, conn)
                while True:
                    got = 0
                    while got < REQUEST_BYTES:
                        n = yield from stack.sys_read(
                            ctx, conn, REQUEST_BYTES - got
                        )
                        if n == 0:
                            break  # FIN: the client is done
                        got += n
                    if got < REQUEST_BYTES:
                        break
                    # Application processing: parse, look up content.
                    ctx.charge(
                        app_spec, app_work,
                        reads=[(conn.user_buffer.addr,
                                min(512, conn.user_buffer.size))],
                    )
                    yield from stack.sys_write(ctx, conn, response)
                    self.requests_served[index] += 1
                    self.bytes_served[index] += response
                    yield ("preempt_check",)
                yield from stack.sock_close(ctx, conn)

        return body

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    @property
    def messages_done(self):
        """Alias for ExperimentResult compatibility (requests)."""
        return self.requests_served

    def total_requests(self):
        return sum(self.requests_served)

    def total_bytes(self):
        return sum(self.bytes_served)

    def reset_stats(self):
        self.requests_served = [0] * len(self.requests_served)
        self.bytes_served = [0] * len(self.bytes_served)

    def requests_per_second(self, window_cycles, hz):
        if window_cycles <= 0:
            return 0.0
        return self.total_requests() / (window_cycles / float(hz))
