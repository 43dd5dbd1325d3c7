"""Kernel timers: per-CPU timer lists driven by the 1 kHz tick.

TCP arms two timers per connection (delayed ACK and retransmit); they
are added/modified/cancelled far more often than they fire, and that
bookkeeping is what populates the paper's *Timers* bin on the transmit
path (the receive path's timer time is dominated by
``do_gettimeofday`` calls, charged by the network layer directly).

Timers run on the CPU that armed them, in timer-softirq context, like
Linux 2.4's ``run_timer_list``.
"""

TICK_HZ = 1000


class KernelTimer:
    """One kernel timer.

    ``handler_factory(ctx)`` must return a generator (timer handlers
    run in softirq context and may spin on locks).
    """

    def __init__(self, name, handler_factory):
        self.name = name
        self.handler_factory = handler_factory
        #: Absolute expiry in cycles; ``None`` while inactive.
        self.expires = None
        #: CPU whose wheel holds the timer.
        self.cpu_index = None

    @property
    def pending(self):
        return self.expires is not None

    def __repr__(self):
        return "KernelTimer(%s, expires=%r)" % (self.name, self.expires)


class TimerWheel:
    """Per-CPU set of pending timers.

    A plain list is the right structure here: each connection holds a
    couple of timers and expiry scans happen once per tick.
    """

    def __init__(self, cpu_index):
        self.cpu_index = cpu_index
        self._timers = []

    def add(self, timer, expires):
        if timer.pending:
            raise RuntimeError("timer %s already pending" % timer.name)
        timer.expires = expires
        timer.cpu_index = self.cpu_index
        self._timers.append(timer)

    def remove(self, timer):
        if timer in self._timers:
            self._timers.remove(timer)
            timer.expires = None
            timer.cpu_index = None
            return True
        return False

    def expire(self, now):
        """Detach and return timers with ``expires <= now``."""
        timers = self._timers
        if not timers:
            return []  # the tick polls every wheel; most are empty
        due = [t for t in timers if t.expires <= now]
        if due:
            self._timers = [t for t in timers if t.expires > now]
            for timer in due:
                timer.expires = None
                timer.cpu_index = None
        return due

    def __len__(self):
        return len(self._timers)
