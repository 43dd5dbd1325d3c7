"""Tasks (processes) and wait queues.

A task's body is a Python generator produced by ``body_factory(ctx)``;
it performs work through the :class:`~repro.kernel.context.ExecContext`
and *suspends* by yielding control operations (``("block", waitqueue)``,
``("spin", lock)``, ``("preempt_check",)``) that the machine interprets.
This mirrors the structure of kernel process context: straight-line
C between scheduling points.
"""

TASK_NEW = "new"
TASK_READY = "ready"
TASK_RUNNING = "running"
TASK_BLOCKED = "blocked"
TASK_DEAD = "dead"


def full_mask(n_cpus):
    """Affinity mask allowing all ``n_cpus`` processors."""
    return (1 << n_cpus) - 1


class Task:
    """One schedulable process."""

    _next_pid = [1]

    def __init__(self, name, body_factory, cpus_allowed=None):
        self.pid = Task._next_pid[0]
        Task._next_pid[0] += 1
        self.name = name
        self.body_factory = body_factory
        self.gen = None
        self.state = TASK_NEW
        #: Static affinity mask (``sys_sched_setaffinity``); ``None``
        #: until :meth:`set_affinity` -- the machine fills in the
        #: all-CPUs default at spawn.
        self.cpus_allowed = cpus_allowed
        #: CPU the task last ran on -- the scheduler's cache-warmth hint.
        self.prev_cpu = 0
        #: Cycle at which the task was last dispatched (for preemption
        #: decisions).
        self.last_dispatch = 0
        # Statistics.
        self.migrations = 0

    def set_affinity(self, mask):
        """Pin the task to the CPUs in ``mask`` (must be non-empty)."""
        if mask <= 0:
            raise ValueError("affinity mask must allow at least one CPU")
        self.cpus_allowed = mask

    def allowed_on(self, cpu_index):
        """Whether the affinity mask permits ``cpu_index``."""
        return bool((self.cpus_allowed >> cpu_index) & 1)

    def start(self, ctx):
        """Instantiate the body generator; called at first dispatch."""
        if self.gen is None:
            self.gen = self.body_factory(ctx)
        return self.gen

    def __repr__(self):
        return "Task(%s pid=%d %s prev_cpu=%d)" % (
            self.name,
            self.pid,
            self.state,
            self.prev_cpu,
        )


class WaitQueue:
    """A kernel wait queue (e.g. a socket's sleep queue).

    Tasks block on it via the ``("block", wq)`` operation; any context
    wakes it through :meth:`ExecContext.wake_up`, which routes the
    actual placement (and any reschedule IPI) through the scheduler.
    """

    def __init__(self, name=""):
        self.name = name
        self.waiters = []

    def add(self, task):
        if task in self.waiters:
            raise RuntimeError("%r already waiting on %s" % (task, self.name))
        self.waiters.append(task)

    def pop_all(self):
        """Remove and return every waiter (wake-all semantics)."""
        tasks, self.waiters = self.waiters, []
        return tasks

    def pop_one(self):
        """Remove and return the longest-waiting task, or ``None``."""
        if not self.waiters:
            return None
        return self.waiters.pop(0)

    def remove(self, task):
        """Withdraw a specific task (e.g. killed while sleeping)."""
        if task in self.waiters:
            self.waiters.remove(task)

    def __len__(self):
        return len(self.waiters)

    def __repr__(self):
        return "WaitQueue(%s, %d waiters)" % (self.name, len(self.waiters))
