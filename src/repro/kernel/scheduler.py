"""The process scheduler: per-CPU runqueues, affinity, balancing.

Models the scheduler of the paper's Red Hat 2.4.20 kernel (which
carried the O(1)-scheduler and ``sys_sched_setaffinity`` backports):

* **cache warmth** -- a woken task prefers the CPU it last ran on;
* **wake-time steering** -- if the waking CPU's queue is no longer than
  the previous CPU's, the task moves to the waker.  This is the
  mechanism behind the paper's observation that *interrupt affinity
  indirectly leads to process affinity*: the NET_RX softirq that wakes
  a ttcp process runs on the NIC's interrupt CPU, so processes drift
  toward their NIC -- with no guarantee, exactly as the paper notes;
* **idle pull** -- a CPU about to idle steals a runnable task from the
  busiest queue (respecting affinity masks), the load-balancing
  pressure that piles user processes onto CPU1 when CPU0 is saturated
  with interrupts in the no-affinity mode;
* **periodic balance** -- tick-driven equalization of queue lengths;
* **wake preemption** -- a woken (recently sleeping, hence
  interactivity-boosted) task preempts a current task that has run
  beyond a threshold; preempting a remote CPU sends a reschedule IPI.

All policy decisions are returned as plain data; the machine applies
them (halting/unhalting CPUs, delivering IPIs).
"""

from repro.kernel.task import TASK_READY


class SchedulerParams:
    """Tunables; defaults approximate the 2.4 O(1) scheduler at 2 GHz."""

    def __init__(
        self,
        timeslice_cycles=20_000_000,         # 10 ms
        # A woken (sleep-boosted, hence interactive) task preempts a
        # current task that has run this long -- the O(1) scheduler's
        # dynamic-priority effect, and the trigger for reschedule IPIs
        # on cross-CPU wakeups.
        preempt_threshold_cycles=40_000,     # 20 us of runtime
        balance_interval_ticks=20,           # every 20 ms of ticks
        idle_pull=True,
        wake_steering=True,
    ):
        self.timeslice_cycles = timeslice_cycles
        self.preempt_threshold_cycles = preempt_threshold_cycles
        self.balance_interval_ticks = balance_interval_ticks
        self.idle_pull = idle_pull
        self.wake_steering = wake_steering


class WakeDecision:
    """Outcome of a wakeup: where the task goes and what it disturbs."""

    __slots__ = ("target_cpu", "preempt")

    def __init__(self, target_cpu, preempt):
        self.target_cpu = target_cpu
        self.preempt = preempt


class Scheduler:
    """Per-CPU runqueues plus placement and balancing policy."""

    #: A waker CPU busier than this fraction of recent cycles is not a
    #: steering target: it has no capacity to actually run the task.
    STEER_LOAD_LIMIT = 0.93

    def __init__(self, n_cpus, params=None):
        self.n_cpus = n_cpus
        self.params = params or SchedulerParams()
        self.runqueues = [[] for _ in range(n_cpus)]
        self.current = [None] * n_cpus
        #: Recent busy fraction per CPU (EWMA, fed by the machine tick).
        #: Wake steering only targets CPUs with spare capacity, which is
        #: what lets interrupt affinity pull processes toward their
        #: NIC's CPU while a saturated default-routing CPU0 repels them.
        self.cpu_load = [0.0] * n_cpus
        #: Optional :class:`repro.trace.tracer.Tracer`, wired by
        #: ``Machine.attach_tracer``; every ``task.migrations``
        #: increment emits a ``sched_migrate`` tracepoint so trace
        #: migration counts match the experiment counter exactly.
        self.tracer = None
        # Statistics.
        self.wakeups = 0
        self.remote_wakeups = 0

    # ------------------------------------------------------------------
    # Queue primitives.
    # ------------------------------------------------------------------

    def queue_len(self, cpu_index):
        """Runnable load on a CPU: queued tasks plus the running one."""
        return len(self.runqueues[cpu_index]) + (
            1 if self.current[cpu_index] is not None else 0
        )

    def enqueue(self, task, cpu_index):
        if not task.allowed_on(cpu_index):
            raise ValueError(
                "%r not allowed on CPU%d (mask 0x%x)"
                % (task, cpu_index, task.cpus_allowed)
            )
        task.state = TASK_READY
        self.runqueues[cpu_index].append(task)

    def dequeue_any(self, cpu_index):
        """Pop the head of a CPU's queue, or ``None``."""
        queue = self.runqueues[cpu_index]
        if queue:
            return queue.pop(0)
        return None

    # ------------------------------------------------------------------
    # Placement policy.
    # ------------------------------------------------------------------

    def choose_wake_cpu(self, task, waker_cpu):
        """Pick the CPU a woken task should run on."""
        prev = task.prev_cpu
        prev_ok = task.allowed_on(prev)
        waker_ok = task.allowed_on(waker_cpu)
        if prev_ok and (not waker_ok or prev == waker_cpu):
            return prev
        if self.params.wake_steering and waker_ok:
            if not prev_ok:
                return waker_cpu
            if (
                self.cpu_load[waker_cpu] < self.STEER_LOAD_LIMIT
                and self.queue_len(waker_cpu) <= self.queue_len(prev)
            ):
                return waker_cpu
            return prev
        if prev_ok:
            return prev
        if waker_ok:
            return waker_cpu
        # Neither hint is allowed: least-loaded CPU in the mask.
        allowed = [c for c in range(self.n_cpus) if task.allowed_on(c)]
        return min(allowed, key=self.queue_len)

    def wake(self, task, waker_cpu, now):
        """Place a woken task; returns a :class:`WakeDecision`."""
        target = self.choose_wake_cpu(task, waker_cpu)
        if target != task.prev_cpu:
            task.migrations += 1
            self._trace_migrate(task, task.prev_cpu, target)
        self.enqueue(task, target)
        self.wakeups += 1
        if target != waker_cpu:
            self.remote_wakeups += 1
        preempt = False
        running = self.current[target]
        if running is not None:
            ran_for = now - running.last_dispatch
            preempt = ran_for > self.params.preempt_threshold_cycles
        return WakeDecision(target, preempt)

    # ------------------------------------------------------------------
    # Dispatch and balancing.
    # ------------------------------------------------------------------

    def pick_next(self, cpu_index):
        """Next task for ``cpu_index``; idle-pulls from others if empty."""
        task = self.dequeue_any(cpu_index)
        if task is not None:
            return task
        if not self.params.idle_pull:
            return None
        return self._steal_for(cpu_index)

    def _steal_for(self, cpu_index):
        busiest = None
        busiest_len = 1  # only steal from queues with waiting tasks
        for other in range(self.n_cpus):
            if other == cpu_index:
                continue
            qlen = len(self.runqueues[other])
            if qlen > busiest_len or (busiest is None and qlen >= 1):
                busiest, busiest_len = other, qlen
        if busiest is None:
            return None
        queue = self.runqueues[busiest]
        # Steal the coldest migratable task (tail of the queue).
        for i in range(len(queue) - 1, -1, -1):
            task = queue[i]
            if task.allowed_on(cpu_index):
                del queue[i]
                task.migrations += 1
                self._trace_migrate(task, busiest, cpu_index)
                return task
        return None

    def balance(self, cpu_index):
        """Periodic balance: pull toward ``cpu_index`` if it is light.

        Returns the number of tasks moved.
        """
        my_len = self.queue_len(cpu_index)
        busiest = max(
            (c for c in range(self.n_cpus) if c != cpu_index),
            key=self.queue_len,
            default=None,
        )
        if busiest is None:
            return 0
        diff = self.queue_len(busiest) - my_len
        moved = 0
        while diff >= 2:
            queue = self.runqueues[busiest]
            candidate = None
            for i in range(len(queue) - 1, -1, -1):
                if queue[i].allowed_on(cpu_index):
                    candidate = queue.pop(i)
                    break
            if candidate is None:
                break
            candidate.migrations += 1
            self._trace_migrate(candidate, busiest, cpu_index)
            self.enqueue(candidate, cpu_index)
            moved += 1
            diff -= 2
        return moved

    # ------------------------------------------------------------------
    # Affinity.
    # ------------------------------------------------------------------

    def set_affinity(self, task, mask):
        """Apply ``sys_sched_setaffinity``; requeues if now misplaced."""
        task.set_affinity(mask)
        for cpu_index, queue in enumerate(self.runqueues):
            if task in queue and not task.allowed_on(cpu_index):
                queue.remove(task)
                allowed = [c for c in range(self.n_cpus) if task.allowed_on(c)]
                target = min(allowed, key=self.queue_len)
                task.migrations += 1
                self._trace_migrate(task, cpu_index, target)
                self.enqueue(task, target)
                return target
        return None

    def _trace_migrate(self, task, src, dst):
        if self.tracer is not None:
            self.tracer.emit("sched_migrate", cpu=dst, task=task.name,
                             src=src, dst=dst)
