"""The discrete-event engine.

The engine maintains a priority queue of :class:`Event` objects ordered
by simulated time (in CPU cycles).  Components schedule callbacks; the
engine repeatedly pops the earliest same-timestamp *epoch* and runs its
events.  Ties are broken by insertion order, which keeps runs
deterministic.

The queue is a *calendar* structure: a binary heap of the distinct
timestamps currently scheduled, plus a FIFO bucket of events per
timestamp.  Network simulations schedule bursts of same-cycle events
(IRQ fan-out, softirq drains, DMA completions), and with a plain event
heap every member of such a run pays an O(log n) sift on push and pop.
Here the heap only sees each *timestamp* once, same-time events append
in O(1), and :meth:`EventQueue.pop_epoch` -- the queue's only pop --
hands the engine a whole epoch as one batch without touching the heap
between events.

Events may be cancelled; cancellation is lazy (the stored entry stays
in place and is skipped on pop), the standard technique for scheduler
queues.  Mass cancellation triggers an opportunistic compaction so the
debris never dominates live entries.
"""

import heapq


class Event:
    """A scheduled callback.

    Instances are handed back by :meth:`EventQueue.schedule` so callers
    can cancel them later.  ``time`` is the simulated cycle at which the
    callback fires.
    """

    __slots__ = ("time", "callback", "cancelled", "label", "_queue")

    def __init__(self, time, callback, label=""):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.label = label
        self._queue = None

    def cancel(self):
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return "Event(t=%d, %s%s)" % (self.time, self.label or self.callback, state)


class EventQueue:
    """A deterministic calendar queue of :class:`Event` objects.

    State is a heap of distinct timestamps (``_times``) and a dict
    mapping each timestamp to ``[skip_index, [events...]]``
    (``_buckets``).  Events within a bucket are stored in schedule
    order, so draining the earliest timestamp's bucket front to back
    fires events in (time, insertion) order.  ``skip_index`` counts
    the cancelled events already stepped over at the bucket's front.
    """

    #: Compact only past this stored size (small queues aren't worth it).
    COMPACT_MIN = 64

    def __init__(self):
        self._times = []
        self._buckets = {}
        self._live = 0
        #: Cancelled events still physically stored in some bucket.
        self._debris = 0

    def __len__(self):
        return self._live

    def schedule(self, time, callback, label=""):
        """Schedule ``callback`` to run at simulated cycle ``time``."""
        if time < 0:
            raise ValueError("cannot schedule an event at negative time %r" % time)
        event = Event(time, callback, label)
        event._queue = self
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [0, [event]]
            heapq.heappush(self._times, time)
        else:
            bucket[1].append(event)
        self._live += 1
        return event

    def _note_cancelled(self):
        """A live stored entry was just cancelled (called by Event)."""
        self._live -= 1
        self._debris += 1
        physical = self._live + self._debris
        if physical >= self.COMPACT_MIN and self._live * 2 < physical:
            self._compact()

    def _compact(self):
        """Drop lazily-cancelled debris and rebuild the time heap.

        Bucket order is schedule order and survives filtering, and the
        timestamp heap holds unique keys, so re-heapifying preserves
        deterministic pop order.
        """
        new_buckets = {}
        for time, (idx, events) in self._buckets.items():
            keep = [ev for ev in events[idx:] if not ev.cancelled]
            if keep:
                new_buckets[time] = [0, keep]
        self._buckets = new_buckets
        self._times = list(new_buckets)
        heapq.heapify(self._times)
        self._debris = 0

    def pop_epoch(self, until=None):
        """Pop *all* live events at the earliest scheduled timestamp.

        Returns the batch as a list in schedule order, or ``None`` when
        the queue is drained or the earliest live event fires strictly
        after ``until`` (``None``: no deadline).  Events scheduled *at
        the same timestamp* while the batch executes land in a fresh
        bucket and are returned by the next ``pop_epoch`` call, after
        every member of this batch.  One heap pop per distinct
        timestamp, however many events share it.
        """
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets[t]
            idx, events = bucket
            n = len(events)
            while idx < n and events[idx].cancelled:
                idx += 1
                self._debris -= 1
            if idx >= n:
                heapq.heappop(times)
                del buckets[t]
                continue
            if until is not None and t > until:
                bucket[0] = idx
                return None
            batch = []
            append = batch.append
            for ev in events[idx:]:
                if ev.cancelled:
                    self._debris -= 1
                else:
                    ev._queue = None
                    append(ev)
            self._live -= len(batch)
            heapq.heappop(times)
            del buckets[t]
            return batch
        return None


class SimulationEngine:
    """Drives the event queue and owns the global simulated clock.

    The clock (:attr:`now`) is the time of the most recently fired
    event.  Resources that model their own local progress (CPUs) keep
    private clocks and re-enter the engine by scheduling continuation
    events, so ``now`` is always the global causal frontier.
    """

    def __init__(self):
        self.queue = EventQueue()
        self.now = 0
        self.events_fired = 0
        #: Events popped with a timestamp behind the clock.  Must stay
        #: zero; checked by the post-run InvariantChecker.
        self.monotonicity_violations = 0
        self._trace = None

    def enable_trace(self, depth=64):
        """Keep a ring of the last ``depth`` fired events' (time, label)
        for post-mortem diagnostics (cheap; label strings are shared)."""
        import collections

        if self._trace is None or self._trace.maxlen != depth:
            self._trace = collections.deque(
                self._trace or (), maxlen=depth
            )

    def trace_tail(self):
        """The recorded (time, label) tail, oldest first."""
        return list(self._trace) if self._trace is not None else []

    def schedule_at(self, time, callback, label=""):
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(
                "event at t=%d is in the past (now=%d)" % (time, self.now)
            )
        return self.queue.schedule(time, callback, label)

    def schedule_after(self, delay, callback, label=""):
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError("negative delay %r" % delay)
        return self.queue.schedule(self.now + delay, callback, label)

    def run(self, until=None):
        """Run events in time order, one same-timestamp epoch at a time.

        Stops once the next event would fire strictly after ``until``
        (the event stays queued) and advances the clock to ``until`` --
        also when the queue drained, so ``run_for`` windows measure the
        same span regardless of queue occupancy.  ``until=None`` runs
        until the queue drains.

        Returns the number of events fired during this call.
        """
        fired = 0
        queue = self.queue
        while True:
            batch = queue.pop_epoch(until)
            if batch is None:
                break
            for event in batch:
                # A callback earlier in the epoch may cancel a member.
                if event.cancelled:
                    continue
                time = event.time
                if time < self.now:
                    self.monotonicity_violations += 1
                self.now = time
                if self._trace is not None:
                    self._trace.append((time, event.label))
                event.callback()
                fired += 1
        if until is not None and until > self.now:
            self.now = until
        self.events_fired += fired
        return fired
