"""Flyweight flow populations and flow-class aggregation.

The paper's world stops at 8 connections; the scale study wants 100K+.
Simulating every flow individually makes cost and memory O(n_flows):
each flow carries a Sock, a Peer, a generator task, timers and ring
residency, and the event loop charges every flow's every segment.

This module breaks that ceiling with two structures:

:class:`FlowPopulation`
    The *flyweight* record of every flow in the experiment: one
    columnar ``array('i')`` mapping flow id -> static RSS queue, built
    with the closed-form classifier :func:`repro.net.rss.flow_hash`
    and interned per ``(n_flows, n_queues, entries)`` so repeated
    cells in one process share a single immutable copy.  The interning
    is per process: a parallel sweep's parent never builds one, so
    each forked worker classifies the population itself, once per
    geometry.  4 bytes per flow -- a 100K-flow population is 400KB,
    versus ~10KB of Python object graph per fully-simulated flow.

:class:`FlowClass`
    One group of statistically-identical flows: same transaction size,
    direction, workload template and -- decisive for contention -- the
    same static RSS queue, which means the same MSI-X vector, the same
    ring, the same paired TX lock and (under queue-pinned steering)
    the same CPU.  The stack simulates one *representative* connection
    per class; the class's ``weight`` scales derived per-flow
    quantities analytically, while everything contention-coupled
    (lock hold, queue occupancy, wire serialization, steering
    collisions) is still resolved against the shared machine model by
    actually simulating the representative.

Validity envelope
-----------------
Aggregation is exact when flows within a class are interchangeable at
the queue level: homogeneous bulk flows whose per-flow TCP windows do
not individually bind (the shared wire or CPU saturates first) and
whose per-flow cache footprint is not the dominant architectural
effect.  That is precisely the regime of the scale study -- many
identical ttcp streams through a shared multi-queue NIC.  It is *not*
valid for heterogeneous mixes or latency-bound open-loop workloads;
``ExperimentConfig`` therefore only accepts ``aggregation="class"``
for the ttcp workload on a multi-queue stack, and the equivalence
suite (tests/test_flowclass.py) pins the class path to the exact path
bit-identically for singleton classes and within tolerance at N=64.
"""

from array import array

from repro.net.rss import INDIRECTION_ENTRIES, flow_hash


class FlowClass:
    """One group of statistically-identical flows sharing an RSS queue."""

    __slots__ = ("queue", "rep_conn_id", "weight")

    def __init__(self, queue, rep_conn_id, weight):
        self.queue = queue
        self.rep_conn_id = rep_conn_id
        self.weight = weight

    def __repr__(self):
        return "FlowClass(q%d rep=%d x%d)" % (
            self.queue, self.rep_conn_id, self.weight
        )


class FlowPopulation:
    """Columnar per-flow state: flow id -> static RSS queue.

    Immutable after construction and safe to share -- interned copies
    are handed to every experiment in the process with the same
    geometry.
    """

    __slots__ = ("n_flows", "n_queues", "entries", "queues", "queue_counts")

    def __init__(self, n_flows, n_queues, entries=INDIRECTION_ENTRIES):
        if n_flows < 1:
            raise ValueError("n_flows must be >= 1, got %d" % n_flows)
        if n_queues < 1:
            raise ValueError("n_queues must be >= 1, got %d" % n_queues)
        self.n_flows = n_flows
        self.n_queues = n_queues
        self.entries = entries
        mask = entries - 1
        # The static RSS classification every flow would receive: the
        # same Toeplitz + indirection lookup NicSteering performs at
        # receive time (RssIndirection's default round-robin table is
        # ``index % n_queues``).
        queues = array("i", [
            (flow_hash(conn_id) & mask) % n_queues
            for conn_id in range(n_flows)
        ])
        self.queues = queues
        self.queue_counts = tuple(queues.count(q) for q in range(n_queues))

    def queue_for(self, conn_id):
        return self.queues[conn_id]

    def occupancy(self):
        """Flows per queue -- the load-balance statistic of the study."""
        return self.queue_counts


#: Interned populations keyed by geometry.  A scale sweep revisits the
#: same (n_flows, n_queues) pair once per (cpu, size, mode) cell; the
#: classification pass runs once per process instead.
_POPULATIONS = {}


def flow_population(n_flows, n_queues, entries=INDIRECTION_ENTRIES):
    """The interned (shared, immutable) population for this geometry."""
    key = (n_flows, n_queues, entries)
    pop = _POPULATIONS.get(key)
    if pop is None:
        pop = FlowPopulation(n_flows, n_queues, entries)
        _POPULATIONS[key] = pop
    return pop


def partition_flows(n_flows, n_queues, entries=INDIRECTION_ENTRIES):
    """Group ``n_flows`` into per-queue flow classes.

    Returns ``(population, [FlowClass, ...])`` with classes ordered by
    ascending representative id (the first flow that landed on each
    queue).  When every class has weight 1 -- every flow on its own
    queue -- the plan reconstructs the exact stack connection-for-
    connection, which is what makes singleton aggregation bit-identical
    to the exact path by construction.
    """
    pop = flow_population(n_flows, n_queues, entries)
    # A queue's representative is its first flow: one C-speed scan of
    # the queue column per occupied queue, never a per-flow loop.
    reps = sorted(
        (pop.queues.index(q), q)
        for q, count in enumerate(pop.queue_counts) if count
    )
    return pop, [
        FlowClass(q, rep, pop.queue_counts[q])
        for rep, q in reps
    ]
