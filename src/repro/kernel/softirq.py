"""Softirqs (bottom halves).

A hard interrupt's top half does the minimum and raises a softirq on
*its own CPU*; the machine runs pending softirqs on that same CPU as
soon as the current activity reaches a scheduling point.  This
same-CPU discipline is the 2.4 behaviour the paper leans on: "bottom
halves/tasklets of interrupt handlers are usually scheduled on the
same processor where their corresponding top halves had previously
run", which is what lets interrupt affinity drag the rest of the
stack's execution (and, via wakeups, the process) to the NIC's CPU.
"""

#: Softirq indices (subset of the 2.4 set that matters here).
HI_SOFTIRQ = 0
NET_TX_SOFTIRQ = 1
NET_RX_SOFTIRQ = 2
TIMER_SOFTIRQ = 3

N_SOFTIRQS = 4

SOFTIRQ_NAMES = ("HI", "NET_TX", "NET_RX", "TIMER")


class SoftirqTable:
    """Registered softirq actions: index -> generator factory ``f(ctx)``."""

    __slots__ = ("_actions",)

    def __init__(self):
        self._actions = [None] * N_SOFTIRQS

    def register(self, index, factory):
        if not 0 <= index < N_SOFTIRQS:
            raise ValueError("softirq index %r out of range" % index)
        self._actions[index] = factory

    def action(self, index):
        factory = self._actions[index]
        if factory is None:
            raise RuntimeError(
                "softirq %s raised but no action registered"
                % SOFTIRQ_NAMES[index]
            )
        return factory


#: All 2**N_SOFTIRQS decode results, precomputed: the pending mask is
#: decoded on every softirq pass, and the table turns that into a tuple
#: lookup.
_PENDING_ORDER = tuple(
    tuple(i for i in range(N_SOFTIRQS) if (mask >> i) & 1)
    for mask in range(1 << N_SOFTIRQS)
)


def pending_order(pending_mask):
    """Softirq indices set in ``pending_mask``, in priority order."""
    return _PENDING_ORDER[pending_mask]
