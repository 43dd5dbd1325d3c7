"""Performance-monitoring event identifiers.

Counters are stored as flat lists indexed by these constants; the
profiling layer aggregates them per (CPU, kernel function) pair.  The
set mirrors the events the paper studies in Table 1 and Figure 5.
"""

CYCLES = 0
INSTRUCTIONS = 1
BRANCHES = 2
BR_MISPREDICTS = 3
LLC_MISSES = 4
L2_HITS = 5
L3_HITS = 6
TC_MISSES = 7
ITLB_WALKS = 8
DTLB_WALKS = 9
MACHINE_CLEARS = 10

N_EVENTS = 11

#: Oprofile skid sampling period, in cycles: every time a CPU's charged
#: cycles cross a multiple of it, the running function becomes the
#: attribution target for asynchronous events (``skid_spec``).  Coprime
#: to the scheduler quanta so samples do not lock to them.  Both
#: engines use this one value; the compiled one gets it through
#: ``build_state``.
SKID_PERIOD = 1999

EVENT_NAMES = (
    "cycles",
    "instructions",
    "branches",
    "br_mispredicts",
    "llc_misses",
    "l2_hits",
    "l3_hits",
    "tc_misses",
    "itlb_walks",
    "dtlb_walks",
    "machine_clears",
)


def zero_counts():
    """A fresh all-zero event vector."""
    return [0] * N_EVENTS


def event_index(name):
    """Map an event name (as printed in reports) to its index."""
    try:
        return EVENT_NAMES.index(name)
    except ValueError:
        raise KeyError("unknown event %r (known: %s)" % (name, ", ".join(EVENT_NAMES)))
