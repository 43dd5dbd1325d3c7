"""Workload partitioning: fast path vs setup/teardown vs application.

The paper's section 4: "we can partition any general workload into
'network fast paths', 'network connection setup/teardown' and
'application processing' ... The studies done here of affinity
benefits will project directly to the portions involving network fast
paths."

This module computes that three-way partition from a run's
per-function accounting, and evaluates the projection: given a
fast-path affinity gain (e.g. from the ttcp experiments), predict the
gain of a mixed workload from its fast-path share, and compare with
the measured gain.
"""

from repro.cpu.events import CYCLES

#: Functions belonging to connection setup/teardown rather than the
#: established-connection fast path.
SETUP_FUNCTIONS = frozenset((
    "tcp_v4_conn_request",
    "tcp_v4_syn_recv_sock",
    "tcp_create_openreq_child",
    "tcp_fin",
    "inet_csk_destroy_sock",
    "sys_accept",
))

#: Functions that are application processing (outside the stack).
APPLICATION_FUNCTIONS = frozenset((
    "application",
))


class Partition:
    """Cycle shares of the paper's three workload components."""

    __slots__ = ("fast_path", "setup", "application", "other_cycles",
                 "total_cycles")

    def __init__(self, fast_path, setup, application, other_cycles,
                 total_cycles):
        self.fast_path = fast_path
        self.setup = setup
        self.application = application
        self.other_cycles = other_cycles
        self.total_cycles = total_cycles

    def shares(self):
        return {
            "fast_path": self.fast_path,
            "setup": self.setup,
            "application": self.application,
        }

    def __repr__(self):
        return (
            "Partition(fast=%.1f%%, setup=%.1f%%, app=%.1f%%)"
            % (self.fast_path * 100, self.setup * 100,
               self.application * 100)
        )


def partition_cycles(result):
    """Partition one run's cycles into the paper's three components.

    Idle cycles are excluded; scheduler/interrupt plumbing counts as
    fast path (it scales with packet activity).
    """
    fast = setup = app = other = 0
    for name, (bin, vec) in result.function_events().items():
        cycles = vec[CYCLES]
        if name in SETUP_FUNCTIONS:
            setup += cycles
        elif name in APPLICATION_FUNCTIONS:
            app += cycles
        elif bin == "other":
            other += cycles
        else:
            fast += cycles
    total = fast + setup + app
    if total == 0:
        raise ValueError("run has no attributable cycles")
    return Partition(
        fast_path=fast / float(total),
        setup=setup / float(total),
        application=app / float(total),
        other_cycles=other,
        total_cycles=total,
    )


def projected_gain(partition, fast_path_gain):
    """The paper's projection: only the fast-path share speeds up.

    If the fast path gets ``fast_path_gain`` cheaper (fractional cycle
    reduction at equal work) while setup and application are
    unaffected, the whole workload's throughput gain follows from the
    reduced total time per unit of work.
    """
    f = partition.fast_path
    reduced = f * (1.0 - fast_path_gain) + (1.0 - f)
    if reduced <= 0:
        raise ValueError("gain out of range")
    return 1.0 / reduced - 1.0
