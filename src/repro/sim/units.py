"""Unit conversions between cycles, seconds, bits and bytes.

All simulated time in this project is an integer number of CPU cycles
of the system under test.  The paper's SUT runs 2 GHz Pentium 4 Xeons,
so the default conversion constant matches that clock; experiments may
override the frequency through their machine configuration.
"""

#: Clock of the paper's system under test (2 GHz Pentium 4 Xeon MP).
CYCLES_PER_SECOND_2GHZ = 2_000_000_000

BITS_PER_BYTE = 8


def bytes_to_bits(n_bytes):
    """Return the number of bits in ``n_bytes`` bytes."""
    return n_bytes * BITS_PER_BYTE


def cycles_to_seconds(cycles, hz=CYCLES_PER_SECOND_2GHZ):
    """Convert a cycle count to seconds at clock ``hz``."""
    return cycles / float(hz)


def gbps(bytes_transferred, cycles, hz=CYCLES_PER_SECOND_2GHZ):
    """Throughput in gigabits/second for ``bytes_transferred`` over ``cycles``.

    Returns 0.0 when no time has elapsed, which keeps callers that
    compute throughput on empty windows well defined.
    """
    if cycles <= 0:
        return 0.0
    seconds = cycles_to_seconds(cycles, hz)
    return bytes_to_bits(bytes_transferred) / seconds / 1e9


def mbps(bytes_transferred, cycles, hz=CYCLES_PER_SECOND_2GHZ):
    """Throughput in megabits/second (see :func:`gbps`)."""
    return gbps(bytes_transferred, cycles, hz) * 1000.0
