"""The simulated clock rate.

All simulated time in this project is an integer number of CPU cycles
of the system under test.  The paper's SUT runs 2 GHz Pentium 4 Xeons,
so the default clock matches it; experiments may override the
frequency through their machine configuration.
"""

#: Clock of the paper's system under test (2 GHz Pentium 4 Xeon MP).
CYCLES_PER_SECOND_2GHZ = 2_000_000_000
