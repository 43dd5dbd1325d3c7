"""Exact per-(CPU, function) event accounting.

This is the sink every :class:`~repro.cpu.core.Cpu` charges into.  It
accumulates the full event vector per (cpu index, function spec) pair.
The aggregations the paper's tables need -- per functional bin, per
function, per CPU, with or without the measurement of the idle loop --
live once in :class:`Accounting`, over ``rows()``, and serve both this
sink and the compiled engine's
:class:`~repro.prof.slotaccounting.ArrayAccounting`.

``record`` is the hottest non-cache function in the simulator; it takes
the event values as positional scalars (not a list) to avoid building
a temporary per charge.
"""

from repro.cpu.events import N_EVENTS, zero_counts
from repro.cpu.function import BINS


class Accounting:
    """The paper's aggregations over an accounting sink's ``rows()``.

    A subclass supplies the layout: ``record``, ``reset`` and
    ``rows()``, which yields ``((cpu_index, spec), vector)`` pairs in
    first-charge order.
    """

    __slots__ = ()

    def per_function(self, cpu_index=None, include_idle=False):
        """Aggregate vectors by function name.

        Returns ``{fn_name: (spec, vector)}``.  ``cpu_index`` restricts
        to one CPU (Table 4's per-CPU views); the idle loop is excluded
        unless requested.
        """
        out = {}
        for (cpu, spec), vec in self.rows():
            if cpu_index is not None and cpu != cpu_index:
                continue
            if not include_idle and spec.bin == "other":
                continue
            entry = out.get(spec.name)
            if entry is None:
                out[spec.name] = (spec, list(vec))
            else:
                row = entry[1]
                for i in range(N_EVENTS):
                    row[i] += vec[i]
        return out

    def per_bin(self, cpu_index=None):
        """Aggregate vectors by functional bin.

        Returns ``{bin: vector}`` over the paper's seven bins (the
        ``other`` bin -- idle loop, bookkeeping -- is reported too but
        excluded from Table 1 style percentages by the callers).
        """
        out = {name: zero_counts() for name in BINS}
        for (cpu, spec), vec in self.rows():
            if cpu_index is not None and cpu != cpu_index:
                continue
            row = out[spec.bin]
            for i in range(N_EVENTS):
                row[i] += vec[i]
        return out

    def total(self, include_idle=False):
        """Event vector summed over everything."""
        out = zero_counts()
        for (_, spec), vec in self.rows():
            if not include_idle and spec.bin == "other":
                continue
            for i in range(N_EVENTS):
                out[i] += vec[i]
        return out

    def cpus(self):
        """Sorted CPU indices present in the data."""
        return sorted({cpu for (cpu, _), _ in self.rows()})


class ExactAccounting(Accounting):
    """Accumulates event vectors keyed by (cpu index, function spec)."""

    def __init__(self):
        self._data = {}
        self.enabled = True

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def record(
        self,
        cpu_index,
        spec,
        cycles,
        instructions,
        branches,
        mispredicts,
        llc_misses,
        l2_hits,
        l3_hits,
        tc_misses,
        itlb_walks,
        dtlb_walks,
        machine_clears,
    ):
        """Accumulate one charge's events (see :meth:`Cpu.charge`)."""
        if not self.enabled:
            return
        key = (cpu_index, spec)
        row = self._data.get(key)
        if row is None:
            row = zero_counts()
            self._data[key] = row
        row[0] += cycles
        row[1] += instructions
        row[2] += branches
        row[3] += mispredicts
        row[4] += llc_misses
        row[5] += l2_hits
        row[6] += l3_hits
        row[7] += tc_misses
        row[8] += itlb_walks
        row[9] += dtlb_walks
        row[10] += machine_clears

    def reset(self):
        """Drop all accumulated data (start of the measurement window)."""
        self._data.clear()

    def rows(self):
        """Iterate ``((cpu_index, spec), vector)`` pairs."""
        return self._data.items()
