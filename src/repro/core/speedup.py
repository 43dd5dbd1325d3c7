"""Table 3: Amdahl decomposition of the no->full affinity improvement.

The paper derives, per functional bin and per event (cycles, LLC
misses, machine clears), the share of the *total* improvement that the
bin contributes:

    %improvement_b = (e_b^no / e_total^no) * (1 - e_b^full / e_b^no)

with all event counts normalized to work done (per bit transferred) so
throughput differences cancel.  Algebraically this is
``(x_b - y_b) / x_total`` where x and y are per-bit event rates in the
two modes -- which is how we compute it.
"""

from repro.cpu.events import CYCLES, LLC_MISSES, MACHINE_CLEARS
from repro.core.characterization import STACK_BINS


class ImprovementRow:
    """Per-bin % improvements going no-affinity -> full-affinity."""

    __slots__ = ("bin", "pct_time", "cpi", "mpi", "cycles", "llc", "clears")

    def __init__(self, bin, pct_time, cpi, mpi, cycles, llc, clears):
        self.bin = bin
        #: Baseline (no affinity) characteristics, for reference.
        self.pct_time = pct_time
        self.cpi = cpi
        self.mpi = mpi
        #: Improvements (fraction of the *total* baseline event count).
        self.cycles = cycles
        self.llc = llc
        self.clears = clears


def _per_bit(result, bin, event):
    return result.events_per_bit(bin, event)


def _total_per_bit(result, event):
    bits = result.work_bits
    if not bits:
        return 0.0
    return result.stack_total(event) / float(bits)


def improvement(result_none, result_full, bin, event):
    """One cell of Table 3: bin's contribution to total improvement."""
    x = _per_bit(result_none, bin, event)
    y = _per_bit(result_full, bin, event)
    total = _total_per_bit(result_none, event)
    if total <= 0:
        return 0.0
    return (x - y) / total


def improvement_table(result_none, result_full):
    """All Table 3 rows; returns ``{bin: ImprovementRow}`` plus an
    ``overall`` entry whose improvements sum the bins."""
    from repro.core.characterization import characterize

    baseline = characterize(result_none)
    rows = {}
    totals = dict(cycles=0.0, llc=0.0, clears=0.0)
    for bin in STACK_BINS:
        cyc = improvement(result_none, result_full, bin, CYCLES)
        llc = improvement(result_none, result_full, bin, LLC_MISSES)
        clr = improvement(result_none, result_full, bin, MACHINE_CLEARS)
        base = baseline[bin]
        rows[bin] = ImprovementRow(
            bin, base.pct_cycles, base.cpi, base.mpi, cyc, llc, clr
        )
        totals["cycles"] += cyc
        totals["llc"] += llc
        totals["clears"] += clr
    base = baseline["overall"]
    rows["overall"] = ImprovementRow(
        "overall", 1.0, base.cpi, base.mpi,
        totals["cycles"], totals["llc"], totals["clears"],
    )
    return rows
