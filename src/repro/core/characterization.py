"""Table 1: baseline per-bin characterization of TCP processing.

For each (direction, transaction size) corner and each affinity mode,
computes the paper's five derived columns per functional bin:
%cycles, CPI, MPI (last-level misses per instruction), %branches and
%branches-mispredicted.
"""

from repro.cpu.events import (
    BRANCHES,
    BR_MISPREDICTS,
    CYCLES,
    INSTRUCTIONS,
    LLC_MISSES,
)

#: Table rows in the paper's order.
STACK_BINS = ("interface", "engine", "buf_mgmt", "copies", "driver",
              "locks", "timers")

BIN_LABELS = {
    "interface": "Interface",
    "engine": "Engine",
    "buf_mgmt": "Buf Mgmt",
    "copies": "Copies",
    "driver": "Driver",
    "locks": "Locks",
    "timers": "Timers",
}


class BinRow:
    """One row of Table 1 (one bin, one run)."""

    __slots__ = ("bin", "pct_cycles", "cpi", "mpi", "pct_branches",
                 "pct_mispredicted")

    def __init__(self, bin, pct_cycles, cpi, mpi, pct_branches,
                 pct_mispredicted):
        self.bin = bin
        self.pct_cycles = pct_cycles
        self.cpi = cpi
        self.mpi = mpi
        self.pct_branches = pct_branches
        self.pct_mispredicted = pct_mispredicted


def characterize(result):
    """Derive Table 1 rows from one run.

    Returns ``{bin_or_"overall": BinRow}``.
    """
    total_cycles = result.stack_total(CYCLES)
    rows = {}
    for bin in STACK_BINS:
        vec = result.bin_vector(bin)
        rows[bin] = _row(bin, vec, total_cycles)
    overall = [result.stack_total(i) for i in range(len(result.bin_vector("engine")))]
    rows["overall"] = _row("overall", overall, total_cycles)
    return rows


def _row(bin, vec, total_cycles):
    cycles, instr = vec[CYCLES], vec[INSTRUCTIONS]
    branches, mispred = vec[BRANCHES], vec[BR_MISPREDICTS]
    llc = vec[LLC_MISSES]
    return BinRow(
        bin,
        pct_cycles=cycles / float(total_cycles) if total_cycles else 0.0,
        cpi=cycles / float(instr) if instr else 0.0,
        mpi=llc / float(instr) if instr else 0.0,
        pct_branches=branches / float(instr) if instr else 0.0,
        pct_mispredicted=mispred / float(branches) if branches else 0.0,
    )


def characterization_assertions(rows_none, rows_full):
    """The qualitative Table 1 claims, as checkable predicates.

    Returns ``{claim: bool}``; ``benchmarks/test_table1_baseline.py``
    asserts the claims its Table 1 corners share with this list.
    """
    return {
        "engine share is 15-35% of cycles": (
            0.15 <= rows_none["engine"].pct_cycles <= 0.35
            and 0.15 <= rows_full["engine"].pct_cycles <= 0.35
        ),
        "overall CPI improves with affinity": (
            rows_full["overall"].cpi < rows_none["overall"].cpi
        ),
        "overall MPI improves with affinity": (
            rows_full["overall"].mpi < rows_none["overall"].mpi
        ),
        "locks CPI is poor (>8)": (
            rows_none["locks"].cpi > 8.0 or rows_none["locks"].pct_cycles < 0.01
        ),
        "branch misprediction stays low (<2.5%)": (
            rows_none["overall"].pct_mispredicted < 0.025
            and rows_full["overall"].pct_mispredicted < 0.025
        ),
        "branches are 10-18% of instructions": (
            0.10 <= rows_none["overall"].pct_branches <= 0.18
        ),
    }
