"""Table 2: spinlock implementation and its branch arithmetic.

The paper's Table 2 disassembles the Linux spinlock to explain an
apparent anomaly: under full affinity the lock bin shows a *higher*
branch-misprediction ratio.  The resolution is that the contended spin
loop executes one branch per polling iteration, so lock branch counts
scale with contention; full affinity removes the contention, the
branch count collapses (to 5-10% of the no-affinity count in the
paper), and the one unavoidable loop-exit misprediction looms large in
the now-tiny denominator.

This module reproduces both halves: the static implementation (as
modelled in :mod:`repro.kernel.locks`) and the dynamic comparison.
"""

from repro.cpu.events import BRANCHES, BR_MISPREDICTS

#: The paper's Table 2, as structured data (address, instruction,
#: comment), matching the modelled cost constants in kernel.locks.
SPINLOCK_DISASSEMBLY = (
    ("c02bd319", "lock decb 0x2c(%ebx)",
     "atomic decrement of 'lock'; lock=1 in unlocked state"),
    ("", "js c02c2c0e <.text.lock.tcp>",
     "if already held by another processor, jump to the spin loop"),
    ("", "...", "successfully grabbed lock, continue on caller's path"),
    ("c02c2c0e", "cmpb $0x0,0x2c(%ebx)", "check if 'lock' value is 0"),
    ("", "repz nop", "translates to a PAUSE"),
    ("", "jle c02c2c0e", "if still owned, spin (one branch per poll)"),
    ("", "jmp c02bd319", "lock looks free: retry the atomic grab"),
)


class LockComparison:
    """Dynamic lock-bin behaviour, no-affinity vs full-affinity."""

    def __init__(self, result_none, result_full):
        self.none_vec = result_none.bin_vector("locks")
        self.full_vec = result_full.bin_vector("locks")
        self.none_bits = result_none.work_bits
        self.full_bits = result_full.work_bits
        self.none_locks = result_none.locks
        self.full_locks = result_full.locks

    def branches_per_bit(self, mode):
        vec, bits = (
            (self.none_vec, self.none_bits)
            if mode == "none"
            else (self.full_vec, self.full_bits)
        )
        return vec[BRANCHES] / float(bits) if bits else 0.0

    def branch_collapse_ratio(self):
        """full-affinity lock branches as a fraction of no-affinity's
        (the paper reports 5-10%)."""
        none = self.branches_per_bit("none")
        if none <= 0:
            return 1.0
        return self.branches_per_bit("full") / none

    def mispredict_ratio(self, mode):
        vec = self.none_vec if mode == "none" else self.full_vec
        return (
            vec[BR_MISPREDICTS] / float(vec[BRANCHES]) if vec[BRANCHES] else 0.0
        )

    def contention(self, mode):
        """Aggregate contended-acquisition fraction across all locks."""
        locks = self.none_locks if mode == "none" else self.full_locks
        acq = sum(rec["acquisitions"] for rec in locks.values())
        contended = sum(rec["contended"] for rec in locks.values())
        return contended / float(acq) if acq else 0.0

    def spin_cycles_per_bit(self, mode):
        locks = self.none_locks if mode == "none" else self.full_locks
        bits = self.none_bits if mode == "none" else self.full_bits
        spin = sum(rec["spin_cycles"] for rec in locks.values())
        return spin / float(bits) if bits else 0.0

    def assertions(self):
        """The paper's Table 2 claims."""
        return {
            "lock branches collapse under full affinity": (
                self.branch_collapse_ratio() < 0.5
            ),
            "contention drops under full affinity": (
                self.contention("full") <= self.contention("none")
            ),
            "mispredict ratio rises as branches collapse": (
                self.mispredict_ratio("full") >= self.mispredict_ratio("none")
            ),
            "spin time shrinks under full affinity": (
                self.spin_cycles_per_bit("full")
                <= self.spin_cycles_per_bit("none")
            ),
        }
