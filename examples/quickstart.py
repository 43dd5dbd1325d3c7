"""Quickstart: run one affinity experiment and read the results.

Builds the paper's system under test -- a simulated 2-processor Xeon
server with eight gigabit NICs and eight ttcp connections -- runs the
64KB bulk-transmit workload under two affinity modes, and prints the
headline comparison plus a per-bin profile.

Run:
    python examples/quickstart.py
"""

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.characterization import BIN_LABELS, STACK_BINS, characterize


def main():
    print("Running ttcp TX 64KB under no affinity and full affinity...")
    print("(each run simulates tens of milliseconds of a 2P server;")
    print(" expect a few tens of seconds of host time)\n")

    none = run_experiment(
        ExperimentConfig(direction="tx", message_size=65536, affinity="none")
    )
    full = run_experiment(
        ExperimentConfig(direction="tx", message_size=65536, affinity="full")
    )

    for result in (none, full):
        print(result.summary())
    gain = full.throughput_gbps / none.throughput_gbps - 1.0
    print("\nFull affinity gains %.1f%% throughput and cuts cost from "
          "%.2f to %.2f GHz/Gbps.\n"
          % (gain * 100, none.cost_ghz_per_gbps, full.cost_ghz_per_gbps))

    print("Where the cycles go (no affinity -> full affinity):")
    rows_none = characterize(none)
    rows_full = characterize(full)
    for bin in STACK_BINS:
        print("  %-10s %5.1f%% -> %5.1f%%   (CPI %5.2f -> %5.2f)"
              % (BIN_LABELS[bin],
                 rows_none[bin].pct_cycles * 100,
                 rows_full[bin].pct_cycles * 100,
                 rows_none[bin].cpi, rows_full[bin].cpi))

    print("\nCross-CPU traffic eliminated by affinity:")
    print("  cache-to-cache transfers: %d -> %d"
          % (none["c2c_transfers"], full["c2c_transfers"]))
    print("  reschedule IPIs:          %d -> %d"
          % (sum(none.ipis), sum(full.ipis)))

    # What the paper's tuning methodology (VTune 7.1 assistant) would
    # say about the no-affinity run:
    from repro.cpu.params import CostModel
    from repro.prof.tuning import analyze, render_advice

    print()
    print(render_advice(analyze(none, CostModel())))


if __name__ == "__main__":
    main()
