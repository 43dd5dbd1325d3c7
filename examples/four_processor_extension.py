"""Extension: the 4-processor run the paper mentions but doesn't show.

Section 5 of the paper: "We also ran similar tests on 4P systems (not
shown here) and observed even better improvement brought on by
affinity.  However, this has more to do with the imbalance of workload
rather than the intrinsic impact of affinity.  Without affinity, the
bottleneck that CPU0 imposes on a 4P system becomes even more
pronounced."

This example reproduces that claim on the simulator: with all eight
NIC interrupts routed to CPU0 of a 4P machine, CPU0 saturates while
the other processors idle, so the relative gain from distributing
interrupts exceeds the 2P gain.

Run:
    python examples/four_processor_extension.py
"""

from repro.core.experiment import ExperimentConfig, run_experiment


def run(n_cpus, affinity):
    return run_experiment(ExperimentConfig(
        direction="tx",
        message_size=65536,
        affinity=affinity,
        n_cpus=n_cpus,
        warmup_ms=14,
        measure_ms=18,
    ))


def main():
    print("TX 64KB, no affinity vs full affinity, on 2P and 4P machines\n")
    rows = {}
    for n_cpus in (2, 4):
        none = run(n_cpus, "none")
        full = run(n_cpus, "full")
        gain = full.throughput_gbps / none.throughput_gbps - 1.0
        rows[n_cpus] = (none, full, gain)
        print("%dP:  none %6.0f Mb/s  (util %s)" % (
            n_cpus, none.throughput_mbps,
            "/".join("%.0f%%" % (u * 100) for u in none.per_cpu_utilization)))
        print("     full %6.0f Mb/s  (util %s)   gain %+.1f%%\n" % (
            full.throughput_mbps,
            "/".join("%.0f%%" % (u * 100) for u in full.per_cpu_utilization),
            gain * 100))

    gain2, gain4 = rows[2][2], rows[4][2]
    print("Affinity gain: %.1f%% on 2P vs %.1f%% on 4P" % (
        gain2 * 100, gain4 * 100))
    if gain4 > gain2:
        print("-> as the paper observed, the 4P gain is larger -- CPU0's "
              "interrupt bottleneck leaves the extra processors idle "
              "without affinity.")
    none4 = rows[4][0]
    idle_cpus = sum(1 for u in none4.per_cpu_utilization if u < 0.7)
    print("On the 4P no-affinity run, %d of 4 CPUs sit under 70%% busy."
          % idle_cpus)


if __name__ == "__main__":
    main()
