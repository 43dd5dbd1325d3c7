"""Ablations: design choices DESIGN.md calls out, beyond the paper.

Each ablation switches off one modelled mechanism and shows its
contribution to the affinity story:

* **wake steering off** -- without the scheduler's steer-toward-waker
  behaviour, interrupt affinity alone loses part of its benefit (the
  paper's "interrupt affinity indirectly leads to process affinity"
  depends on it);
* **4-processor machine** -- the paper's mentioned-but-not-shown 4P
  result: the relative gain from affinity grows because default
  interrupt routing bottlenecks CPU0 harder;
* **interrupt coalescing sweep** -- fewer frames per interrupt means
  more machine clears per byte.
"""

from repro.analysis.tables import format_pct as pct
from repro.apps.ttcp import TtcpWorkload
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.modes import apply_affinity
from repro.kernel.machine import Machine
from repro.kernel.scheduler import SchedulerParams
from repro.net.params import NetParams
from repro.net.stack import NetworkStack

from conftest import write_artifact

MS = 2_000_000


def run_custom(affinity, sched_params=None, net_params=None, n_cpus=2,
               seed=3, message_size=65536):
    machine = Machine(n_cpus=n_cpus, sched_params=sched_params, seed=seed)
    stack = NetworkStack(
        machine, net_params or NetParams(), n_connections=8, mode="tx",
        message_size=message_size,
    )
    workload = TtcpWorkload(machine, stack, message_size)
    tasks = workload.spawn_all()
    apply_affinity(machine, stack, tasks, affinity)
    machine.start()
    machine.run_for(14 * MS)
    machine.reset_measurement()
    machine.run_for(18 * MS)
    gbps = workload.throughput_gbps(machine.window_cycles, machine.hz)
    return machine, gbps


def test_wake_steering_drives_irq_affinity_gain(benchmark, artifacts_dir):
    """IRQ-only affinity relies on the scheduler aligning processes
    with their NIC's CPU; without steering the alignment is chance."""

    def ablate():
        rows = {}
        for steering in (True, False):
            params = SchedulerParams(wake_steering=steering)
            _, none_gbps = run_custom("none", sched_params=params)
            _, irq_gbps = run_custom("irq", sched_params=params)
            rows[steering] = irq_gbps / none_gbps - 1.0
        return rows

    rows = benchmark.pedantic(ablate, rounds=1, iterations=1)
    text = "\n".join(
        "wake_steering=%-5s irq-affinity gain %+.1f%%" % (k, v * 100)
        for k, v in rows.items()
    )
    write_artifact(artifacts_dir, "ablation_wake_steering.txt", text, [
        ("IRQ-affinity gain, steering on vs off", "on > off (sec. 5)",
         "%s vs %s" % (pct(rows[True]), pct(rows[False]))),
    ])
    # Steering should account for a meaningful part of the IRQ gain.
    assert rows[True] > rows[False]


def test_four_processor_bottleneck(benchmark, artifacts_dir):
    """Paper section 5: the 4P no-affinity run is dominated by CPU0's
    interrupt bottleneck, so the relative affinity gain grows."""

    def ablate():
        gains = {}
        utils = {}
        for n_cpus in (2, 4):
            none_m, none_gbps = run_custom("none", n_cpus=n_cpus)
            _, full_gbps = run_custom("full", n_cpus=n_cpus)
            gains[n_cpus] = full_gbps / none_gbps - 1.0
            utils[n_cpus] = [
                none_m.utilization(i) for i in range(n_cpus)
            ]
        return gains, utils

    (gains, utils) = benchmark.pedantic(ablate, rounds=1, iterations=1)
    text = "affinity gain: 2P %+.1f%%, 4P %+.1f%%\n4P no-aff utilization: %s" % (
        gains[2] * 100, gains[4] * 100,
        " ".join("%.0f%%" % (u * 100) for u in utils[4]),
    )
    write_artifact(artifacts_dir, "ablation_4p.txt", text, [
        ("affinity gain, 2P vs 4P", "grows on 4P (sec. 5)",
         "%s vs %s" % (pct(gains[2]), pct(gains[4]))),
        ("4P no-aff utilization, CPU0 / lowest", "CPU0 saturated",
         "%s / %s" % (pct(utils[4][0]), pct(min(utils[4])))),
    ])
    assert gains[4] > gains[2]
    # Without affinity the extra processors cannot be fully fed while
    # CPU0 is saturated with interrupt work.
    assert min(utils[4]) < 0.95
    assert utils[4][0] > 0.99


def test_dynamic_placement_progression(benchmark, artifacts_dir, cache):
    """Extension: none < rotate < irq ~ rss (the 2.6 rotation scheme
    from the paper's related work, and the RSS steering its conclusion
    anticipates)."""
    def sweep():
        out = {}
        for mode in ("none", "rotate", "irq", "rss"):
            out[mode] = run_experiment(
                ExperimentConfig(direction="tx", message_size=65536,
                                 affinity=mode, warmup_ms=14,
                                 measure_ms=18),
                cache=cache,
            ).throughput_gbps
        return out

    tput = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = "\n".join("%-7s %.2f Gb/s" % (m, v) for m, v in tput.items())
    write_artifact(artifacts_dir, "ablation_dynamic_placement.txt", text, [
        ("Gb/s none < rotate < irq", "rotate between (sec. 7)",
         "%.2f < %.2f < %.2f" % (tput["none"], tput["rotate"], tput["irq"])),
        ("rss / irq throughput", "~1 (sec. 8)",
         pct(tput["rss"] / tput["irq"])),
    ])
    assert tput["none"] < tput["rotate"] < tput["irq"] * 1.02
    # RSS reaches (approximately) static-alignment throughput.
    assert tput["rss"] > 0.95 * tput["irq"]


def test_coalescing_controls_interrupt_rate(benchmark, artifacts_dir):
    def ablate():
        rows = {}
        for frames in (2, 4, 8, 16, 32, 64):
            machine, gbps = run_custom(
                "full", net_params=NetParams(coalesce_frames=frames))
            rows[frames] = (machine.procstat.total_device_interrupts(), gbps)
        return rows

    rows = benchmark.pedantic(ablate, rounds=1, iterations=1)
    text = "\n".join("coalesce_frames=%-3d irqs=%-6d gbps=%.2f"
                     % (frames, irqs, gbps)
                     for frames, (irqs, gbps) in rows.items())
    # More coalescing, fewer interrupts for comparable work.
    rates = {frames: irqs / gbps for frames, (irqs, gbps) in rows.items()}
    write_artifact(artifacts_dir, "ablation_coalescing.txt", text, [
        ("IRQs per Gb/s, %d vs %d frames" % (f, 2 * f), "fewer",
         "%.0f vs %.0f" % (rates[f], rates[2 * f])) for f in (2, 8, 32)
    ])
    for frames in (2, 8, 32):
        assert rows[frames][1] > 1.0
        assert rates[2 * frames] < rates[frames] * 1.05
