"""Extension benches: the paper's future-work workloads.

* iSCSI-style target (section 8: "promising performance gains ...
  over iSCSI/TCP") -- full affinity must improve IOPS;
* web-style connection churn (section 4's workload partitioning) --
  affinity helps, and the gain shrinks as application processing
  dilutes the fast-path share.
"""


from repro.analysis.tables import format_pct as pct
from repro.apps.iscsi import IscsiTargetWorkload
from repro.apps.webserve import WebServerWorkload
from repro.core.modes import apply_affinity
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.stack import NetworkStack

from conftest import write_artifact

MS = 2_000_000


def run_iscsi(affinity, block=8192, seed=8):
    machine = Machine(n_cpus=2, seed=seed)
    stack = NetworkStack(machine, NetParams(), n_connections=8,
                         mode="iscsi", message_size=block)
    workload = IscsiTargetWorkload(machine, stack, block)
    tasks = workload.spawn_all()
    apply_affinity(machine, stack, tasks, affinity)
    machine.start()
    stack.start_peers()
    machine.run_for(14 * MS)
    machine.reset_measurement()
    machine.run_for(18 * MS)
    return workload.iops(machine.window_cycles, machine.hz)


def run_web(affinity, app_instructions, seed=12):
    machine = Machine(n_cpus=2, seed=seed)
    stack = NetworkStack(machine, NetParams(), n_connections=8,
                         mode="web", message_size=16384)
    workload = WebServerWorkload(machine, stack, 16384,
                                 app_instructions=app_instructions)
    tasks = workload.spawn_all()
    apply_affinity(machine, stack, tasks, affinity)
    machine.start()
    stack.start_peers()
    machine.run_for(14 * MS)
    machine.reset_measurement()
    machine.run_for(18 * MS)
    return workload.requests_per_second(machine.window_cycles, machine.hz)


def test_iscsi_affinity_gain(benchmark, artifacts_dir):
    def sweep():
        return {mode: run_iscsi(mode) for mode in ("none", "irq", "full")}

    iops = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = "\n".join("%-5s %8.0f IOPS" % (m, v) for m, v in iops.items())
    gains = {m: iops[m] / iops["none"] - 1.0 for m in ("irq", "full")}
    write_artifact(artifacts_dir, "extension_iscsi.txt", text, [
        ("%s-affinity IOPS gain" % m, "gains (sec. 8)", pct(gains[m]))
        for m in gains
    ])
    assert gains["full"] > 0.15
    assert gains["irq"] > 0.10


def test_web_gain_dilution(benchmark, artifacts_dir):
    def sweep():
        rows = {}
        for app in (2_000, 160_000):
            none = run_web("none", app)
            full = run_web("full", app)
            rows[app] = (none, full, full / none - 1.0)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = "\n".join(
        "app=%-7d none=%7.0f full=%7.0f gain=%+.1f%%"
        % (app, none, full, gain * 100)
        for app, (none, full, gain) in rows.items()
    )
    write_artifact(artifacts_dir, "extension_web.txt", text, [
        ("affinity gain, app 2000 vs 160000 instr", "dilutes (sec. 4)",
         "%s vs %s" % (pct(rows[2_000][2]), pct(rows[160_000][2]))),
    ])
    # Affinity helps the light-app workload materially...
    assert rows[2_000][2] > 0.10
    # ...and application processing dilutes the gain (the projection).
    assert rows[160_000][2] < rows[2_000][2]
