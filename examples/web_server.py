"""Extension: connection churn and the fast-path projection claim.

The paper (section 4): "we can partition any general workload into
'network fast paths', 'network connection setup/teardown' and
'application processing' ... The studies done here of affinity
benefits will project directly to the portions involving network fast
paths."

This example runs a web-server-shaped workload (connection setup, a
few request/response exchanges with application processing, teardown)
and sweeps the application-processing weight.  As application cycles
crowd out the network fast path, the measured affinity gain shrinks.
Beside each measured gain it prints the paper's projection
(:mod:`repro.core.partition`): the bulk-transfer (ttcp) cost reduction
applied to the no-affinity run's fast-path share of cycles alone.

Run:
    python examples/web_server.py
"""

from repro.apps.webserve import WebServerWorkload
from repro.core.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.core.modes import apply_affinity
from repro.core.partition import partition_cycles, projected_gain
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.stack import NetworkStack

MS = 2_000_000
RESPONSE = 16384


def run(affinity, app_instructions, seed=12):
    machine = Machine(n_cpus=2, seed=seed)
    stack = NetworkStack(machine, NetParams(), n_connections=8,
                         mode="web", message_size=RESPONSE)
    workload = WebServerWorkload(machine, stack, RESPONSE,
                                 app_instructions=app_instructions)
    tasks = workload.spawn_all()
    apply_affinity(machine, stack, tasks, affinity)
    machine.start()
    stack.start_peers()
    machine.run_for(14 * MS)
    machine.reset_measurement()
    machine.run_for(18 * MS)
    result = ExperimentResult.from_machine(
        ExperimentConfig(workload="web", message_size=RESPONSE,
                         affinity=affinity, seed=seed),
        machine, stack, workload,
    )
    rate = workload.requests_per_second(machine.window_cycles, machine.hz)
    return rate, result


def fast_path_gain():
    """The ttcp cost reduction of full affinity at the response size:
    the fast path's cycles saved per bit moved."""
    cost = {
        mode: run_experiment(ExperimentConfig(
            direction="tx", message_size=RESPONSE, affinity=mode,
            warmup_ms=14, measure_ms=18,
        )).cost_ghz_per_gbps
        for mode in ("none", "full")
    }
    return 1.0 - cost["full"] / cost["none"]


def main():
    gain_fast = fast_path_gain()
    print("Web-server workload: 16KB responses, 8 requests/connection,")
    print("sweeping application processing per request.  ttcp TX 16KB:")
    print("full affinity costs %.1f%% fewer cycles per bit.\n"
          % (gain_fast * 100))
    print("%-20s %11s %11s %9s %9s %10s" % (
        "app instr/request", "none req/s", "full req/s", "measured",
        "fast path", "projected"))
    for app in (2_000, 40_000, 160_000):
        none, none_result = run("none", app)
        full, _ = run("full", app)
        partition = partition_cycles(none_result)
        print("%-20d %11.0f %11.0f %+8.1f%% %8.1f%% %+9.1f%%" % (
            app, none, full, (full / none - 1.0) * 100,
            partition.fast_path * 100,
            projected_gain(partition, gain_fast) * 100))
    print("\nAs application processing grows, the network fast path is a")
    print("smaller share of each request and the affinity gain shrinks --")
    print("the paper's projection argument, quantified.")


if __name__ == "__main__":
    main()
