"""The body of one experiment cell: build, run and measure a machine.

This is the only module of :mod:`repro.core` that imports the
simulator (kernel, CPU and memory models, network stack, workloads,
fault injection, tracer).  :func:`repro.core.experiment.run_experiment`
imports it when it runs a cell, so a process that only builds configs,
reads results, replays a run or renders a report never loads the
simulator; :meth:`repro.core.parallel.SweepRunner._run_parallel`
imports it before its pool forks, so every worker inherits it.
"""

import sys
import time

from repro.apps.iscsi import IscsiTargetWorkload
from repro.apps.ttcp import TtcpWorkload
from repro.apps.webserve import WebServerWorkload
from repro.core.experiment import ExperimentResult
from repro.core.modes import apply_affinity
from repro.cpu.params import CostModel, cpu_params_from_overrides
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultInjector
from repro.kernel.machine import Machine
from repro.kernel.scheduler import SchedulerParams
from repro.net.params import NetParams
from repro.net.stack import NetworkStack
from repro.trace.analyses import summarize
from repro.trace.tracer import Tracer

MS = 2_000_000  # cycles per millisecond at 2 GHz


def _peak_rss_kb():
    """Peak resident set of this process in KB, or None if unknown."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


def simulate(config):
    """Build, run and measure one cell's machine (no caching)."""
    wall_t0 = time.perf_counter()
    machine = Machine(
        n_cpus=config.n_cpus,
        cpu_params=(
            cpu_params_from_overrides(config.cpu_overrides)
            if config.cpu_overrides else None
        ),
        costs=CostModel(**config.cost_overrides),
        sched_params=SchedulerParams(),
        seed=config.seed,
    )
    stack_mode = {
        "ttcp": config.direction,
        "iscsi": "iscsi",
        "web": "web",
    }[config.workload]
    plan = config.faults
    net_kwargs = {}
    if plan is not None and plan.rto_ms is not None:
        net_kwargs["rto_ms"] = plan.rto_ms
    if config.n_queues > 1:
        # A multi-queue NIC is a 10GbE-class device (RSS and Flow
        # Director shipped with 10GbE): modelling it at 1 Gb/s would
        # saturate the wire on a single CPU and make the scaling
        # question -- the whole point of multiple queues -- vacuous.
        net_kwargs["wire_gbps"] = 10.0
    # Perturbation overrides win over the derived defaults above.
    net_kwargs.update(config.net_overrides)
    # The "toe" affinity mode rides the (already-keyed) affinity field:
    # it flips the transport-offload parameter here rather than through
    # net_overrides, so ``sweep --modes toe`` needs no extra config.
    if config.affinity == "toe":
        net_kwargs["toe"] = True
    # Interned: every run (and every flow-class representative) with
    # the same network constants shares one frozen parameter object.
    net_params = NetParams.interned(**net_kwargs)
    flow_classes = None
    if config.aggregation == "class":
        from repro.net.flowclass import partition_flows

        _, flow_classes = partition_flows(
            config.n_connections, config.n_queues
        )
    stack = NetworkStack(
        machine,
        net_params,
        n_connections=config.n_connections,
        mode=stack_mode,
        message_size=config.message_size,
        n_queues=config.n_queues,
        flow_classes=flow_classes,
    )
    if plan is not None and plan.enabled:
        FaultInjector(machine, plan).attach(stack)
    if config.offered_gbps is not None and config.direction == "rx":
        # Receive tests are offered load by the remote sources: pace
        # them (cycle-accurate token schedule), splitting the aggregate
        # rate across connections in proportion to flow-class weight
        # (evenly when every connection is one exact flow).  Phases are
        # staggered by connection id so the flow population offers an
        # evenly-interleaved aggregate stream, as independent real
        # flows do, instead of firing in lockstep.
        for conn in stack.connections:
            fc = conn.flow_class
            weight = fc.weight if fc is not None else 1
            conn.peer.set_pacing(
                config.offered_gbps * weight / config.n_connections,
                phase=conn.conn_id / config.n_connections,
            )
    if config.workload == "ttcp":
        workload = TtcpWorkload(
            machine, stack, config.message_size,
            offered_gbps=(
                config.offered_gbps if config.direction == "tx" else None
            ),
        )
    elif config.workload == "iscsi":
        workload = IscsiTargetWorkload(machine, stack, config.message_size)
    else:
        workload = WebServerWorkload(machine, stack, config.message_size)
    tasks = workload.spawn_all()
    applied = apply_affinity(machine, stack, tasks, config.affinity)
    tracer = None
    if config.trace is not None:
        tracer = machine.attach_tracer(
            Tracer(
                machine.engine,
                capacity=config.trace.capacity,
                events=config.trace.events,
            )
        )
    machine.start()
    stack.start_peers()
    machine.run_for(config.warmup_ms * MS)
    machine.reset_measurement()
    machine.run_for(config.measure_ms * MS)
    # Dynamic-placement controllers (IRQ rotation, RSS steering) re-arm
    # themselves; cancel the pending event so nothing fires past the
    # measurement window.
    controller = applied.get("controller")
    if controller is not None:
        controller.stop()
    result = ExperimentResult.from_machine(config, machine, stack, workload)
    # Live-run-only attribute (like ``tracer``): engine event count for
    # the benchmark harness's events/sec metric.  Deliberately outside
    # ``_data`` so serialized results and their hashes are unchanged.
    result.events_fired = machine.engine.events_fired
    # Likewise live-run-only: which charging engine actually ran (pure
    # or compiled) -- both are bit-identical, so it must not enter the
    # payload or the cache key.
    result.charge_engine = machine.charge_engine
    # Resource observability (live-run-only, outside _data for the
    # same reason): wall-clock for this run and the process's peak
    # resident set -- the scale study's evidence that flyweight +
    # aggregation actually hold memory flat.  Absent on cache hits;
    # sweep workers ship them back in a sidecar next to the payload.
    result.wall_s = time.perf_counter() - wall_t0
    result.peak_rss_kb = _peak_rss_kb()
    if tracer is not None:
        result._data["trace"] = summarize(tracer, machine.n_cpus)
        result.tracer = tracer
    # Invariants hold for every run, faulted or not; checking before
    # the cache write keeps corrupt results out of the artefact store.
    InvariantChecker(machine, stack).check()
    return result
