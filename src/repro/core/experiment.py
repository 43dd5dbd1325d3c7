"""Experiment runner: one ttcp run under one affinity mode.

``run_experiment`` builds a fresh simulated machine, assembles the
stack and workload, applies the affinity mode, warms up (cold caches
and scheduler settling excluded, as in the paper's steady-state
profiles), measures, and returns a serializable
:class:`ExperimentResult`.

Results are cached (in-process and optionally on disk) keyed by the
full configuration -- a full Figure 3 sweep is 56 runs of a
cycle-level simulation, and every benchmark and example reuses them.
"""

import gc
import hashlib
import json
import os
import sys
import tempfile
import time
import warnings

from repro.apps.iscsi import IscsiTargetWorkload
from repro.apps.ttcp import TtcpWorkload
from repro.apps.webserve import WebServerWorkload
from repro.cpu.events import N_EVENTS
from repro.cpu.function import BINS
from repro.cpu.params import CostModel, cpu_params_from_overrides
from repro.kernel.machine import Machine
from repro.kernel.scheduler import SchedulerParams
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultInjector, FaultPlan
from repro.net.params import NetParams
from repro.net.stack import NetworkStack
from repro.core.modes import apply_affinity
from repro.trace import TraceOptions, Tracer, summarize

MS = 2_000_000  # cycles per millisecond at 2 GHz

#: Paper transaction sizes (Figures 3/4 x-axis).
PAPER_SIZES = (128, 256, 1024, 4096, 8192, 16384, 65536)

#: ``aggregation="auto"`` switches to flow-class aggregation above
#: this many connections (multi-queue ttcp only).  Chosen so every
#: paper-scale and scale-study-default configuration (<= 128 flows)
#: stays on the exact path -- and keeps its pre-existing cache key.
AUTO_AGGREGATION_MIN_FLOWS = 128


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


class ExperimentConfig:
    """Everything that identifies one run."""

    def __init__(
        self,
        direction="tx",
        message_size=65536,
        affinity="none",
        n_connections=8,
        n_cpus=2,
        warmup_ms=20,
        measure_ms=30,
        seed=3,
        cost_overrides=None,
        workload="ttcp",
        faults=None,
        trace=None,
        n_queues=1,
        net_overrides=None,
        cpu_overrides=None,
        offered_gbps=None,
        aggregation="exact",
    ):
        """``cost_overrides`` maps CostModel attribute names to values
        (e.g. ``{"c2c_transfer": 600}``), for sensitivity studies.

        ``workload`` selects the application driving the stack:
        ``"ttcp"`` (the paper's; honours ``direction``), ``"iscsi"``
        (request/response target) or ``"web"`` (connection churn).

        ``faults`` optionally injects wire/NIC/IRQ faults: a
        :class:`~repro.faults.plan.FaultPlan`, a dict of its fields, or
        a spec string (``"loss=0.01,reorder=0.005"``).  ``None`` (the
        default) keeps the run fault-free *and* keeps the cache key
        identical to configs from before fault support existed.

        ``trace`` optionally attaches a tracer to the measurement
        window: a :class:`~repro.trace.TraceOptions`, ``True`` (default
        options), an int (ring capacity), or a dict of TraceOptions
        fields.  ``None`` (the default) keeps tracing off with zero
        overhead -- and, like ``faults``, keeps pre-existing cache
        keys unchanged.

        ``n_queues > 1`` builds the stack on one shared multi-queue
        NIC (RSS/Flow Director steering) instead of one single-vector
        NIC per connection; see :class:`~repro.net.stack.NetworkStack`.
        The default of 1 is omitted from the cache key, so existing
        keys are unchanged.

        ``net_overrides`` / ``cpu_overrides`` map
        :class:`~repro.net.params.NetParams` constructor keywords /
        :data:`~repro.cpu.params.CPU_OVERRIDE_KEYS` geometry names to
        perturbed values, for the diagnosis subsystem's one-knob-at-a-
        time sensitivity runs (``repro.diagnose``).  ``offered_gbps``
        paces the ttcp workload to a fixed aggregate offered load
        (peer-side for receive tests, writer-side for transmit)
        instead of running closed-loop.  All three follow the
        omit-when-default rule, so pre-existing cache keys -- and the
        golden result hashes -- are unchanged.

        ``aggregation`` selects how flows are simulated: ``"exact"``
        (default) simulates every connection; ``"class"`` groups
        statistically-identical flows by static RSS queue and
        simulates one charged representative per class (multi-queue
        ttcp only -- the validity envelope; see
        :mod:`repro.net.flowclass`); ``"auto"`` resolves at
        construction to ``"class"`` when the configuration is eligible
        and has more than :data:`AUTO_AGGREGATION_MIN_FLOWS`
        connections, else ``"exact"``.  The resolved value follows the
        omit-when-default rule (``"exact"`` is omitted), so every
        pre-existing config -- including ``"auto"`` at paper-scale
        flow counts -- keeps its cache key."""
        if direction not in ("tx", "rx"):
            raise ValueError("direction must be 'tx' or 'rx'")
        if workload not in ("ttcp", "iscsi", "web"):
            raise ValueError("unknown workload %r" % workload)
        if n_queues < 1:
            raise ValueError("n_queues must be >= 1, got %r" % n_queues)
        if offered_gbps is not None:
            if workload != "ttcp":
                raise ValueError(
                    "offered_gbps requires the ttcp workload "
                    "(got %r)" % workload
                )
            if offered_gbps <= 0:
                raise ValueError(
                    "offered_gbps must be positive, got %r" % offered_gbps
                )
        self.workload = workload
        self.direction = direction
        self.message_size = message_size
        self.affinity = affinity
        self.n_connections = n_connections
        self.n_cpus = n_cpus
        self.warmup_ms = warmup_ms
        self.measure_ms = measure_ms
        self.seed = seed
        self.cost_overrides = dict(cost_overrides or {})
        self.faults = FaultPlan.coerce(faults)
        self.trace = TraceOptions.coerce(trace)
        self.n_queues = n_queues
        self.net_overrides = dict(net_overrides or {})
        self.cpu_overrides = dict(cpu_overrides or {})
        self.offered_gbps = offered_gbps
        if aggregation not in ("exact", "class", "auto"):
            raise ValueError(
                "aggregation must be 'exact', 'class' or 'auto', got %r"
                % (aggregation,)
            )
        eligible = n_queues > 1 and workload == "ttcp"
        if aggregation == "auto":
            # Resolve immediately: eligibility is a pure function of
            # the config, and a resolved value keeps cache keys stable
            # and round-trippable through to_dict().
            aggregation = (
                "class"
                if eligible and n_connections > AUTO_AGGREGATION_MIN_FLOWS
                else "exact"
            )
        elif aggregation == "class" and not eligible:
            raise ValueError(
                "aggregation='class' requires a multi-queue ttcp "
                "configuration (n_queues > 1, workload='ttcp'); got "
                "n_queues=%d workload=%r" % (n_queues, workload)
            )
        self.aggregation = aggregation

    def to_dict(self):
        d = dict(
            direction=self.direction,
            message_size=self.message_size,
            affinity=self.affinity,
            n_connections=self.n_connections,
            n_cpus=self.n_cpus,
            warmup_ms=self.warmup_ms,
            measure_ms=self.measure_ms,
            seed=self.seed,
            cost_overrides=self.cost_overrides,
            workload=self.workload,
        )
        # Omitted (not None) when fault-free so the cache keys of all
        # pre-existing configs -- and their on-disk artefacts -- are
        # unchanged.
        if self.faults is not None:
            d["faults"] = self.faults.to_dict()
        # Same omit-when-None rule as ``faults``; traced runs also
        # bypass the result cache entirely (see run_experiment).
        if self.trace is not None:
            d["trace"] = self.trace.to_dict()
        # Omit-when-default, like faults/trace: single-queue configs
        # keep their pre-multi-queue cache keys.
        if self.n_queues != 1:
            d["n_queues"] = self.n_queues
        # Diagnosis fields (perturbations and offered-load pacing):
        # same omit-when-default rule, so unperturbed closed-loop
        # configs keep their pre-diagnosis cache keys.
        if self.net_overrides:
            d["net_overrides"] = self.net_overrides
        if self.cpu_overrides:
            d["cpu_overrides"] = self.cpu_overrides
        if self.offered_gbps is not None:
            d["offered_gbps"] = self.offered_gbps
        # Omit-when-default: exact-path configs (everything that
        # existed before aggregation) keep their keys byte-for-byte.
        if self.aggregation != "exact":
            d["aggregation"] = self.aggregation
        return d

    def key(self):
        """Stable cache key."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:20]

    def label(self):
        prefix = "" if self.workload == "ttcp" else self.workload + "-"
        base = "%s%s-%d-%s" % (
            prefix, self.direction, self.message_size, self.affinity
        )
        if self.faults is not None:
            base += "+faults"
        if self.n_queues != 1:
            base += "+%dq" % self.n_queues
        if self.net_overrides or self.cpu_overrides:
            base += "+pert"
        if self.offered_gbps is not None:
            base += "+load%g" % self.offered_gbps
        if self.aggregation != "exact":
            base += "+agg"
        return base

    def __repr__(self):
        return "ExperimentConfig(%s)" % self.label()


class ExperimentResult:
    """Measured outputs of one run (plain data; JSON-serializable)."""

    def __init__(self, data):
        self._data = data

    # -- construction ---------------------------------------------------

    @classmethod
    def from_machine(cls, config, machine, stack, workload):
        acct = machine.accounting
        window = machine.window_cycles
        total_bytes = workload.total_bytes()
        bits = total_bytes * 8.0
        busy = sum(c.busy_cycles for c in machine.cpus)

        per_cpu_functions = {}
        for cpu_index in range(machine.n_cpus):
            fns = {}
            for name, (spec, vec) in acct.per_function(
                cpu_index=cpu_index, include_idle=True
            ).items():
                fns[name] = {"bin": spec.bin, "events": list(vec)}
            per_cpu_functions[str(cpu_index)] = fns

        bins = {b: list(v) for b, v in acct.per_bin().items()}

        locks = {}
        for conn in stack.connections:
            lock = conn.sock.lock
            locks[lock.name] = dict(
                acquisitions=lock.acquisitions,
                contended=lock.contended_acquisitions,
                spin_cycles=lock.total_spin_cycles,
                hold_cycles=lock.total_hold_cycles,
            )
        for nic in stack.nics:
            for lock in [rxq.tx_lock for rxq in nic.rxqs]:
                locks[lock.name] = dict(
                    acquisitions=lock.acquisitions,
                    contended=lock.contended_acquisitions,
                    spin_cycles=lock.total_spin_cycles,
                    hold_cycles=lock.total_hold_cycles,
                )

        data = dict(
            config=config.to_dict(),
            window_cycles=window,
            total_bytes=total_bytes,
            messages=list(workload.messages_done),
            throughput_gbps=(bits / (window / float(machine.hz)) / 1e9)
            if window else 0.0,
            busy_cycles=busy,
            cost_ghz_per_gbps=(busy / bits) if bits else float("inf"),
            per_cpu_utilization=[
                machine.utilization(i) for i in range(machine.n_cpus)
            ],
            bins=bins,
            per_cpu_functions=per_cpu_functions,
            device_irqs=[
                machine.procstat.total_device_interrupts(i)
                for i in range(machine.n_cpus)
            ],
            ipis=[
                machine.procstat.total_ipis(i) for i in range(machine.n_cpus)
            ],
            migrations=sum(t.migrations for t in machine.tasks),
            wakeups=machine.scheduler.wakeups,
            remote_wakeups=machine.scheduler.remote_wakeups,
            locks=locks,
            rx_drops=sum(n.rx_drops for n in stack.nics),
            rto_fires=sum(c.rto_fires for c in stack.connections),
            c2c_transfers=machine.memsys.c2c_transfers,
            invalidations=machine.memsys.invalidations,
        )
        injector = getattr(stack, "fault_injector", None)
        if injector is not None:
            socks = [c.sock for c in stack.connections]
            peers = [c.peer for c in stack.connections]
            data["faults"] = dict(
                plan=injector.plan.to_dict(),
                injected=injector.counters(),
                tx_drops=sum(n.tx_drops for n in stack.nics),
                rto_fires=data["rto_fires"]
                + sum(p.rto_fires for p in peers),
                fast_retransmits=sum(
                    c.fast_retransmits for c in stack.connections
                ),
                retransmitted_segments=sum(
                    c.retransmitted_segments for c in stack.connections
                ),
                dup_acks=sum(p.dup_acks_sent for p in peers)
                + sum(p.dup_acks_seen for p in peers),
                peer_retransmits=sum(p.retransmits for p in peers),
                peer_rto_fires=sum(p.rto_fires for p in peers),
                reorder_depth_peak=max(
                    [p.reorder_depth_peak for p in peers]
                    + [s.ooo_peak for s in socks]
                ),
                sut_ooo_segments=sum(s.ooo_segs_in for s in socks),
                sut_dup_segments=sum(s.dup_segs_in for s in socks),
                irqs_delayed=sum(n.irqs_delayed for n in stack.nics),
            )
        # Multi-queue steering block: gated the same way as "faults"
        # so single-queue payloads (and their hashes) are unchanged.
        if getattr(stack, "n_queues", 1) > 1:
            nic = stack.nics[0]
            steering = nic.steering
            fd = steering.flow_director
            socks = [c.sock for c in stack.connections]
            peers = [c.peer for c in stack.connections]
            data["steering"] = dict(
                n_queues=stack.n_queues,
                flow_director=steering.fd_enabled,
                rx_steered=[q.frames_steered for q in nic.rxqs],
                queue_irqs=[q.irqs_fired for q in nic.rxqs],
                fd_samples=fd.samples,
                fd_retargets=fd.retargets,
                reorder_depth_peak=max(
                    [s.ooo_peak for s in socks]
                    + [p.reorder_depth_peak for p in peers]
                ),
                sut_ooo_segments=sum(s.ooo_segs_in for s in socks),
                sut_dup_segments=sum(s.dup_segs_in for s in socks),
                dup_acks_out=sum(s.dup_acks_out for s in socks),
                peer_dup_acks_seen=sum(p.dup_acks_seen for p in peers),
                peer_retransmits=sum(p.retransmits for p in peers),
            )
        # NIC offload block: gated on any offload knob being active, so
        # non-offload payloads (all 36 golden cells) stay byte-identical.
        p = stack.params
        if p.toe or p.lso or p.gro or p.itr_adaptive or p.itr_absorb:
            nics = stack.nics
            data["offload"] = dict(
                toe=p.toe,
                lso=p.lso,
                gro=p.gro,
                itr_adaptive=p.itr_adaptive,
                itr_absorb=p.itr_absorb,
                nic_engine_scale=p.nic_engine_scale,
                gro_flush_us=p.gro_flush_us,
                engine_cycles=sum(n.engine_cycles for n in nics),
                engine_seg_cycles=sum(n.engine_seg_cycles for n in nics),
                engine_gro_cycles=sum(n.engine_gro_cycles for n in nics),
                engine_ack_cycles=sum(n.engine_ack_cycles for n in nics),
                engine_rcv_cycles=sum(n.engine_rcv_cycles for n in nics),
                lso_frames=sum(n.lso_frames for n in nics),
                gro_merged=sum(n.gro_merged for n in nics),
                gro_flushes_push=sum(n.gro_flushes_push for n in nics),
                gro_flushes_ooo=sum(n.gro_flushes_ooo for n in nics),
                gro_flushes_timer=sum(n.gro_flushes_timer for n in nics),
                gro_flushes_fire=sum(n.gro_flushes_fire for n in nics),
                toe_acks=sum(n.toe_acks for n in nics),
                itr_holds=sum(n.itr_holds for n in nics),
            )
        # Flow-class aggregation block: gated on an *actually
        # aggregated* stack (any class weight > 1), so all-singleton
        # class runs keep payloads byte-identical to the exact path.
        if getattr(stack, "aggregated", False):
            from repro.net.flowclass import flow_population
            from repro.net.rss import FD_TABLE_CAPACITY, INDIRECTION_ENTRIES

            fcs = stack.flow_classes
            n_flows = stack.n_flows
            rep_bytes = list(workload.bytes_done)
            rep_messages = list(workload.messages_done)
            pop = flow_population(n_flows, stack.n_queues)
            data["flows"] = dict(
                aggregation="class",
                n_flows=n_flows,
                n_simulated=len(fcs),
                classes=[
                    dict(queue=fc.queue, rep=fc.rep_conn_id,
                         weight=fc.weight, bytes=int(b), messages=int(m))
                    for fc, b, m in zip(fcs, rep_bytes, rep_messages)
                ],
                per_flow_throughput_gbps=(
                    data["throughput_gbps"] / n_flows
                ),
                queue_occupancy=list(pop.occupancy()),
                indirection_entries=INDIRECTION_ENTRIES,
                flows_per_indirection_entry=(
                    n_flows / float(INDIRECTION_ENTRIES)
                ),
                fd_table_capacity=FD_TABLE_CAPACITY,
                fd_table_pressure=n_flows / float(FD_TABLE_CAPACITY),
            )
        return cls(data)

    @classmethod
    def from_dict(cls, data):
        return cls(data)

    def to_dict(self):
        return self._data

    # -- accessors -------------------------------------------------------

    @property
    def config(self):
        return self._data["config"]

    @property
    def throughput_gbps(self):
        return self._data["throughput_gbps"]

    @property
    def throughput_mbps(self):
        return self._data["throughput_gbps"] * 1000.0

    @property
    def cost_ghz_per_gbps(self):
        return self._data["cost_ghz_per_gbps"]

    @property
    def utilization(self):
        """Mean CPU utilization across processors."""
        utils = self._data["per_cpu_utilization"]
        return sum(utils) / len(utils)

    @property
    def per_cpu_utilization(self):
        return list(self._data["per_cpu_utilization"])

    @property
    def window_cycles(self):
        return self._data["window_cycles"]

    @property
    def total_bytes(self):
        return self._data["total_bytes"]

    @property
    def work_bits(self):
        return self._data["total_bytes"] * 8

    @property
    def ipis(self):
        return list(self._data["ipis"])

    @property
    def device_irqs(self):
        return list(self._data["device_irqs"])

    @property
    def locks(self):
        return self._data["locks"]

    def __getitem__(self, key):
        return self._data[key]

    def payload_get(self, key, default=None):
        """Optional payload section (e.g. ``"flows"``, present only on
        aggregated runs), or ``default``."""
        return self._data.get(key, default)

    def bin_vector(self, bin):
        """Event vector for one functional bin."""
        return list(self._data["bins"][bin])

    def bin_event(self, bin, event_index):
        return self._data["bins"][bin][event_index]

    def stack_total(self, event_index):
        """Event total over the seven stack bins (idle excluded)."""
        return sum(
            self._data["bins"][b][event_index]
            for b in BINS
            if b != "other"
        )

    def function_events(self, cpu_index=None):
        """``{fn_name: (bin, events)}``, merged or per CPU."""
        out = {}
        cpus = (
            [str(cpu_index)]
            if cpu_index is not None
            else list(self._data["per_cpu_functions"])
        )
        for cpu in cpus:
            for name, rec in self._data["per_cpu_functions"][cpu].items():
                if name in out:
                    merged = out[name][1]
                    for i in range(N_EVENTS):
                        merged[i] += rec["events"][i]
                else:
                    out[name] = (rec["bin"], list(rec["events"]))
        return out

    def events_per_bit(self, bin, event_index):
        """Event count per bit of goodput (the paper's per-work basis)."""
        bits = self.work_bits
        if not bits:
            return 0.0
        return self._data["bins"][bin][event_index] / float(bits)

    def summary(self):
        return (
            "%s: %.0f Mb/s, %.2f GHz/Gbps, util=%s"
            % (
                ExperimentConfig(**self.config).label(),
                self.throughput_mbps,
                self.cost_ghz_per_gbps,
                "/".join(
                    "%.0f%%" % (u * 100) for u in self.per_cpu_utilization
                ),
            )
        )


def run_experiment(config, cache=None, progress=None):
    """Run (or fetch from cache) one experiment.

    Traced runs (``config.trace`` set) bypass the cache on both sides:
    the live :class:`~repro.trace.Tracer` (exposed as
    ``result.tracer``) is not serializable, and a cache hit would hand
    back a result with no trace attached.  The summarized trace
    statistics still travel in the plain-data payload under
    ``result["trace"]``.
    """
    traced = config.trace is not None
    if cache is not None and not traced:
        hit = cache.get(config)
        if hit is not None:
            return hit
    if progress:
        progress("running %s" % config.label())
    # The collector is off for the whole cell -- construction, run and
    # payload build: the event loop allocates almost nothing that
    # survives a cycle, so passes mid-cell are pure overhead.  The
    # finished machine is a web of reference cycles; collecting it here
    # keeps dead machines from piling up under the next cell and
    # setting the process's peak memory.  With no automatic pass during
    # the cell, everything it allocated is still in the youngest
    # generation, so a young collection frees the machine without
    # traversing the process's long-lived objects.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = _simulate(config)
        gc.collect(0)
    finally:
        if was_enabled:
            gc.enable()
    if cache is not None and not traced:
        cache.put(config, result)
    return result


def _simulate(config):
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


class ResultCache:
    """Two-level (memory + disk) cache of experiment results.

    Safe to share between concurrent processes: disk writes are atomic
    (tempfile in the cache directory, then ``os.replace``), so readers
    never observe a torn entry, and an unreadable or corrupt entry is
    treated as a miss (the bad file is discarded and the experiment
    re-runs) rather than an error.

    The cache is an accelerator, never a correctness dependency: if
    the disk fills up or the directory is read-only, ``put`` warns
    once and degrades to memory-only instead of killing a sweep that
    may be hours into its grid.
    """

    def __init__(self, directory=None):
        self._directory = directory
        self._memory = {}
        self._warned_disk = False

    @property
    def directory(self):
        """The cache directory, resolved lazily so ``REPRO_RESULTS_DIR``
        set after construction (e.g. by a test or the CLI) still takes
        effect for a cache built without an explicit directory."""
        if self._directory is not None:
            return self._directory
        return os.environ.get("REPRO_RESULTS_DIR", ".repro-results")

    def _path(self, config):
        return os.path.join(
            self.directory, "%s-%s.json" % (config.label(), config.key())
        )

    def get(self, config):
        key = config.key()
        if key in self._memory:
            return self._memory[key]
        path = self._path(config)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            # Torn, truncated or otherwise unreadable entry: a miss.
            # Discard it so the re-run's put starts clean.
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        result = ExperimentResult.from_dict(data)
        self._memory[key] = result
        return result

    def put(self, config, result):
        self._memory[config.key()] = result
        directory = self.directory
        # Write to a sibling tempfile and rename into place: os.replace
        # is atomic on POSIX, so a concurrent reader (or a reader after
        # an interrupt) sees either the old entry or the new one whole.
        # Any OSError (ENOSPC, EROFS, EACCES...) degrades to memory-only
        # caching: warn once, keep the sweep running.  Non-I/O errors
        # (e.g. an unserializable result) still propagate -- those are
        # bugs, not environment.
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".put-", suffix=".part", dir=directory
            )
        except OSError as exc:
            self._warn_disk(exc)
            return
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(result.to_dict(), fh)
            os.replace(tmp, self._path(config))
        except BaseException as exc:
            try:
                os.remove(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                self._warn_disk(exc)
                return
            raise

    def _warn_disk(self, exc):
        if self._warned_disk:
            return
        self._warned_disk = True
        warnings.warn(
            "result cache write to %s failed (%s); continuing with "
            "in-memory caching only" % (self.directory, exc),
            RuntimeWarning,
            stacklevel=3,
        )

    def clear(self):
        self._memory.clear()
        directory = self.directory
        if os.path.isdir(directory):
            for name in os.listdir(directory):
                if name.endswith(".json") or name.endswith(".part"):
                    os.remove(os.path.join(directory, name))


#: Module-level default cache shared by benchmarks and examples.
DEFAULT_CACHE = ResultCache()
