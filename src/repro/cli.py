"""``repro-affinity``: run affinity experiments from the shell.

Examples::

    # One experiment, printed as a summary plus per-bin profile.
    repro-affinity run --direction tx --size 65536 --affinity full

    # Compare all four affinity modes at one size.
    repro-affinity compare --direction tx --size 65536

    # Regenerate one of the paper's tables.
    repro-affinity table1 --direction rx --size 65536
    repro-affinity table3 --direction tx --size 128

    # Trace one run; export for Perfetto / flamegraph.pl.
    repro-affinity trace --direction rx --affinity full \\
        --chrome trace.json --flamegraph stacks.txt

    # Find where the simulator itself spends wall-clock time.
    repro-affinity profile --direction rx --size 65536 \\
        --top 20 --out stats.pstats

    # Multi-queue scaling study: RSS vs Flow Director on a shared
    # 10GbE-class NIC across machine sizes.
    repro-affinity scale --modes rss,flow-director --queues 8

    # Modern-NIC offload study: host stack vs TOE, per-bin cycles/KB
    # at a matched offered load.
    repro-affinity offload --modes full,toe

    # ITR coalescing sweep: interrupt-timer x throttle-variant under
    # the contended Flow Director configuration.
    repro-affinity scale --coalesce-sweep

    # Automated bottleneck diagnosis: saturate, perturb each modeled
    # cost, rank by throughput lost (writes JSON into results/).
    repro-affinity diagnose --direction rx --modes none,full

    # Crash-safe studies: sweep/scale/diagnose journal every cell into
    # results/runs/<run_id>/; an interrupted (^C, SIGTERM, SIGKILL,
    # power loss) study resumes where it stopped, byte-identically.
    repro-affinity runs list
    repro-affinity runs resume 20260808T120000-scale-a1b2c3
    repro-affinity runs query --mode rss --cpus 16

Results are cached in ``.repro-results/`` (override with
``REPRO_RESULTS_DIR``); run directories live under ``results/runs/``
(override with ``REPRO_RUNS_DIR``).
"""

import argparse
import sys

from repro.core.experiment import (
    DEFAULT_CACHE,
    ExperimentConfig,
    run_experiment,
)
from repro.core.characterization import BIN_LABELS, STACK_BINS, characterize
from repro.core.metrics import run_size_sweep
from repro.core.modes import AFFINITY_MODES, EXTENDED_MODES
from repro.core.parallel import SweepRunner, default_jobs
from repro.core.report import (
    render_coalesce_table,
    render_figure3,
    render_figure4,
    render_scale_table,
    render_table1,
    render_table3,
    render_trace_crosscheck,
)
from repro.core.scale import (
    COALESCE_GRID,
    COALESCE_VARIANTS,
    SCALE_CPUS,
    SCALE_MODES,
    SCALE_SIZES,
    run_coalesce_sweep,
    run_scale_sweep,
    scaling_efficiency,
)
from repro.diagnose import (
    DEFAULT_FACTOR,
    DEFAULT_STEPS,
    DEFAULT_SUSTAIN_FRAC,
    PERTURB_SPECS,
    render_diagnosis,
    run_diagnosis,
)
from repro.runstore import (
    GracefulShutdown,
    LockHeldError,
    RunStore,
    RunStoreError,
    ShutdownRequested,
    atomic_write_text,
)
from repro.runstore.cli import register as register_runs_cli
from repro.trace import (
    LatencyStats,
    TraceOptions,
    irq_to_copy_latencies,
    irq_to_softirq_latencies,
    render_timeline,
    top_producers,
    write_chrome_trace,
    write_flamegraph,
)
from repro.trace.export import DEFAULT_HZ


def _add_common(parser, jobs=None):
    parser.add_argument("--direction", choices=("tx", "rx"), default="tx")
    parser.add_argument("--size", type=int, default=65536,
                        help="ttcp transaction size in bytes")
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument("--cpus", type=int, default=2)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--warmup-ms", type=int, default=20)
    parser.add_argument("--measure-ms", type=int, default=30)
    _add_runner(parser, jobs)
    parser.add_argument("--workload", choices=("ttcp", "iscsi", "web"),
                        default="ttcp",
                        help="application driving the stack")
    parser.add_argument(
        "--queues", type=int, default=1,
        help="hardware RX queues; >1 builds one shared multi-queue "
             "10GbE-class NIC (RSS/Flow Director) instead of one "
             "single-vector NIC per connection")
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject deterministic wire/NIC/IRQ faults, e.g. "
             "'loss=0.01' or 'reorder=0.005,depth=4,irq=0.1' "
             "(keys: loss, reorder, depth, dup, irq, irq_delay_us, "
             "reorder_flush_us, direction, rto_ms, drop_every_n)")


def _add_runner(parser, jobs=None):
    """``--no-cache``, plus the SweepRunner flags (``--jobs`` defaulting
    to ``jobs``, ``--cell-timeout``, ``--retries``) unless ``jobs`` is
    ``None``."""
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-run, ignore cached results")
    if jobs is None:
        return
    parser.add_argument(
        "--jobs", type=int, default=jobs,
        help="worker processes (1 = serial; 0 = one per CPU / "
             "$REPRO_JOBS; default %d)" % jobs)
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock watchdog per cell; cells past it are retried "
             "then quarantined instead of hanging the study")
    parser.add_argument(
        "--retries", type=int, default=1,
        help="same-seed re-runs granted to a failing cell before it "
             "is quarantined (default 1)")


def _add_runstore(parser):
    parser.add_argument(
        "--run-id", default=None,
        help="explicit run-store id under results/runs/ (default: a "
             "generated timestamped id)")
    parser.add_argument(
        "--no-runstore", action="store_true",
        help="don't journal this study into the run store")


def _config(args, affinity):
    return ExperimentConfig(
        direction=args.direction,
        message_size=args.size,
        affinity=affinity,
        n_connections=args.connections,
        n_cpus=args.cpus,
        warmup_ms=args.warmup_ms,
        measure_ms=args.measure_ms,
        seed=args.seed,
        workload=getattr(args, "workload", "ttcp"),
        faults=getattr(args, "faults", None),
        trace=getattr(args, "trace", None),
        n_queues=getattr(args, "queues", 1),
    )


def _progress(msg):
    print("[repro] %s" % msg, file=sys.stderr)


def _run(args, affinity):
    cache = None if args.no_cache else DEFAULT_CACHE
    return run_experiment(
        _config(args, affinity), cache=cache, progress=_progress
    )


def _study_runner(args, store):
    """The one :class:`SweepRunner` a study runs every cell on.

    Built from the command's ``--jobs`` / ``--cell-timeout`` /
    ``--retries`` (serial defaults for commands without them),
    ``--no-cache``, and the run store as its journal.
    """
    jobs = getattr(args, "jobs", 1)
    return SweepRunner(
        jobs=jobs if jobs > 0 else default_jobs(),
        cache=None if args.no_cache else DEFAULT_CACHE,
        progress=_progress,
        timeout=getattr(args, "cell_timeout", None),
        retries=getattr(args, "retries", 1),
        journal=store,
    )


def _run_body(command, body, runner):
    """``body(runner)``'s exit code, or 3 if any cell of the last
    ``runner.run`` was quarantined (the report names them)."""
    rc = body(runner)
    if not runner.report.ok:
        _progress("%s incomplete: %s" % (command, runner.report.summary()))
        rc = rc or 3
    return rc


def _run_study(args, command, body):
    """Drive one study command under the run store.

    ``body(runner)`` does the actual work on the study's
    :class:`SweepRunner` and returns the exit code; ``runner.journal``
    is the run store, or ``None`` when journaling is disabled
    (``--no-runstore``).  Otherwise the study gets a crash-safe run
    directory (journal + manifest + lock), SIGINT/SIGTERM are turned
    into a clean checkpoint (status ``interrupted``, exit
    ``128+signum``) instead of a torn teardown, and the terminal
    status lands in the manifest and the cross-run index.  A resumed
    run arrives with the store pre-opened in ``args._store``.
    """
    if getattr(args, "no_runstore", False):
        return _run_body(command, body, _study_runner(args, None))
    store = getattr(args, "_store", None)
    if store is None:
        recorded = {
            k: v for k, v in vars(args).items()
            if k != "func" and not k.startswith("_")
        }
        try:
            store = RunStore.create(
                command, args=recorded,
                run_id=getattr(args, "run_id", None),
            )
        except (RunStoreError, LockHeldError) as exc:
            print("[repro] %s" % exc, file=sys.stderr)
            return 2
    print("[repro] run %s -> %s" % (store.run_id, store.directory),
          file=sys.stderr)
    try:
        with GracefulShutdown():
            rc = _run_body(command, body, _study_runner(args, store))
    except ShutdownRequested as exc:
        print("[repro] %s received; run %s checkpointed -- resume "
              "with: repro-affinity runs resume %s"
              % (exc.name, store.run_id, store.run_id),
              file=sys.stderr)
        store.finalize("interrupted")
        return 128 + exc.signum
    except BaseException:
        store.finalize("failed")
        raise
    store.finalize("completed" if rc == 0 else "incomplete")
    return rc


def cmd_run(args):
    result = _run(args, args.affinity)
    print(result.summary())
    rows = characterize(result)
    print("\n%-10s %8s %7s %8s" % ("bin", "%cycles", "CPI", "MPI"))
    for bin in STACK_BINS:
        r = rows[bin]
        print("%-10s %7.1f%% %7.2f %8.4f"
              % (BIN_LABELS[bin], r.pct_cycles * 100, r.cpi, r.mpi))
    print("IPIs: %s   migrations: %d   c2c transfers: %d"
          % (result.ipis, result["migrations"], result["c2c_transfers"]))
    faults = result.to_dict().get("faults")
    if faults:
        inj = faults["injected"]
        print("faults: drops=%d dups=%d reorders=%d irq-delays=%d | "
              "rto=%d fast-rexmit=%d dup-acks=%d peer-rexmit=%d "
              "ooo-depth-peak=%d"
              % (inj["drops"], inj["dups"], inj["reorders"],
                 faults["irqs_delayed"], faults["rto_fires"],
                 faults["fast_retransmits"], faults["dup_acks"],
                 faults["peer_retransmits"], faults["reorder_depth_peak"]))
    steering = result.to_dict().get("steering")
    if steering:
        print("steering: %d queues (fd=%s) rx=%s | fd-samples=%d "
              "fd-retargets=%d reorder-peak=%d dup-acks=%d peer-rexmit=%d"
              % (steering["n_queues"],
                 "on" if steering["flow_director"] else "off",
                 steering["rx_steered"], steering["fd_samples"],
                 steering["fd_retargets"], steering["reorder_depth_peak"],
                 steering["dup_acks_out"], steering["peer_retransmits"]))
    return 0


def cmd_compare(args):
    modes = EXTENDED_MODES if args.extended else AFFINITY_MODES
    if getattr(args, "queues", 1) <= 1:
        # Flow Director needs a multi-queue NIC; on a single-queue
        # stack apply_affinity raises, so drop it rather than abort
        # the whole comparison.
        modes = tuple(m for m in modes if m != "flow-director")
    print("%-6s %10s %10s %8s" % ("mode", "Mb/s", "GHz/Gbps", "util"))
    baseline = None
    for mode in modes:
        result = _run(args, mode)
        if mode == "none":
            baseline = result.throughput_gbps
        gain = (
            result.throughput_gbps / baseline - 1.0 if baseline else 0.0
        )
        print("%-6s %10.0f %10.2f %7.0f%%   (%+.1f%% vs none)"
              % (mode, result.throughput_mbps, result.cost_ghz_per_gbps,
                 result.utilization * 100, gain * 100))
    return 0


def cmd_sweep(args):
    sizes = tuple(args.sizes)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for mode in modes:
        if mode not in EXTENDED_MODES:
            print("[repro] unknown affinity mode %r (choose from %s)"
                  % (mode, ", ".join(EXTENDED_MODES)), file=sys.stderr)
            return 2
        if mode == "flow-director" and args.queues <= 1:
            print("[repro] mode flow-director needs --queues > 1",
                  file=sys.stderr)
            return 2

    def body(runner):
        sweep = run_size_sweep(
            args.direction,
            sizes=sizes,
            modes=modes,
            runner=runner,
            faults=args.faults,
            n_connections=args.connections,
            n_cpus=args.cpus,
            n_queues=args.queues,
            warmup_ms=args.warmup_ms,
            measure_ms=args.measure_ms,
            seed=args.seed,
        )
        report = (
            render_figure3(sweep, sizes, modes, args.direction)
            + "\n\n"
            + render_figure4(sweep, sizes, modes, args.direction)
            + "\n"
        )
        print(report, end="")
        if runner.journal is not None:
            runner.journal.write_artifact("report.txt", report)
        return 0

    return _run_study(args, "sweep", body)


def cmd_scale(args):
    cpus = tuple(args.cpus_list)
    sizes = tuple(args.sizes)
    if args.coalesce_sweep:
        return _cmd_coalesce(args)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for mode in modes:
        if mode not in SCALE_MODES:
            print("[repro] unknown steering mode %r (choose from %s)"
                  % (mode, ", ".join(SCALE_MODES)), file=sys.stderr)
            return 2
    conns = tuple(args.connections)
    if min(conns) < args.queues:
        print("[repro] --connections %d is below --queues %d: every "
              "hardware queue needs at least one flow; raise the "
              "connection count or drop --queues"
              % (min(conns), args.queues), file=sys.stderr)
        return 2
    conn_axis = conns if len(conns) > 1 else None

    def body(runner):
        sweep = run_scale_sweep(
            args.direction,
            cpus=cpus,
            sizes=sizes,
            modes=modes,
            n_queues=args.queues,
            n_connections=conns[0],
            connections=conn_axis,
            aggregation=args.aggregation,
            runner=runner,
            warmup_ms=args.warmup_ms,
            measure_ms=args.measure_ms,
            seed=args.seed,
        )
        lines = [render_scale_table(sweep, cpus, sizes, modes,
                                    args.direction, args.queues,
                                    connections=conn_axis)]
        # The persisted report renders without the wall-clock/RSS
        # columns: those measure this process, not the simulated
        # machine, and the run store's resume guarantee is that a
        # crashed-and-resumed grid reproduces report.txt byte for
        # byte.
        stored_lines = [render_scale_table(sweep, cpus, sizes, modes,
                                           args.direction, args.queues,
                                           connections=conn_axis,
                                           live_resources=False)]
        for mode in modes:
            for n_conn in (conn_axis or (None,)):
                eff = scaling_efficiency(sweep, sizes, cpus, mode,
                                         n_conn=n_conn)
                tag = "" if n_conn is None else " %d flows" % n_conn
                for size in sizes:
                    row = " ".join(
                        "--" if e is None else "%.2f" % e
                        for e in eff[size]
                    )
                    line = ("scaling efficiency %-13s %6dB%s: %s"
                            % (mode, size, tag, row))
                    lines.append(line)
                    stored_lines.append(line)
        report = "\n".join(lines) + "\n"
        print(report, end="")
        if runner.journal is not None:
            runner.journal.write_artifact(
                "report.txt", "\n".join(stored_lines) + "\n"
            )
        return 0

    return _run_study(args, "scale", body)


def _cmd_coalesce(args):
    """The ``scale --coalesce-sweep`` axis: ITR timer x throttle
    variant under the contended Flow Director configuration."""
    grid = tuple(args.coalesce_us)
    variants = tuple(
        v.strip() for v in args.coalesce_variants.split(",") if v.strip()
    )
    for variant in variants:
        if variant not in COALESCE_VARIANTS:
            print("[repro] unknown coalesce variant %r (choose from %s)"
                  % (variant, ", ".join(COALESCE_VARIANTS)),
                  file=sys.stderr)
            return 2
    if args.queues <= 1:
        print("[repro] --coalesce-sweep studies the Flow Director "
              "retarget race; it needs --queues > 1", file=sys.stderr)
        return 2
    # The sweep runs one cell shape: the paper's middle size on the
    # largest machine requested, unless --sizes names exactly one.
    size = args.sizes[0] if len(args.sizes) == 1 else 16384
    n_cpus = max(args.cpus_list)

    def body(runner):
        sweep = run_coalesce_sweep(
            direction=args.direction,
            message_size=size,
            grid=grid,
            variants=variants,
            n_cpus=n_cpus,
            n_queues=args.queues,
            n_connections=args.connections[0],
            warmup_ms=args.warmup_ms,
            measure_ms=args.measure_ms,
            seed=args.seed,
            runner=runner,
        )
        report = render_coalesce_table(
            sweep, grid, variants, args.direction, args.queues
        ) + "\n"
        print(report, end="")
        if runner.journal is not None:
            runner.journal.write_artifact("report.txt", report)
        return 0

    return _run_study(args, "coalesce", body)


def cmd_offload(args):
    from repro.core.offload import run_offload_study
    from repro.core.report import render_offload_table

    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for mode in modes:
        if mode not in EXTENDED_MODES:
            print("[repro] unknown affinity mode %r (choose from %s)"
                  % (mode, ", ".join(EXTENDED_MODES)), file=sys.stderr)
            return 2
    if len(modes) < 2:
        print("[repro] --modes needs at least a baseline and a "
              "comparison mode", file=sys.stderr)
        return 2

    def body(runner):
        study = run_offload_study(
            modes=modes,
            directions=tuple(args.directions),
            message_size=args.size,
            offered_gbps=args.offered_gbps,
            n_connections=args.connections,
            n_cpus=args.cpus,
            warmup_ms=args.warmup_ms,
            measure_ms=args.measure_ms,
            seed=args.seed,
            runner=runner,
        )
        report = render_offload_table(
            study, modes, directions=tuple(args.directions)
        ) + "\n"
        print(report, end="")
        if runner.journal is not None:
            runner.journal.write_artifact("report.txt", report)
        return 0

    return _run_study(args, "offload", body)


def cmd_diagnose(args):
    import json
    import os

    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for mode in modes:
        if mode not in EXTENDED_MODES:
            print("[repro] unknown affinity mode %r (choose from %s)"
                  % (mode, ", ".join(EXTENDED_MODES)), file=sys.stderr)
            return 2
    if args.knobs:
        knobs = tuple(k.strip() for k in args.knobs.split(",") if k.strip())
        unknown = [k for k in knobs if k not in PERTURB_SPECS]
        if unknown:
            print("[repro] unknown knob(s) %s (choose from %s)"
                  % (", ".join(unknown), ", ".join(PERTURB_SPECS)),
                  file=sys.stderr)
            return 2
    else:
        knobs = None
    if args.factor <= 1.0:
        print("[repro] --factor must be > 1 (costs only scale up)",
              file=sys.stderr)
        return 2

    def body(runner):
        report = run_diagnosis(
            directions=(args.direction,),
            modes=modes,
            knobs=knobs,
            factor=args.factor,
            message_size=args.size,
            n_connections=args.connections,
            n_cpus=args.cpus,
            warmup_ms=args.warmup_ms,
            measure_ms=args.measure_ms,
            seed=args.seed,
            steps=args.steps,
            sustain_frac=args.sustain,
            runner=runner,
        )
        print(render_diagnosis(report))
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
        out = args.json
        if out is None:
            out = os.path.join(
                "results",
                "diagnosis_%s_%d_%s.json"
                % (args.direction, args.size, "-".join(modes)),
            )
        try:
            parent = os.path.dirname(out)
            if parent:
                os.makedirs(parent, exist_ok=True)
            atomic_write_text(out, text)
            print("[repro] wrote %s" % out, file=sys.stderr)
        except OSError as exc:
            # Disk full / read-only results dir: the diagnosis itself
            # succeeded, so report it and keep going (the run-store
            # artifact below may still land elsewhere).
            print("[repro] could not write %s (%s); continuing"
                  % (out, exc), file=sys.stderr)
        if runner.journal is not None:
            runner.journal.write_artifact("diagnosis.json", text)
        incomplete = any(
            b.get("failed") for b in report["baselines"].values()
        ) or any(c["perturbed_gbps"] is None for c in report["cells"])
        if incomplete:
            print("[repro] diagnosis incomplete: some cells failed",
                  file=sys.stderr)
            return 3
        return 0

    return _run_study(args, "diagnose", body)


def cmd_trace(args):
    args.trace = TraceOptions(
        capacity=args.capacity,
        events=args.events if args.events else None,
    )
    # Traced runs bypass the cache (the live tracer is part of the
    # result); no need to consult --no-cache.
    result = run_experiment(
        _config(args, args.affinity),
        progress=_progress,
    )
    events = result.tracer.events()
    trace = result["trace"]
    print(result.summary())
    print("trace: %d emitted, %d retained, %d dropped (capacity %d)"
          % (trace["emitted"], trace["retained"], trace["dropped"],
             trace["capacity"]))
    print()
    print(LatencyStats(irq_to_softirq_latencies(events)).render(
        "IRQ -> NET_RX softirq", hz=DEFAULT_HZ))
    print()
    print(LatencyStats(irq_to_copy_latencies(events)).render(
        "IRQ -> copy_to_user", hz=DEFAULT_HZ))
    print()
    print(render_timeline(events, args.cpus, hz=DEFAULT_HZ))
    print()
    print("top producers:")
    for (name, cpu), count in top_producers(events, n=args.top):
        where = "CPU%d" % cpu if cpu >= 0 else "global"
        print("  %8d  %-16s %s" % (count, name, where))
    print()
    print(render_trace_crosscheck(result, _config(args, args.affinity).label()))
    if args.chrome:
        write_chrome_trace(events, args.chrome, hz=DEFAULT_HZ,
                           extra_metadata=_config(args, args.affinity).to_dict())
        print("wrote Chrome trace-event JSON to %s" % args.chrome)
    if args.flamegraph:
        write_flamegraph(events, args.flamegraph)
        print("wrote collapsed stacks to %s" % args.flamegraph)
    return 0


def cmd_profile(args):
    import cProfile
    import pstats

    config = _config(args, args.affinity)
    profiler = cProfile.Profile()
    # Profiled runs always bypass the cache: a cache hit would profile
    # a file read instead of the simulator.
    profiler.enable()
    result = run_experiment(config, cache=None)
    profiler.disable()
    print(result.summary())
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print("wrote pstats dump to %s (open with pstats / snakeviz)"
              % args.out)
    return 0


def cmd_table1(args):
    none = _run(args, "none")
    full = _run(args, "full")
    label = "%s %d" % (args.direction.upper(), args.size)
    print(render_table1(none, full, label))
    return 0


def cmd_table3(args):
    none = _run(args, "none")
    full = _run(args, "full")
    label = "%s %d" % (args.direction.upper(), args.size)
    print(render_table3(none, full, label))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-affinity",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)
    p_run.add_argument("--affinity", choices=EXTENDED_MODES, default="none")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare all affinity modes")
    _add_common(p_cmp)
    p_cmp.add_argument("--extended", action="store_true",
                       help="include the rotate/rss/flow-director "
                            "extension modes (flow-director needs "
                            "--queues > 1)")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="regenerate Figures 3-4 for one direction"
    )
    _add_common(p_sweep, jobs=1)
    p_sweep.add_argument("--sizes", type=int, nargs="+",
                         default=[128, 1024, 8192, 65536])
    p_sweep.add_argument(
        "--modes", default=",".join(AFFINITY_MODES),
        help="comma-separated affinity modes (default the paper's "
             "four: %s; any of %s -- 'toe' adds the transport-offload "
             "column, flow-director needs --queues > 1)"
             % (",".join(AFFINITY_MODES), ", ".join(EXTENDED_MODES)))
    _add_runstore(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_scale = sub.add_parser(
        "scale",
        help="multi-queue scaling study: CPUs x sizes x steering modes",
    )
    p_scale.add_argument("--direction", choices=("tx", "rx"), default="rx")
    p_scale.add_argument(
        "--cpus", type=int, nargs="+", dest="cpus_list",
        default=list(SCALE_CPUS),
        help="machine sizes to sweep (default: %s)"
             % " ".join(str(c) for c in SCALE_CPUS))
    p_scale.add_argument("--sizes", type=int, nargs="+",
                         default=list(SCALE_SIZES))
    p_scale.add_argument(
        "--modes", default=",".join(SCALE_MODES),
        help="comma-separated steering modes (default: %s)"
             % ",".join(SCALE_MODES))
    p_scale.add_argument(
        "--queues", type=int, default=8,
        help="hardware RX queues on the shared 10GbE-class NIC")
    p_scale.add_argument(
        "--connections", type=int, nargs="+", default=[16],
        help="flow populations; one value keeps the classic grid, "
             "several (e.g. 16 1000 10000 100000) add the flow-count "
             "axis.  Keep above --queues so flows share queues and "
             "Flow Director retargets can race")
    p_scale.add_argument(
        "--aggregation", choices=("exact", "class", "auto"),
        default="auto",
        help="per-flow simulation fidelity: 'exact' simulates every "
             "flow, 'class' one representative per RSS flow class, "
             "'auto' (default) aggregates only large populations")
    p_scale.add_argument("--seed", type=int, default=7)
    p_scale.add_argument("--warmup-ms", type=int, default=2)
    p_scale.add_argument("--measure-ms", type=int, default=3)
    _add_runner(p_scale, jobs=0)
    p_scale.add_argument(
        "--coalesce-sweep", action="store_true",
        help="run the ITR coalescing sweep instead of the CPU grid: "
             "(coalesce timer x throttle variant) under the contended "
             "Flow Director configuration, reporting the reordering "
             "each setting lets through (uses the largest --cpus and "
             "message size 16384 unless --sizes names exactly one)")
    p_scale.add_argument(
        "--coalesce-us", type=int, nargs="+",
        default=list(COALESCE_GRID),
        help="coalesce-timer grid in microseconds (default: %s)"
             % " ".join(str(u) for u in COALESCE_GRID))
    p_scale.add_argument(
        "--coalesce-variants", default=",".join(COALESCE_VARIANTS),
        help="comma-separated throttle variants (default: %s)"
             % ",".join(COALESCE_VARIANTS))
    _add_runstore(p_scale)
    p_scale.set_defaults(func=cmd_scale)

    p_off = sub.add_parser(
        "offload",
        help="offload-vs-affinity study: per-bin host cycles per KB, "
             "host stack vs NIC transport offload, at matched "
             "offered load",
    )
    p_off.add_argument(
        "--directions", nargs="+", choices=("tx", "rx"),
        default=["tx", "rx"])
    p_off.add_argument(
        "--modes", default="full,toe",
        help="comma-separated modes, baseline first (default "
             "full,toe)")
    p_off.add_argument("--size", type=int, default=65536)
    p_off.add_argument(
        "--offered-gbps", type=float, default=2.0,
        help="matched offered load per direction; keep it under both "
             "stacks' saturation point so sleep/wake costs stay "
             "comparable (default 2.0)")
    p_off.add_argument("--connections", type=int, default=8)
    p_off.add_argument("--cpus", type=int, default=2)
    p_off.add_argument("--seed", type=int, default=3)
    p_off.add_argument("--warmup-ms", type=int, default=10)
    p_off.add_argument("--measure-ms", type=int, default=14)
    _add_runner(p_off)
    _add_runstore(p_off)
    p_off.set_defaults(func=cmd_offload)

    p_diag = sub.add_parser(
        "diagnose",
        help="automated bottleneck diagnosis: saturate, perturb each "
             "modeled cost, rank by throughput lost",
    )
    p_diag.add_argument("--direction", choices=("tx", "rx"), default="rx")
    p_diag.add_argument("--size", type=int, default=65536,
                        help="ttcp transaction size in bytes")
    p_diag.add_argument(
        "--modes", default="none,full",
        help="comma-separated affinity modes to diagnose "
             "(default none,full; the Table 3 cross-check needs both)")
    p_diag.add_argument(
        "--knobs", default=None,
        help="comma-separated perturbation knobs (default all: %s)"
             % ",".join(PERTURB_SPECS))
    p_diag.add_argument(
        "--factor", type=float, default=DEFAULT_FACTOR,
        help="multiplicative cost severity per knob, > 1 "
             "(default %.2f)" % DEFAULT_FACTOR)
    p_diag.add_argument(
        "--steps", type=int, default=DEFAULT_STEPS,
        help="bisection steps after the ceiling probe (default %d)"
             % DEFAULT_STEPS)
    p_diag.add_argument(
        "--sustain", type=float, default=DEFAULT_SUSTAIN_FRAC,
        help="delivered/offered fraction counted as sustained "
             "(default %.2f)" % DEFAULT_SUSTAIN_FRAC)
    p_diag.add_argument("--connections", type=int, default=8)
    p_diag.add_argument("--cpus", type=int, default=2)
    p_diag.add_argument("--seed", type=int, default=3)
    # Smaller windows than run/sweep: a diagnosis is dozens of cells.
    p_diag.add_argument("--warmup-ms", type=int, default=5)
    p_diag.add_argument("--measure-ms", type=int, default=10)
    _add_runner(p_diag, jobs=0)
    p_diag.add_argument(
        "--json", metavar="PATH", default=None,
        help="report JSON path (default results/diagnosis_<direction>"
             "_<size>_<modes>.json)")
    _add_runstore(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_trace = sub.add_parser(
        "trace", help="trace one run; print analyses, export for "
                      "Perfetto / flamegraphs"
    )
    _add_common(p_trace)
    p_trace.add_argument("--affinity", choices=EXTENDED_MODES,
                         default="full")
    p_trace.add_argument(
        "--capacity", type=int, default=TraceOptions.DEFAULT_CAPACITY,
        help="trace ring size in events (drop-oldest past it)")
    p_trace.add_argument(
        "--events", nargs="+", default=None, metavar="NAME",
        help="only record these tracepoints (default: all)")
    p_trace.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="write Chrome trace-event JSON (load in Perfetto or "
             "chrome://tracing)")
    p_trace.add_argument(
        "--flamegraph", metavar="PATH", default=None,
        help="write collapsed stacks for flamegraph.pl")
    p_trace.add_argument("--top", type=int, default=10,
                         help="rows in the top-producers table")
    p_trace.set_defaults(func=cmd_trace)

    p_prof = sub.add_parser(
        "profile", help="run one experiment under cProfile"
    )
    _add_common(p_prof)
    p_prof.add_argument("--affinity", choices=EXTENDED_MODES, default="full")
    p_prof.add_argument("--top", type=int, default=25,
                        help="rows of the profile table to print")
    p_prof.add_argument(
        "--sort", default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key (default cumulative)")
    p_prof.add_argument(
        "--out", metavar="PATH", default=None,
        help="also dump raw pstats data (for snakeviz / pstats)")
    p_prof.set_defaults(func=cmd_profile)

    p_t1 = sub.add_parser("table1", help="regenerate Table 1 for a corner")
    _add_common(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_t3 = sub.add_parser("table3", help="regenerate Table 3 for a corner")
    _add_common(p_t3)
    p_t3.set_defaults(func=cmd_table3)

    register_runs_cli(sub)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
