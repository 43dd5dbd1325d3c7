"""Multi-queue scaling study: CPUs x sizes x steering modes.

The paper's four affinity modes answer "who owns a flow's interrupt
and protocol work?" by configuration; RSS and Flow Director answer it
in hardware.  ``run_scale_sweep`` runs the follow-on experiment: one
shared 10GbE-class multi-queue NIC, ``n_cpus`` swept across machine
sizes, flows steered by static RSS or by the adaptive Flow Director
-- and reports throughput, GHz/Gbps cost, and the reordering the
adaptive mode's stale-filter races inject (Wu et al., "Why Does Flow
Director Cause Packet Reordering?").

Connection count deliberately exceeds the queue count: flows must
share queues for consumer migrations (and hence filter retargets) to
happen at all, which is also the regime real servers run in.
"""

from repro.core.experiment import ExperimentConfig
from repro.core.metrics import dedupe_cells

#: Machine sizes the study sweeps (the tentpole's n_cpus axis).
SCALE_CPUS = (2, 4, 8, 16)

#: Transaction sizes: small / paper-middle / large.
SCALE_SIZES = (4096, 16384, 65536)

#: The two hardware steering modes under study.
SCALE_MODES = ("rss", "flow-director")

#: The flow-population axis: the paper-era handful up through the
#: 100K-flow regime that flow-class aggregation makes tractable.
SCALE_CONNECTIONS = (16, 1000, 10000, 100000)

#: ITR coalesce-timer grid (microseconds): latency-tuned, the ixgbe
#: default neighbourhood, and a bulk-throughput setting.
COALESCE_GRID = (5, 25, 100)

#: Throttle variants: the static timer, the adaptive (e1000/ixgbe
#: shape) throttle, and Wu et al.'s reorder-absorbing hold.
COALESCE_VARIANTS = ("baseline", "adaptive", "absorb")


def run_scale_sweep(
    direction="rx",
    cpus=SCALE_CPUS,
    sizes=SCALE_SIZES,
    modes=SCALE_MODES,
    n_queues=8,
    n_connections=16,
    connections=None,
    aggregation="auto",
    runner=None,
    **config_kwargs
):
    """Run the (n_cpus x size x mode) multi-queue grid.

    ``runner`` follows :func:`repro.core.metrics.run_size_sweep`: the
    :class:`~repro.core.parallel.SweepRunner` that executes the cells
    (default ``SweepRunner(jobs=1)``: serial, uncached, unjournaled).
    Cells that failed despite retries map to ``None`` and are named
    in ``runner.report``.

    ``connections`` adds the flow-population axis: a sequence of flow
    counts (e.g. :data:`SCALE_CONNECTIONS`) extends the grid to
    (n_cpus x size x mode x n_conn) and the returned keys to
    4-tuples.  ``None`` keeps the single-population study --
    ``n_connections`` flows, 3-tuple keys -- unchanged.
    ``aggregation`` is handed to every cell's config; the default
    ``"auto"`` switches large populations to flow-class aggregation
    so the 100K-flow cells stay tractable.

    Returns ``{(n_cpus, size, mode): ExperimentResult}`` (or the
    4-tuple-keyed dict when ``connections`` is given).
    """
    conn_axis = (
        (n_connections,) if connections is None else tuple(connections)
    )
    for n_conn in conn_axis:
        if n_conn < n_queues:
            raise ValueError(
                "n_connections=%d is below n_queues=%d: every hardware "
                "queue needs at least one flow (and queue-sharing, the "
                "regime under study, needs more) -- raise the "
                "connection count or drop --queues" % (n_conn, n_queues)
            )
    if connections is None:
        cells = dedupe_cells(
            (n_cpus, size, mode)
            for n_cpus in cpus for size in sizes for mode in modes
        )
        expanded = [cell + (n_connections,) for cell in cells]
    else:
        cells = dedupe_cells(
            (n_cpus, size, mode, n_conn)
            for n_cpus in cpus for size in sizes for mode in modes
            for n_conn in conn_axis
        )
        expanded = cells
    configs = [
        ExperimentConfig(
            direction=direction,
            message_size=size,
            affinity=mode,
            n_cpus=n_cpus,
            n_queues=n_queues,
            n_connections=n_conn,
            aggregation=aggregation,
            **config_kwargs
        )
        for n_cpus, size, mode, n_conn in expanded
    ]
    if runner is None:
        from repro.core.parallel import SweepRunner

        runner = SweepRunner(jobs=1)
    return dict(zip(cells, runner.run(configs)))


def coalesce_overrides(coalesce_us, variant):
    """The ``net_overrides`` patch for one coalesce-sweep cell."""
    if variant not in COALESCE_VARIANTS:
        raise ValueError(
            "unknown coalesce variant %r (choose from %s)"
            % (variant, ", ".join(COALESCE_VARIANTS))
        )
    overrides = {"coalesce_us": coalesce_us}
    if variant == "adaptive":
        overrides["itr_adaptive"] = True
    elif variant == "absorb":
        overrides["itr_absorb"] = True
    return overrides


def run_coalesce_sweep(
    direction="rx",
    message_size=16384,
    grid=COALESCE_GRID,
    variants=COALESCE_VARIANTS,
    n_cpus=16,
    n_queues=8,
    n_connections=16,
    warmup_ms=2,
    measure_ms=3,
    seed=7,
    runner=None,
    **config_kwargs
):
    """Run the (coalesce_us x throttle-variant) grid under Flow Director.

    The sweep's question is Wu et al.'s: interrupt moderation batches
    the frames a stale Flow Director filter sprayed across two queues,
    so the *timer setting* decides whether a retarget race surfaces as
    reordering.  Every cell therefore runs the contended Flow Director
    configuration (more flows than queues, consumers migrating) and
    reports the receiver's duplicate-ACK count per setting: a short
    timer delivers the straggler queue's frames before the gap widens,
    a long timer (and the adaptive throttle's bulk mode, which
    stretches to 4x the base) lets it grow, and the absorb variant
    holds the old queue's IRQ across the retarget window to soak the
    reorder up again.

    ``runner`` follows :func:`repro.core.metrics.run_size_sweep`
    (default ``SweepRunner(jobs=1)``; failed cells map to ``None`` and
    are named in ``runner.report``).

    Returns ``{(coalesce_us, variant): ExperimentResult}``; read each
    cell's ``result["steering"]`` for ``dup_acks_out`` /
    ``reorder_depth_peak`` and ``result["offload"]["itr_holds"]`` for
    the absorb variant's hold count.
    """
    cells = dedupe_cells(
        ((us, variant) for variant in variants for us in grid),
        axes="coalesce-us/variants",
    )
    configs = [
        ExperimentConfig(
            direction=direction,
            message_size=message_size,
            affinity="flow-director",
            n_cpus=n_cpus,
            n_queues=n_queues,
            n_connections=n_connections,
            warmup_ms=warmup_ms,
            measure_ms=measure_ms,
            seed=seed,
            net_overrides=coalesce_overrides(us, variant),
            **config_kwargs
        )
        for us, variant in cells
    ]
    if runner is None:
        from repro.core.parallel import SweepRunner

        runner = SweepRunner(jobs=1)
    return dict(zip(cells, runner.run(configs)))


def scaling_efficiency(sweep, sizes, cpus, mode, n_conn=None):
    """Per-size speedup-per-CPU relative to the smallest machine.

    ``{size: [throughput(n)/throughput(min(cpus)) / (n/min(cpus))]}``
    -- 1.0 is perfect linear scaling, values sag as the wire saturates
    or steering overheads bite.  ``None`` entries mark failed cells.
    The baseline is ``min(cpus)``, not ``cpus[0]``: an unsorted
    ``--cpus 16 2 4`` must still normalize against the smallest
    machine, not whichever one was listed first.

    ``n_conn`` selects one population from a connections-axis sweep
    (4-tuple keys); ``None`` reads the classic 3-tuple keys.
    """
    def cell(n, size):
        key = (n, size, mode) if n_conn is None else (n, size, mode, n_conn)
        return sweep.get(key)

    out = {}
    base_cpus = min(cpus)
    for size in sizes:
        base = cell(base_cpus, size)
        row = []
        for n in cpus:
            r = cell(n, size)
            if r is None or base is None or base.throughput_gbps <= 0:
                row.append(None)
            else:
                row.append(
                    (r.throughput_gbps / base.throughput_gbps)
                    / (n / float(base_cpus))
                )
        out[size] = row
    return out
