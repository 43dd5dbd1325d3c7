"""Text renderers for every table and figure the paper reports.

Each ``render_*`` returns a monospace string; the benchmark harness
prints them so that running the benches regenerates the paper's
artefacts side by side with the qualitative checks.
"""

from repro.analysis.tables import TextTable, format_pct
from repro.core.characterization import BIN_LABELS, STACK_BINS, characterize
from repro.core.clears import top_clear_functions
from repro.core.correlation import critical_value
from repro.core.indicators import impact_indicators
from repro.core.lockstudy import SPINLOCK_DISASSEMBLY
from repro.core.speedup import improvement_table


def render_figure3(sweep, sizes, modes, direction):
    """Figure 3: bandwidth and CPU utilization vs transaction size.

    Cells whose experiment failed (``None`` in ``sweep``, from a
    fault-tolerant :class:`~repro.core.parallel.SweepRunner`) render
    as ``FAIL``/``--`` instead of aborting the whole figure.
    """
    headers = ["size"]
    for mode in modes:
        headers.append("%s Mb/s" % mode)
    for mode in modes:
        headers.append("%s util" % mode)
    table = TextTable(
        headers,
        title="Figure 3 (%s): bandwidth and CPU utilization vs size"
        % direction.upper(),
    )
    for size in sizes:
        cells = [str(size)]
        for mode in modes:
            r = sweep.get((size, mode))
            cells.append("FAIL" if r is None else "%.0f" % r.throughput_mbps)
        for mode in modes:
            r = sweep.get((size, mode))
            cells.append("--" if r is None else format_pct(r.utilization, 0))
        table.add_row(*cells)
    return table.render()


def render_figure4(sweep, sizes, modes, direction):
    """Figure 4: GHz/Gbps cost vs transaction size.

    Failed (``None``) cells render as ``FAIL``.
    """
    table = TextTable(
        ["size"] + ["%s" % m for m in modes],
        title="Figure 4 (%s): cost in GHz/Gbps" % direction.upper(),
    )
    for size in sizes:
        row = [str(size)]
        for mode in modes:
            r = sweep.get((size, mode))
            row.append("FAIL" if r is None else "%.2f" % r.cost_ghz_per_gbps)
        table.add_row(*row)
    return table.render()


def render_table1(result_none, result_full, label):
    """Table 1: per-bin characterization, no vs full affinity."""
    rows_none = characterize(result_none)
    rows_full = characterize(result_full)
    table = TextTable(
        ["bin", "%cyc no", "%cyc full", "CPI no", "CPI full",
         "MPI no", "MPI full", "%br no", "%br full",
         "%misp no", "%misp full"],
        title="Table 1 (%s): baseline characterization" % label,
    )
    for bin in STACK_BINS + ("overall",):
        a, b = rows_none[bin], rows_full[bin]
        table.add_row(
            BIN_LABELS.get(bin, "Overall"),
            format_pct(a.pct_cycles), format_pct(b.pct_cycles),
            "%.2f" % a.cpi, "%.2f" % b.cpi,
            "%.4f" % a.mpi, "%.4f" % b.mpi,
            format_pct(a.pct_branches), format_pct(b.pct_branches),
            format_pct(a.pct_mispredicted, 2), format_pct(b.pct_mispredicted, 2),
        )
    return table.render()


def render_table2(comparison):
    """Table 2: the spinlock study -- implementation plus measurement."""
    lines = ["Table 2: spinlock implementation (as modelled)"]
    for addr, instr, comment in SPINLOCK_DISASSEMBLY:
        lines.append("  %-9s %-28s ; %s" % (addr, instr, comment))
    lines.append("")
    table = TextTable(
        ["metric", "no aff", "full aff"],
        title="Measured lock-bin behaviour",
    )
    table.add_row(
        "branches per Mbit",
        "%.0f" % (comparison.branches_per_bit("none") * 1e6),
        "%.0f" % (comparison.branches_per_bit("full") * 1e6),
    )
    table.add_row(
        "mispredict ratio",
        format_pct(comparison.mispredict_ratio("none"), 2),
        format_pct(comparison.mispredict_ratio("full"), 2),
    )
    table.add_row(
        "contended acquisitions",
        format_pct(comparison.contention("none"), 2),
        format_pct(comparison.contention("full"), 2),
    )
    table.add_row(
        "spin cycles per Mbit",
        "%.0f" % (comparison.spin_cycles_per_bit("none") * 1e6),
        "%.0f" % (comparison.spin_cycles_per_bit("full") * 1e6),
    )
    table.add_row(
        "full-aff branches / no-aff",
        "", format_pct(comparison.branch_collapse_ratio()),
    )
    lines.append(table.render())
    return "\n".join(lines)


def render_figure5(labeled_results, costs):
    """Figure 5: impact indicators for several runs side by side."""
    labels = [label for label, _ in labeled_results]
    table = TextTable(
        ["event", "cost"] + labels,
        title="Figure 5: performance impact indicators (% of run time)",
    )
    columns = {
        label: impact_indicators(result, costs)
        for label, result in labeled_results
    }
    n_rows = len(columns[labels[0]])
    for i in range(n_rows):
        name, unit, _ = columns[labels[0]][i]
        cells = [name, ("%.2f" % unit) if unit < 1 else "%d" % unit]
        for label in labels:
            cells.append(format_pct(columns[label][i][2]))
        table.add_row(*cells)
    return table.render()


def render_table3(result_none, result_full, label):
    """Table 3: per-bin improvements in cycles / LLC / clears."""
    rows = improvement_table(result_none, result_full)
    table = TextTable(
        ["bin", "%time", "CPI", "MPIx1000", "cycles", "LLC", "clears"],
        title="Table 3 (%s): improvements no->full affinity" % label,
    )
    for bin in STACK_BINS + ("overall",):
        r = rows[bin]
        table.add_row(
            BIN_LABELS.get(bin, "Overall"),
            format_pct(r.pct_time),
            "%.1f" % r.cpi,
            "%.1f" % (r.mpi * 1000.0),
            format_pct(r.cycles),
            format_pct(r.llc),
            format_pct(r.clears),
        )
    return table.render()


def render_table4(result, label, n_cpus=2, top_n=8):
    """Table 4: per-CPU functions with the most machine clears."""
    blocks = ["Table 4 (%s): machine-clear hotspots" % label]
    for cpu in range(n_cpus):
        table = TextTable(
            ["clears", "%", "symbol", "bin"], title="CPU%d" % cpu
        )
        for clears, pct, name, bin in top_clear_functions(result, cpu, top_n):
            table.add_row(str(clears), "%.2f" % pct, name, bin)
        blocks.append(table.render())
    return "\n\n".join(blocks)


def render_table5(correlations, exact=True):
    """Table 5: Spearman rank correlations."""
    table = TextTable(
        ["corner", "rho(LLC)", "rho(clears)", "significant"],
        title="Table 5: rank correlation of cycle improvements vs events",
    )
    for corr in correlations:
        table.add_row(
            corr.label,
            "%.2f" % corr.rho_llc,
            "%.2f" % corr.rho_clears,
            "yes" if corr.significant_llc(exact) and
            corr.significant_clears(exact) else "no",
        )
    footer = (
        "critical value (p=0.05, one-tailed, n=%d): %.3f exact"
        " (paper printed %.3f)"
        % (correlations[0].n if correlations else 7,
           critical_value(exact=True), critical_value(exact=False))
    )
    return table.render() + "\n" + footer


def render_trace_crosscheck(result, label):
    """Trace-vs-``/proc`` cross-check for a traced run.

    This is the trace-side retelling of the Table 4 story: under full
    affinity the rescheduling IPIs (and the machine clears they induce)
    move off CPU0 and follow the steered interrupts, and the per-CPU
    tracepoint counts must agree exactly with the
    :class:`~repro.prof.procstat.ProcInterrupts` ledger the kernel
    layer keeps.  A mismatch means either dropped ring events (run
    again with a larger ``capacity``) or a genuinely missing
    tracepoint.

    ``result`` must come from a traced run (``ExperimentConfig(trace=
    ...)``); its plain-data payload carries the summarized trace under
    ``result["trace"]``.
    """
    trace = result["trace"]
    n_cpus = len(result.ipis)
    table = TextTable(
        ["counter"] + ["CPU%d" % i for i in range(n_cpus)] + ["match"],
        title="Trace cross-check (%s): tracepoints vs /proc ledger" % label,
    )
    pairs = [
        ("device IRQs", trace["irq_entries_per_cpu"], result.device_irqs),
        ("resched IPIs", trace["ipis_per_cpu"], result.ipis),
    ]
    for name, traced, proc in pairs:
        ok = list(traced) == list(proc)
        table.add_row("%s [trace]" % name, *([str(c) for c in traced] + [""]))
        table.add_row(
            "%s [/proc]" % name,
            *([str(c) for c in proc] + ["yes" if ok else "NO"])
        )
    lines = [table.render()]
    mig_trace, mig_sched = trace["migrations"], result["migrations"]
    lines.append(
        "migrations: trace=%d scheduler=%d (%s)"
        % (mig_trace, mig_sched,
           "match" if mig_trace == mig_sched else "MISMATCH")
    )
    if trace["dropped"]:
        lines.append(
            "WARNING: ring dropped %d of %d events -- counts above are "
            "incomplete; re-run with a larger trace capacity"
            % (trace["dropped"], trace["emitted"])
        )
    ipis = result.ipis
    total_ipis = sum(ipis)
    if total_ipis:
        lines.append(
            "IPI placement: %d total, per-CPU %s -- IPI-induced machine "
            "clears land on the receiving CPUs (Table 4's attribution)"
            % (total_ipis, ipis)
        )
    else:
        lines.append(
            "IPI placement: none in the window -- no cross-CPU wakeups "
            "to induce machine clears (the full-affinity end state)"
        )
    return "\n".join(lines)


def render_scale_table(sweep, cpus, sizes, modes, direction, n_queues,
                       connections=None, live_resources=True):
    """The multi-queue scaling study's four tables.

    Throughput and GHz/Gbps cost per (n_cpus, size, mode), the
    reordering table -- reorder-depth peak, SUT duplicate ACKs, peer
    spurious retransmits and Flow Director retargets, the measurable
    difference between static RSS (always zero) and the adaptive Flow
    Director (non-zero whenever consumers migrate) -- and the
    simulation-resource table (simulated representatives per cell,
    plus wall-clock and peak RSS; ``--`` for cells served from the
    result cache, which carry no live-run resource readings).

    ``connections`` (a sequence of flow counts) reads the 4-tuple keys
    of a connections-axis sweep and adds a flows column; ``None``
    reads classic 3-tuple keys.  Failed (``None``) cells render as
    ``FAIL``/``--``.

    ``live_resources=False`` drops the wall-clock and RSS columns.
    They are measurements of *this process*, not of the simulated
    machine -- two runs of the same grid never agree on them -- so
    any report persisted under the run store's byte-identical-resume
    guarantee must render without them.
    """
    conn_axis = (None,) if connections is None else tuple(connections)

    def cell(n_cpus, size, mode, n_conn):
        if n_conn is None:
            return sweep.get((n_cpus, size, mode))
        return sweep.get((n_cpus, size, mode, n_conn))

    def row_label(n_cpus, n_conn):
        return (str(n_cpus) if n_conn is None
                else "%d x %d" % (n_cpus, n_conn))

    blocks = []
    lead = "cpus" if connections is None else "cpus x flows"
    tput = TextTable(
        [lead] + ["%s %d" % (m, s) for s in sizes for m in modes],
        title="Scale (%s, %d queues): throughput Mb/s"
        % (direction.upper(), n_queues),
    )
    cost = TextTable(
        [lead] + ["%s %d" % (m, s) for s in sizes for m in modes],
        title="Scale (%s, %d queues): cost GHz/Gbps"
        % (direction.upper(), n_queues),
    )
    for n_cpus in cpus:
        for n_conn in conn_axis:
            label = row_label(n_cpus, n_conn)
            tput_row, cost_row = [label], [label]
            for size in sizes:
                for mode in modes:
                    r = cell(n_cpus, size, mode, n_conn)
                    tput_row.append(
                        "FAIL" if r is None else "%.0f" % r.throughput_mbps
                    )
                    cost_row.append(
                        "FAIL" if r is None
                        else "%.2f" % r.cost_ghz_per_gbps
                    )
            tput.add_row(*tput_row)
            cost.add_row(*cost_row)
    blocks.append(tput.render())
    blocks.append(cost.render())

    reorder = TextTable(
        [lead, "size", "mode", "reorder", "dupACK", "peer rexmit",
         "fd retargets"],
        title="Scale (%s, %d queues): steering-induced reordering"
        % (direction.upper(), n_queues),
    )
    for n_cpus in cpus:
        for n_conn in conn_axis:
            for size in sizes:
                for mode in modes:
                    r = cell(n_cpus, size, mode, n_conn)
                    label = row_label(n_cpus, n_conn)
                    if r is None:
                        reorder.add_row(label, str(size), mode,
                                        "--", "--", "--", "--")
                        continue
                    s = r["steering"]
                    reorder.add_row(
                        label, str(size), mode,
                        str(s["reorder_depth_peak"]),
                        str(s["dup_acks_out"]),
                        str(s["peer_retransmits"]),
                        str(s["fd_retargets"]),
                    )
    blocks.append(reorder.render())

    columns = [lead, "size", "mode", "simulated"]
    if live_resources:
        columns += ["wall s", "peak RSS MB"]
    resources = TextTable(
        columns,
        title="Scale (%s, %d queues): simulation resources per cell"
        % (direction.upper(), n_queues),
    )
    for n_cpus in cpus:
        for n_conn in conn_axis:
            for size in sizes:
                for mode in modes:
                    r = cell(n_cpus, size, mode, n_conn)
                    label = row_label(n_cpus, n_conn)
                    if r is None:
                        resources.add_row(label, str(size), mode, "--",
                                          *(("--", "--")
                                            if live_resources else ()))
                        continue
                    flows = r.payload_get("flows")
                    row = [label, str(size), mode,
                           "%d/%d" % (flows["n_simulated"],
                                      flows["n_flows"])
                           if flows else "exact"]
                    if live_resources:
                        wall = getattr(r, "wall_s", None)
                        rss = getattr(r, "peak_rss_kb", None)
                        row += [
                            "--" if wall is None else "%.1f" % wall,
                            "--" if rss is None
                            else "%.0f" % (rss / 1024.0),
                        ]
                    resources.add_row(*row)
    blocks.append(resources.render())
    return "\n\n".join(blocks)


def render_offload_table(study, modes, directions=("tx", "rx")):
    """The offload-vs-affinity study's two tables.

    First the per-bin cycles/KB comparison -- how much Copies /
    Interface / Engine / Driver work per byte each mode pays at the
    matched offered load -- with the last column giving the change
    from the first mode (the host-stack baseline) to the last (the
    offload mode).  Then the NIC-engine accounting: where the cycles
    that left the host went (segmentation, GRO merge, ACK processing,
    receive placement), plus the offload event counts.

    ``study`` is :func:`repro.core.offload.run_offload_study`'s
    ``{(direction, mode): ExperimentResult}``; failed (``None``) cells
    render as ``FAIL``/``--``.
    """
    from repro.core.offload import (
        OFFLOAD_BINS,
        bin_cycles_per_kb,
        engine_cycles_per_kb,
    )

    base_mode, cmp_mode = modes[0], modes[-1]
    blocks = []
    for direction in directions:
        table = TextTable(
            ["bin"] + ["%s cyc/KB" % m for m in modes]
            + ["%s vs %s" % (cmp_mode, base_mode)],
            title="Offload study (%s): per-bin host cycles per KB"
            % direction.upper(),
        )
        for bin in OFFLOAD_BINS:
            row = [BIN_LABELS.get(bin, bin)]
            per_kb = {}
            for mode in modes:
                r = study.get((direction, mode))
                if r is None:
                    row.append("FAIL")
                else:
                    per_kb[mode] = bin_cycles_per_kb(r, bin)
                    row.append("%.1f" % per_kb[mode])
            if base_mode in per_kb and cmp_mode in per_kb \
                    and per_kb[base_mode] > 0:
                row.append(format_pct(
                    per_kb[cmp_mode] / per_kb[base_mode] - 1.0
                ))
            else:
                row.append("--")
            table.add_row(*row)
        row = ["NIC engine"]
        for mode in modes:
            r = study.get((direction, mode))
            row.append("FAIL" if r is None
                       else "%.1f" % engine_cycles_per_kb(r))
        row.append("--")
        table.add_row(*row)
        row = ["throughput Mb/s"]
        for mode in modes:
            r = study.get((direction, mode))
            row.append("FAIL" if r is None
                       else "%.0f" % r.throughput_mbps)
        row.append("--")
        table.add_row(*row)
        blocks.append(table.render())

    engine = TextTable(
        ["cell", "seg", "gro", "ack", "rcv", "LSO bursts", "GRO merged",
         "NIC ACKs"],
        title="Offload study: NIC engine cycle split and event counts",
    )
    for direction in directions:
        for mode in modes:
            r = study.get((direction, mode))
            off = r.payload_get("offload") if r is not None else None
            if off is None:
                engine.add_row("%s %s" % (direction, mode),
                               *(["--"] * 7))
                continue
            engine.add_row(
                "%s %s" % (direction, mode),
                str(off["engine_seg_cycles"]),
                str(off["engine_gro_cycles"]),
                str(off["engine_ack_cycles"]),
                str(off["engine_rcv_cycles"]),
                str(off["lso_frames"]),
                str(off["gro_merged"]),
                str(off["toe_acks"]),
            )
    blocks.append(engine.render())
    return "\n\n".join(blocks)


def render_coalesce_table(sweep, grid, variants, direction, n_queues):
    """The ITR coalescing sweep's table.

    One row per (coalesce_us, throttle-variant) cell of
    :func:`repro.core.scale.run_coalesce_sweep`: throughput, then the
    reordering signature the timer setting produces under the Flow
    Director retarget race -- duplicate ACKs out, peer spurious
    retransmits, reorder-depth peak, Flow Director retargets, and the
    absorb variant's IRQ holds.  Failed (``None``) cells render as
    ``FAIL``/``--``.
    """
    table = TextTable(
        ["us", "variant", "Mb/s", "dupACK", "peer rexmit", "reorder",
         "fd retargets", "itr holds"],
        title="ITR coalescing sweep (%s, %d queues, flow-director)"
        % (direction.upper(), n_queues),
    )
    for variant in variants:
        for us in grid:
            r = sweep.get((us, variant))
            if r is None:
                table.add_row(str(us), variant, "FAIL",
                              *(["--"] * 5))
                continue
            s = r["steering"]
            off = r.payload_get("offload")
            table.add_row(
                str(us), variant,
                "%.0f" % r.throughput_mbps,
                str(s["dup_acks_out"]),
                str(s["peer_retransmits"]),
                str(s["reorder_depth_peak"]),
                str(s["fd_retargets"]),
                "0" if off is None else str(off["itr_holds"]),
            )
    return table.render()
