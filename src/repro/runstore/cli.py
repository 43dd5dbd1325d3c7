"""``repro-affinity runs``: inspect, resume, query, and collect runs.

Subcommands::

    runs list                 table of runs (status, cells, command)
    runs show <run_id>        manifest + journal summary
    runs resume <run_id>      re-drive the recorded command; journaled
                              cells replay (never re-execute) and the
                              final report is byte-identical to an
                              uninterrupted run
    runs index                rebuild index.sqlite from run dirs
    runs query [...]          cross-run cell query via the index
    runs gc [--keep N]        delete old terminal runs, rebuild index

The parser lives in :mod:`repro.cli`; this module, and with it the
run store and ``sqlite3``, loads only when a ``runs`` subcommand
executes.  ``resume`` imports the study commands lazily to avoid the
circular import.
"""

import argparse
import os
import shutil
import sys
import time

from repro.runstore.index import query_cells, query_sql, rebuild_index
from repro.runstore.locks import LockHeldError
from repro.runstore.store import (
    RunStore,
    RunStoreError,
    TERMINAL_STATUSES,
    journal_stats,
    list_runs,
    render_show,
    summarize_manifest,
)


def _err(msg):
    print("[repro] %s" % msg, file=sys.stderr)


def _run_dir(root, run_id):
    from repro.runstore.store import runs_root

    return os.path.join(runs_root(root), run_id)


def cmd_runs_list(args):
    rows = list_runs(args.root)
    if args.status:
        rows = [r for r in rows if r[2] == args.status]
    if not rows:
        print("no runs")
        return 0
    print("%-32s %-9s %-11s %7s  %s"
          % ("run", "command", "status", "cells", "created"))
    for run_id, manifest, status in rows:
        n_cells = journal_stats(_run_dir(args.root, run_id))
        print("%-32s %-9s %-11s %7d  %s"
              % (run_id, manifest.get("command", "?"), status,
                 n_cells, manifest.get("created_iso", "?")))
    return 0


def cmd_runs_show(args):
    try:
        store = RunStore.load(args.run_id, root=args.root)
    except RunStoreError as exc:
        _err(str(exc))
        return 2
    print(render_show(store))
    return 0


def cmd_runs_resume(args):
    from repro import cli as main_cli

    # Every command name ``cli._run_study`` journals under; the
    # recorded args carry ``coalesce_sweep=True`` for "coalesce".
    dispatch = {
        "sweep": main_cli.cmd_sweep,
        "scale": main_cli.cmd_scale,
        "coalesce": main_cli.cmd_scale,
        "offload": main_cli.cmd_offload,
        "diagnose": main_cli.cmd_diagnose,
    }
    # Read-only first: a run with no driver keeps its manifest as is.
    try:
        command = RunStore.load(
            args.run_id, root=args.root).manifest.get("command")
        func = dispatch.get(command)
        if func is not None:
            store = RunStore.resume(args.run_id, root=args.root)
    except (RunStoreError, LockHeldError) as exc:
        _err(str(exc))
        return 2
    if func is None:
        _err("run %s was produced by %r, which has no resume driver"
             % (args.run_id, command))
        return 2
    executed, replayed = summarize_manifest(store.manifest)
    _err("resuming %s (%s): %d cell(s) journaled, %d executed / %d "
         "replayed across %d prior session(s)"
         % (store.run_id, command, store.journal.n_cells,
            executed, replayed,
            len(store.manifest.get("sessions", [])) - 1))
    ns = argparse.Namespace(**store.manifest.get("args", {}))
    if args.jobs is not None:
        ns.jobs = args.jobs
    ns.run_id = None
    ns.no_runstore = False
    ns._store = store
    return func(ns)


def cmd_runs_index(args):
    n_runs, n_cells = rebuild_index(args.root)
    print("indexed %d run(s), %d cell(s)" % (n_runs, n_cells))
    return 0


def cmd_runs_query(args):
    if args.sql:
        try:
            rows = query_sql(args.sql, root=args.root)
        except Exception as exc:
            _err("query failed: %s" % exc)
            return 2
        for row in rows:
            print(" ".join("%s=%s" % kv for kv in row.items()))
        return 0
    rows = query_cells(
        root=args.root,
        command=args.command_filter,
        status=args.status,
        direction=args.direction,
        mode=args.mode,
        size=args.size,
        cpus=args.cpus,
        limit=args.limit,
    )
    if not rows:
        print("no matching cells")
        return 0
    print("%-32s %-19s %-22s %9s %9s %6s"
          % ("run", "created", "cell", "Gb/s", "GHz/Gbps", "util"))
    for row in rows:
        gbps = row.get("throughput_gbps")
        cost = row.get("cost_ghz_per_gbps")
        util = row.get("utilization")
        print("%-32s %-19s %-22s %9s %9s %6s"
              % (
                  row["run_id"],
                  row.get("created_iso") or "?",
                  row.get("label") or "?",
                  "--" if gbps is None else "%.3f" % gbps,
                  "--" if cost is None else "%.2f" % cost,
                  "--" if util is None else "%.0f%%" % (util * 100),
              ))
    return 0


def cmd_runs_gc(args):
    rows = list_runs(args.root)
    keep = max(0, args.keep)
    removable = []
    kept = 0
    for run_id, _manifest, status in rows:  # newest first
        terminal = status in TERMINAL_STATUSES or (
            status == "crashed" and args.include_crashed
        )
        if not terminal:
            continue
        kept += 1
        if kept > keep:
            removable.append((run_id, status))
    if args.days:
        cutoff = time.time() - args.days * 86400.0
        by_id = {r[0]: r[1] for r in rows}
        removable = [
            (run_id, status) for run_id, status in removable
            if (by_id[run_id].get("created") or 0) < cutoff
        ]
    if not removable:
        print("nothing to collect (%d run(s) kept)" % len(rows))
        return 0
    for run_id, status in removable:
        if args.dry_run:
            print("would remove %s (%s)" % (run_id, status))
        else:
            shutil.rmtree(_run_dir(args.root, run_id),
                          ignore_errors=True)
            print("removed %s (%s)" % (run_id, status))
    if not args.dry_run:
        rebuild_index(args.root)
    return 0


def run(args):
    """Execute the ``runs`` subcommand that ``args`` names."""
    return {
        "list": cmd_runs_list,
        "show": cmd_runs_show,
        "resume": cmd_runs_resume,
        "index": cmd_runs_index,
        "query": cmd_runs_query,
        "gc": cmd_runs_gc,
    }[args.runs_command](args)
