"""Run the ``repro-affinity`` CLI with the benchmark's hooks installed.

    PERFBENCH_HOOKS=<dir> [PERFBENCH_TRACE=1] \\
        python3 perfbench/cli_entry.py scale --jobs 2 ...

Exactly what ``python -m repro.cli <args>`` does, plus: every executed
cell appends its construction time, engine and event count to
``<dir>/cells-<pid>.jsonl`` (forked sweep workers included), and
``<dir>/meta.json`` records this process's wall and CPU time, its
workers' CPU time, the peak resident memory of either, and the
run-store directory the command wrote.
With ``PERFBENCH_TRACE=1`` the layer boundaries are discovered and
wrapped first, and every process writes ``<dir>/spans-<pid>.json``.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hooks  # noqa: E402


def _cpu(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv):
    out = os.environ["PERFBENCH_HOOKS"]
    traced = os.environ.get("PERFBENCH_TRACE") == "1"
    import repro.cli

    meta = {}
    tracer = None
    cli_main = repro.cli.main
    if traced:
        cpu0 = _cpu(resource.RUSAGE_SELF)
        found = hooks.discover(
            lambda: hooks.probe_cells(os.path.join(out, "probe")))
        tracer = hooks.Tracer(flush_dir=out)
        meta["present"] = sorted(hooks.install(tracer, found))
        cli_main = tracer.wrap_callable(cli_main, tracer.site("cli", "main"))
        meta["discovery_cpu_s"] = _cpu(resource.RUSAGE_SELF) - cpu0
    hooks.CellLog(out, tracer).install()
    if tracer is not None:
        tracer.reset()
    runs_before = set(_run_dirs())
    wall0 = time.perf_counter()
    cpu0 = _cpu(resource.RUSAGE_SELF)
    children0 = _cpu(resource.RUSAGE_CHILDREN)
    rc = cli_main(argv)
    meta.update(
        rc=rc,
        main_wall_s=time.perf_counter() - wall0,
        main_cpu_s=_cpu(resource.RUSAGE_SELF) - cpu0,
        children_cpu_s=_cpu(resource.RUSAGE_CHILDREN) - children0,
        peak_rss_kb=max(resource.getrusage(who).ru_maxrss for who in (
            resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)),
        run_dir=next(iter(sorted(set(_run_dirs()) - runs_before)), None),
    )
    if tracer is not None:
        tracer.flush()
    with open(os.path.join(out, "meta.json"), "w") as fh:
        json.dump(meta, fh)
    return rc


def _run_dirs():
    root = os.environ.get("REPRO_RUNS_DIR")
    if not root or not os.path.isdir(root):
        return []
    return [os.path.join(root, name) for name in os.listdir(root)]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
