"""Run one timed pass of a paper workload in a fresh interpreter.

    python3 perfbench/pass_entry.py <workload> <seed>

Prints the pass as one JSON object.  ``run.py`` starts one such
process per pass, so every pass starts from the same empty heap and
its peak resident memory is its own: the simulator keeps per-process
state that grows by several MB per cell, so passes sharing a process
would report memory that depends on how many passes ran before.
"""

import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hooks  # noqa: E402
import run  # noqa: E402


def main(name, seed):
    spec = run.WORKLOADS[name]
    cell_log = hooks.CellLog()
    cell_log.install()
    # Untimed warm-up: a short cell of the same shape fills the
    # per-process memos the first real cell would otherwise pay.
    run.paper_pass(dict(spec, warmup_ms=1, measure_ms=1), seed)
    result = run.paper_pass(spec, seed, cell_log)
    print(json.dumps({
        "cpu_s": result.cpu_s,
        "wall_s": result.wall_s,
        "events": result.events,
        "setup_s": result.setup_s,
        "hashes": result.hashes,
        "attempted": result.attempted,
        "failed": result.failed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
