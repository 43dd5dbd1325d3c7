"""Modern-NIC offload study: transport offload vs processor affinity.

The paper attacks stack cost by *placement* -- pin the interrupt and
the process so the protocol's cache lines stop migrating.  The modern
NIC attacks the same bins by *removal*: LSO segments on the NIC,
GRO coalesces in the ring, a TOE runs the whole transport datapath on
the offload engine.  ``run_offload_study`` puts the two on one axis:
the same workload under host-stack affinity modes and under ``toe``
(which is deliberately affinity-independent, like ``none``), so the
report can ask how much of Table 3's improvement offload obtains
without pinning anything.

The study runs at a **matched offered load** rather than closed-loop
saturation.  A saturated host never sleeps, so its Interface bin
(sock_wait, schedule, wakeups, IPIs) is artificially tiny; paced at
the same offered rate, both stacks block and wake comparably and the
per-KB bin costs are an apples-to-apples measure of work per byte.
"""

from repro.core.experiment import ExperimentConfig
from repro.core.metrics import dedupe_cells
from repro.core.parallel import SweepRunner
from repro.cpu.events import CYCLES

#: The study's canonical cell: the paper's largest transaction size,
#: paced well under either stack's saturation point.
OFFLOAD_SIZE = 65536
OFFLOAD_OFFERED_GBPS = 2.0

#: Host-stack baseline vs full transport offload.
OFFLOAD_MODES = ("full", "toe")
OFFLOAD_DIRECTIONS = ("tx", "rx")

#: The stack bins offload removes work from: payload copies (direct
#: data placement), socket sleep/wake (completion moderation), TCP
#: protocol processing (engine-side segmentation/ACK/receive).
OFFLOAD_BINS = ("copies", "interface", "engine", "driver")


def run_offload_study(
    modes=OFFLOAD_MODES,
    directions=OFFLOAD_DIRECTIONS,
    message_size=OFFLOAD_SIZE,
    offered_gbps=OFFLOAD_OFFERED_GBPS,
    n_connections=8,
    n_cpus=2,
    warmup_ms=10,
    measure_ms=14,
    seed=3,
    runner=None,
    **config_kwargs
):
    """Run the (direction x mode) offload-vs-affinity grid.

    Every cell is paced at ``offered_gbps`` (see the module docstring
    for why matched load, not saturation).  ``modes`` takes any
    :data:`~repro.core.modes.EXTENDED_MODES` entry; ``toe`` needs no
    extra configuration -- :func:`~repro.core.experiment.run_experiment`
    flips ``NetParams.toe`` when it sees the mode.  ``runner``
    follows :func:`repro.core.metrics.run_size_sweep` (default
    ``SweepRunner(jobs=1)``; failed cells map to ``None`` and are
    named in ``runner.report``).

    Returns ``{(direction, mode): ExperimentResult}``.
    """
    cells = dedupe_cells(
        ((d, m) for d in directions for m in modes),
        axes="directions/modes",
    )
    configs = [
        ExperimentConfig(
            direction=direction,
            message_size=message_size,
            affinity=mode,
            n_connections=n_connections,
            n_cpus=n_cpus,
            warmup_ms=warmup_ms,
            measure_ms=measure_ms,
            seed=seed,
            offered_gbps=offered_gbps,
            **config_kwargs
        )
        for direction, mode in cells
    ]
    return dict(zip(cells, (runner or SweepRunner(jobs=1)).run(configs)))


def bin_cycles_per_kb(result, bin):
    """Cycles one stack bin spent per KB of goodput.

    The per-work basis every offload comparison uses: absolute bin
    cycles are meaningless across runs that moved different byte
    counts.
    """
    kb = result.work_bits / 8.0 / 1024.0
    if not kb:
        return 0.0
    return result.bin_event(bin, CYCLES) / kb


def engine_cycles_per_kb(result):
    """NIC offload-engine cycles per KB of goodput (0 for a host-only
    run, whose payload carries no ``offload`` block)."""
    off = result.payload_get("offload")
    if not off:
        return 0.0
    kb = result.work_bits / 8.0 / 1024.0
    if not kb:
        return 0.0
    return off["engine_cycles"] / kb
