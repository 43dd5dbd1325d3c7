"""Figure 4: processing cost (GHz/Gbps) vs transaction size.

Paper's shapes: cost falls with transaction size (small transactions
pay per-call overheads per few bits); full affinity reduces the 64KB
transmit cost by ~25% (1.9 -> 1.4); the no/proc pair and the irq/full
pair track each other; receive costs more per bit than transmit.
"""

from repro.analysis.tables import format_pct as pct
from repro.core.experiment import PAPER_SIZES
from repro.core.metrics import cost_reduction
from repro.core.modes import AFFINITY_MODES
from repro.core.report import render_figure4

from conftest import write_artifact


def _render(sweep, direction):
    return render_figure4(sweep, PAPER_SIZES, AFFINITY_MODES, direction)


def _fall(sweep):
    """The smallest 128B / 64KB cost ratio over the modes."""
    return min(
        sweep[(PAPER_SIZES[0], mode)].cost_ghz_per_gbps
        / sweep[(PAPER_SIZES[-1], mode)].cost_ghz_per_gbps
        for mode in AFFINITY_MODES
    )


def test_figure4_tx(benchmark, tx_sweep, artifacts_dir):
    text = benchmark.pedantic(
        _render, args=(tx_sweep, "tx"), rounds=1, iterations=1
    )
    fall = _fall(tx_sweep)
    reduction = cost_reduction(tx_sweep, 65536, "full")
    none_cost = tx_sweep[(65536, "none")].cost_ghz_per_gbps
    proc = cost_reduction(tx_sweep, 65536, "proc")
    write_artifact(artifacts_dir, "figure4_tx.txt", text, [
        ("128B / 64KB cost, lowest mode", "falls with size", "%.2fx" % fall),
        ("64KB cost reduction, full affinity", "~25% (1.9 -> 1.4)",
         pct(reduction)),
        ("64KB cost, no affinity", "~1.9", "%.2f" % none_cost),
        ("64KB cost reduction, process affinity", "~0%", pct(proc)),
    ])

    # Cost decreases monotonically-ish with size for every mode.
    assert fall > 1.8

    # The paper's worked example: 64KB TX cost drops ~25% under full
    # affinity (we accept 10-35%).
    assert 0.10 < reduction < 0.35

    # Absolute zone: no-affinity 64KB TX costs ~1.9 GHz/Gbps in the
    # paper; we accept a generous band around it.
    assert 1.2 < none_cost < 2.6

    # Process affinity alone does not reduce cost materially.
    assert abs(proc) < 0.10


def test_figure4_rx(benchmark, tx_sweep, rx_sweep, artifacts_dir):
    text = benchmark.pedantic(
        _render, args=(rx_sweep, "rx"), rounds=1, iterations=1
    )
    fall = _fall(rx_sweep)
    reduction = cost_reduction(rx_sweep, 65536, "full")
    # RX is more memory-bound than TX: at 64KB it costs more per bit.
    costs = {
        mode: (rx_sweep[(65536, mode)].cost_ghz_per_gbps,
               tx_sweep[(65536, mode)].cost_ghz_per_gbps)
        for mode in ("none", "full")
    }
    write_artifact(artifacts_dir, "figure4_rx.txt", text, [
        ("128B / 64KB cost, lowest mode", "falls with size", "%.2fx" % fall),
        ("64KB cost reduction, full affinity", "2.0-2.4 -> 1.6-1.9",
         pct(reduction)),
        ("64KB cost RX vs TX, no affinity", "~2.0-2.4 vs ~1.9",
         "%.2f vs %.2f" % costs["none"]),
        ("64KB cost RX vs TX, full affinity", "~1.6-1.9 vs ~1.4",
         "%.2f vs %.2f" % costs["full"]),
    ])

    assert fall > 1.8
    assert reduction > 0.05
    for rx, tx in costs.values():
        assert rx > tx * 0.95
