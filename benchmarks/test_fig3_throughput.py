"""Figure 3: TX/RX bandwidth and CPU utilization vs transaction size.

Paper's headline shapes:
* process affinity alone has little throughput impact;
* interrupt affinity alone gains up to ~25%;
* full affinity gains up to ~29-30%;
* CPUs are (nearly) fully utilized at every size;
* absolute bandwidth grows with transaction size.
"""

from repro.analysis.tables import format_pct as pct
from repro.core.experiment import PAPER_SIZES
from repro.core.metrics import best_gain, throughput_gain
from repro.core.modes import AFFINITY_MODES
from repro.core.report import render_figure3

from conftest import write_artifact


def _render(sweep, direction):
    return render_figure3(sweep, PAPER_SIZES, AFFINITY_MODES, direction)


def _growth(sweep):
    """The smallest 64KB / 128B bandwidth ratio over the modes."""
    return min(
        sweep[(65536, mode)].throughput_mbps
        / sweep[(128, mode)].throughput_mbps
        for mode in AFFINITY_MODES
    )


def test_figure3_tx(benchmark, tx_sweep, artifacts_dir):
    text = benchmark.pedantic(
        _render, args=(tx_sweep, "tx"), rounds=1, iterations=1
    )
    gains = {m: best_gain(tx_sweep, PAPER_SIZES, m)
             for m in ("irq", "full", "proc")}
    small = throughput_gain(tx_sweep, 128, "full")
    large = throughput_gain(tx_sweep, 65536, "full")
    growth = _growth(tx_sweep)
    util = min(cell.utilization for cell in tx_sweep.values())
    write_artifact(artifacts_dir, "figure3_tx.txt", text, [
        ("best IRQ-affinity gain", "up to ~25%", pct(gains["irq"])),
        ("best full-affinity gain", "up to ~29-30%", pct(gains["full"])),
        ("best process-affinity gain", "~0%", pct(gains["proc"])),
        ("full-affinity gain, 128B vs 64KB", "bigger at large sizes",
         "%s vs %s" % (pct(small), pct(large))),
        ("64KB / 128B bandwidth, lowest mode", "grows with size",
         "%.2fx" % growth),
        ("lowest CPU utilization", "~100%", pct(util)),
    ])

    # Shape: full/irq affinity beat no affinity materially; proc alone
    # does not.
    assert gains["full"] > 0.10
    assert gains["irq"] > 0.10
    assert abs(gains["proc"]) < 0.10

    # The paper: "Affinity has a bigger impact on large size transfers".
    assert large > small

    # Shape: bandwidth increases with transaction size.
    assert growth > 2

    # Shape: CPUs are nearly fully utilized in all cases.
    assert util > 0.85


def test_figure3_rx(benchmark, rx_sweep, artifacts_dir):
    text = benchmark.pedantic(
        _render, args=(rx_sweep, "rx"), rounds=1, iterations=1
    )
    gains = {m: best_gain(rx_sweep, PAPER_SIZES, m) for m in ("irq", "full")}
    growth = _growth(rx_sweep)
    write_artifact(artifacts_dir, "figure3_rx.txt", text, [
        ("best IRQ-affinity gain", "similar to TX", pct(gains["irq"])),
        ("best full-affinity gain", "similar to TX", pct(gains["full"])),
        ("64KB / 128B bandwidth, lowest mode", "grows with size",
         "%.2fx" % growth),
    ])

    assert gains["full"] > 0.08
    assert gains["irq"] > 0.08
    assert growth > 2
