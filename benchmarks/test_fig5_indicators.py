"""Figure 5: performance impact indicators.

Paper's shapes: across all four corners, machine clears and LLC misses
account for (by the count-times-cost heuristic) most of the run time;
trace-cache, TLB and branch effects are each small; the retire-width
lower bound shows actual instruction work is a minor share.  The
indicator is a first-order overestimate: the shares may sum past 100%.
"""

from repro.analysis.tables import format_pct as pct
from repro.core.indicators import (
    dominant_events,
    impact_indicators,
    indicator_assertions,
)
from repro.core.report import render_figure5
from repro.cpu.events import MACHINE_CLEARS
from repro.cpu.params import CostModel

from conftest import write_artifact

COSTS = CostModel()

#: The paper's machine-clear and LLC-miss shares of run time (%).
PAPER = {
    "TX64K no": (59.3, 39.8), "TX64K full": (54.8, 33.6),
    "TX128 no": (39.8, 24.2), "TX128 full": (22.4, 19.8),
    "RX64K no": (71.2, 45.5), "RX64K full": (60.1, 39.0),
    "RX128 no": (66.8, 20.6), "RX128 full": (21.3, 15.7),
}


def _clears_per_mbit(result):
    return result.stack_total(MACHINE_CLEARS) / float(result.work_bits) * 1e6


def test_figure5(benchmark, tx64_pair, tx128_pair, rx64_pair, rx128_pair,
                 artifacts_dir):
    labeled = [
        ("TX64K no", tx64_pair[0]), ("TX64K full", tx64_pair[1]),
        ("TX128 no", tx128_pair[0]), ("TX128 full", tx128_pair[1]),
        ("RX64K no", rx64_pair[0]), ("RX64K full", rx64_pair[1]),
        ("RX128 no", rx128_pair[0]), ("RX128 full", rx128_pair[1]),
    ]
    text = benchmark.pedantic(
        render_figure5, args=(labeled, COSTS), rounds=1, iterations=1
    )
    indicators = {
        label: impact_indicators(result, COSTS) for label, result in labeled
    }
    shares = {
        label: {event: share for event, _, share in rows}
        for label, rows in indicators.items()
    }
    coverage = sum(shares["TX64K no"].values())
    clears = [_clears_per_mbit(result) for result in tx64_pair]
    write_artifact(artifacts_dir, "figure5_indicators.txt", text, [
        ("%s: clears / LLC misses" % label, "%.0f%% / %.0f%%" % PAPER[label],
         "%s / %s" % (pct(shares[label]["Machine clear"]),
                      pct(shares[label]["LLC miss"])))
        for label, _ in labeled
    ] + [
        ("TX64K no: shares summed", "may pass 100%", pct(coverage)),
        ("TX 64KB clears per Mbit, none -> full", "drop",
         "%.1f -> %.1f" % tuple(clears)),
    ])

    for label, rows in indicators.items():
        claims = indicator_assertions(rows)
        assert claims["machine clears and LLC misses dominate"], (
            "%s: dominant events were %s" % (label, dominant_events(rows))
        )
        # Each minor event stays minor.
        assert claims["TLB effects are negligible (<2%)"], label
        assert claims["branch mispredicts are minor (<5%)"], label
        assert shares[label]["TC miss"] < 0.06, label

    # The indicator covers a meaningful part of run time.
    assert coverage > 0.5
    # Counted clears per bit drop from no- to full-affinity: the cause
    # of the mode contrast.
    assert clears[1] < clears[0]
