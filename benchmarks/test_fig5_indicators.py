"""Figure 5: performance impact indicators.

Paper's shapes: across all four corners, machine clears and LLC misses
account for (by the count-times-cost heuristic) most of the run time;
trace-cache, TLB and branch effects are each small; the retire-width
lower bound shows actual instruction work is a minor share.
"""

from repro.core.indicators import (
    dominant_events,
    impact_indicators,
    indicator_assertions,
)
from repro.core.report import render_figure5
from repro.cpu.params import CostModel

from conftest import write_artifact

COSTS = CostModel()


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
    write_artifact(artifacts_dir, "figure5_indicators.txt", text)

    for label, result in labeled:
        rows = impact_indicators(result, COSTS)
        claims = indicator_assertions(rows)
        assert claims["machine clears and LLC misses dominate"], (
            "%s: dominant events were %s" % (label, dominant_events(rows))
        )
        # Each minor event stays minor.
        assert claims["TLB effects are negligible (<2%)"], label
        assert claims["branch mispredicts are minor (<5%)"], label
        by_label = {r[0]: r[2] for r in rows}
        assert by_label["TC miss"] < 0.06, label


def test_indicator_method_overestimates(benchmark, tx64_pair):
    def check():
        """The paper stresses the indicator is a first-order overestimate:
        the event shares may legitimately sum past 100%."""
        rows = impact_indicators(tx64_pair[0], COSTS)
        total = sum(share for _, _, share in rows)
        assert total > 0.5  # meaningful coverage of run time


    benchmark.pedantic(check, rounds=1, iterations=1)


def test_clears_improve_with_affinity_per_work(benchmark, tx64_pair):
    def check():
        """Counted clears per bit drop from no- to full-affinity (the
        driver of Figure 5's mode contrast)."""
        from repro.cpu.events import MACHINE_CLEARS

        none, full = tx64_pair
        none_rate = none.stack_total(MACHINE_CLEARS) / float(none.work_bits)
        full_rate = full.stack_total(MACHINE_CLEARS) / float(full.work_bits)
        assert full_rate < none_rate

    benchmark.pedantic(check, rounds=1, iterations=1)
