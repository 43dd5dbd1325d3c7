"""Table 3: Amdahl decomposition of the no->full improvement.

Paper's shapes: overall cycle improvements are material (9-22%);
engine and buffer management carry most of the improvement; copies
and interface barely move; LLC-miss improvements accompany the cycle
improvements in the improving bins.
"""

from repro.analysis.tables import format_pct as pct
from repro.core.report import render_table3
from repro.core.speedup import improvement_table

from conftest import write_artifact


def _claims(rows, paper):
    """The rows :func:`_check_common` asserts on, beside ``paper``: the
    overall cycle and LLC improvements, and the shares of the cycle
    improvement that engine + buffer management and copies carry."""
    overall = rows["overall"]
    core_share = rows["engine"].cycles + rows["buf_mgmt"].cycles
    return list(zip(
        ("overall cycle improvement", "overall LLC improvement",
         "engine + buf mgmt share of it", "copies share of it"),
        paper,
        map(pct, (overall.cycles, overall.llc, core_share / overall.cycles,
                  rows["copies"].cycles / overall.cycles)),
    ))


def _check_common(rows, label):
    overall = rows["overall"]
    assert overall.cycles > 0.03, "%s: total improvement %.3f" % (
        label, overall.cycles)
    assert overall.llc > 0.0, label
    # Engine + buffer management carry the improvement.
    core_share = rows["engine"].cycles + rows["buf_mgmt"].cycles
    assert core_share > 0.4 * overall.cycles, label
    # Copies barely improve (the paper's callout).
    assert abs(rows["copies"].cycles) < 0.6 * overall.cycles, label


def test_table3_tx64(benchmark, tx64_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table3, args=tx64_pair + ("TX 64KB",), rounds=1, iterations=1
    )
    rows = improvement_table(*tx64_pair)
    write_artifact(artifacts_dir, "table3_tx64k.txt", text, _claims(
        rows, ("22.1%", "43.0%", "~88%", "~1%")) + [
        ("overall clears improvement", "improves",
         pct(rows["overall"].clears)),
    ])
    _check_common(rows, "tx64")
    # Paper: ~22% overall cycle improvement at 64KB TX; accept 8-35%.
    assert 0.08 < rows["overall"].cycles < 0.35
    # Machine clears improve too.
    assert rows["overall"].clears > 0.0


def test_table3_tx128(benchmark, tx128_pair, tx64_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table3, args=tx128_pair + ("TX 128B",), rounds=1, iterations=1
    )
    rows = improvement_table(*tx128_pair)
    large = improvement_table(*tx64_pair)["overall"].cycles
    small = rows["overall"].cycles
    write_artifact(artifacts_dir, "table3_tx128.txt", text, _claims(
        rows, ("9.3%", "29.3%", "most", "barely moves")) + [
        ("overall cycles, 64KB vs 128B", "22.1% vs 9.3%",
         "%s vs %s" % (pct(large), pct(small))),
    ])
    _check_common(rows, "tx128")
    # Paper: ~9% at 128B -- smaller than the 64KB improvement.
    assert small < 0.2
    assert large > small


def test_table3_rx64(benchmark, rx64_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table3, args=rx64_pair + ("RX 64KB",), rounds=1, iterations=1
    )
    rows = improvement_table(*rx64_pair)
    write_artifact(artifacts_dir, "table3_rx64k.txt", text,
                   _claims(rows, ("21.0%", "35.0%", "most",
                                  "barely moves")))
    _check_common(rows, "rx64")


def test_table3_rx128(benchmark, rx128_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table3, args=rx128_pair + ("RX 128B",), rounds=1, iterations=1
    )
    cycles = improvement_table(*rx128_pair)["overall"].cycles
    write_artifact(artifacts_dir, "table3_rx128.txt", text, [
        ("overall cycle improvement", "9.2%", pct(cycles)),
    ])
    assert cycles > 0.02
