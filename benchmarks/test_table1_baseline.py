"""Table 1: baseline per-bin characterization (all four corners).

Paper's shapes asserted here:
* 64KB: hotspots are engine / buffer mgmt / copies; small transfers:
  sockets interface + engine dominate;
* TCP engine stays a roughly constant ~15-35% share everywhere;
* RX is more memory-bound than TX (higher overall CPI and MPI);
* the RX 64KB copy bin shows the ``rep movl`` CPI explosion;
* interface and locks carry very large CPIs;
* branches are ~10-16% of instructions, mispredicts low.
"""

from repro.analysis.tables import format_pct as pct
from repro.core.characterization import (
    characterization_assertions,
    characterize,
)
from repro.core.report import render_table1

from conftest import write_artifact


def _corner_rows(pair):
    none, full = pair
    return characterize(none), characterize(full)


def _branch_claims(rows_none, rows_full):
    """Branches ~10-16% of instructions; mispredicts < ~2.5%."""
    none, full = rows_none["overall"], rows_full["overall"]
    return [
        ("branches of instructions, none / full", "10-16%",
         "%s / %s" % (pct(none.pct_branches), pct(full.pct_branches))),
        ("branch mispredict ratio, none / full", "<2%",
         "%s / %s" % (pct(none.pct_mispredicted),
                      pct(full.pct_mispredicted))),
    ]


def test_table1_tx64(benchmark, tx64_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table1, args=tx64_pair + ("TX 64KB",), rounds=1, iterations=1
    )
    rows_none, rows_full = _corner_rows(tx64_pair)
    hot = sum(
        rows_none[b].pct_cycles for b in ("engine", "buf_mgmt", "copies")
    )
    claims = characterization_assertions(rows_none, rows_full)
    cpi = (rows_none["overall"].cpi, rows_full["overall"].cpi)
    mpi = (rows_none["overall"].mpi, rows_full["overall"].mpi)
    write_artifact(artifacts_dir, "table1_tx64k.txt", text, [
        ("engine + buf mgmt + copies share", "most cycles", pct(hot)),
        ("engine share, none / full", "25.5% / ~constant",
         "%s / %s" % (pct(rows_none["engine"].pct_cycles),
                      pct(rows_full["engine"].pct_cycles))),
        ("overall CPI, none -> full", "5.04 -> 4.14", "%.2f -> %.2f" % cpi),
        ("overall MPI, none -> full", "0.0078 -> 0.0047",
         "%.4f -> %.4f" % mpi),
    ] + _branch_claims(rows_none, rows_full))

    # Hotspots: engine + buf mgmt + copies carry most of the time.
    assert hot > 0.55

    # Engine's share is stable across modes.
    assert claims["engine share is 15-35% of cycles"]

    # Affinity improves overall CPI and MPI.
    assert claims["overall CPI improves with affinity"]
    assert claims["overall MPI improves with affinity"]

    # MPI zone (paper: 0.0078 -> 0.0047).
    assert 0.002 < mpi[0] < 0.02
    assert mpi[1] < mpi[0]

    for rows in (rows_none, rows_full):
        assert 0.08 <= rows["overall"].pct_branches <= 0.20
    assert claims["branch misprediction stays low (<2.5%)"]


def test_table1_tx128(benchmark, tx128_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table1, args=tx128_pair + ("TX 128B",), rounds=1, iterations=1
    )
    rows_none, rows_full = _corner_rows(tx128_pair)
    interface = rows_none["interface"]
    write_artifact(artifacts_dir, "table1_tx128.txt", text, [
        ("interface share", "42.4%", pct(interface.pct_cycles)),
        ("engine share", "second hotspot",
         pct(rows_none["engine"].pct_cycles)),
        ("copies share", "minor", pct(rows_none["copies"].pct_cycles)),
        ("interface CPI", "very large", "%.2f" % interface.cpi),
    ] + _branch_claims(rows_none, rows_full))

    # Small transfers: the sockets interface dominates, then engine.
    assert interface.pct_cycles > 0.30
    assert rows_none["engine"].pct_cycles > 0.15
    # Copies are minor at 128B.
    assert rows_none["copies"].pct_cycles < 0.15
    assert interface.cpi > 4.0

    for rows in (rows_none, rows_full):
        assert 0.08 <= rows["overall"].pct_branches <= 0.20
    claims = characterization_assertions(rows_none, rows_full)
    assert claims["branch misprediction stays low (<2.5%)"]


def test_table1_rx64(benchmark, rx64_pair, tx64_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table1, args=rx64_pair + ("RX 64KB",), rounds=1, iterations=1
    )
    rows_none, _ = _corner_rows(rx64_pair)
    copies = rows_none["copies"]
    rx, tx = rows_none["overall"], characterize(tx64_pair[0])["overall"]
    write_artifact(artifacts_dir, "table1_rx64k.txt", text, [
        ("copies share", "40.3%", pct(copies.pct_cycles)),
        ("copies CPI (rep movl)", "66.3", "%.1f" % copies.cpi),
        ("copies MPI", "0.133", "%.3f" % copies.mpi),
        ("overall CPI, RX vs TX (no affinity)", "8.5 vs 5.0",
         "%.2f vs %.2f" % (rx.cpi, tx.cpi)),
        ("overall MPI, RX vs TX (no affinity)", "RX higher",
         "%.4f vs %.4f" % (rx.mpi, tx.mpi)),
    ])

    # The rep-movl receive copy: explosive CPI and MPI (paper: CPI ~66,
    # MPI ~0.13).
    assert copies.cpi > 15
    assert copies.mpi > 0.05
    # Copies dominate time on the receive side.
    assert copies.pct_cycles > 0.25
    # RX is more memory-bound than TX.
    assert rx.cpi > tx.cpi
    assert rx.mpi > tx.mpi


def test_table1_rx128(benchmark, rx128_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table1, args=rx128_pair + ("RX 128B",), rounds=1, iterations=1
    )
    rows_none, _ = _corner_rows(rx128_pair)
    share = rows_none["interface"].pct_cycles
    write_artifact(artifacts_dir, "table1_rx128.txt", text, [
        ("interface share", "dominant", pct(share)),
    ])
    assert share > 0.30
