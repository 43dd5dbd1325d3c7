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

from repro.core.characterization import (
    characterization_assertions,
    characterize,
)
from repro.core.report import render_table1

from conftest import write_artifact


def _corner_rows(pair):
    none, full = pair
    return characterize(none), characterize(full)


def test_table1_tx64(benchmark, tx64_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table1, args=tx64_pair + ("TX 64KB",), rounds=1, iterations=1
    )
    write_artifact(artifacts_dir, "table1_tx64k.txt", text)
    rows_none, rows_full = _corner_rows(tx64_pair)

    # Hotspots: engine + buf mgmt + copies carry most of the time.
    hot = sum(
        rows_none[b].pct_cycles for b in ("engine", "buf_mgmt", "copies")
    )
    assert hot > 0.55

    claims = characterization_assertions(rows_none, rows_full)
    # Engine's share is stable across modes.
    assert claims["engine share is 15-35% of cycles"]

    # Affinity improves overall CPI and MPI.
    assert claims["overall CPI improves with affinity"]
    assert claims["overall MPI improves with affinity"]

    # MPI zone (paper: 0.0078 -> 0.0047).
    assert 0.002 < rows_none["overall"].mpi < 0.02
    assert rows_full["overall"].mpi < rows_none["overall"].mpi


def test_table1_tx128(benchmark, tx128_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table1, args=tx128_pair + ("TX 128B",), rounds=1, iterations=1
    )
    write_artifact(artifacts_dir, "table1_tx128.txt", text)
    rows_none, rows_full = _corner_rows(tx128_pair)

    # Small transfers: the sockets interface dominates, then engine.
    assert rows_none["interface"].pct_cycles > 0.30
    assert rows_none["engine"].pct_cycles > 0.15
    # Copies are minor at 128B.
    assert rows_none["copies"].pct_cycles < 0.15


def test_table1_rx64(benchmark, rx64_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table1, args=rx64_pair + ("RX 64KB",), rounds=1, iterations=1
    )
    write_artifact(artifacts_dir, "table1_rx64k.txt", text)
    rows_none, rows_full = _corner_rows(rx64_pair)

    # The rep-movl receive copy: explosive CPI and MPI (paper: CPI ~66,
    # MPI ~0.13).
    assert rows_none["copies"].cpi > 15
    assert rows_none["copies"].mpi > 0.05
    # Copies dominate time on the receive side.
    assert rows_none["copies"].pct_cycles > 0.25


def test_table1_rx128(benchmark, rx128_pair, artifacts_dir):
    text = benchmark.pedantic(
        render_table1, args=rx128_pair + ("RX 128B",), rounds=1, iterations=1
    )
    write_artifact(artifacts_dir, "table1_rx128.txt", text)
    rows_none, _ = _corner_rows(rx128_pair)
    assert rows_none["interface"].pct_cycles > 0.30


def test_rx_more_memory_bound_than_tx(benchmark, tx64_pair, rx64_pair):
    def check():
        tx_none, _ = tx64_pair
        rx_none, _ = rx64_pair
        tx_rows = characterize(tx_none)
        rx_rows = characterize(rx_none)
        assert rx_rows["overall"].cpi > tx_rows["overall"].cpi
        assert rx_rows["overall"].mpi > tx_rows["overall"].mpi


    benchmark.pedantic(check, rounds=1, iterations=1)


def test_branch_profile(benchmark, tx64_pair, tx128_pair):
    def check():
        """Branches ~10-16% of instructions; mispredicts < ~2.5%."""
        for pair in (tx64_pair, tx128_pair):
            rows_none, rows_full = _corner_rows(pair)
            for rows in (rows_none, rows_full):
                assert 0.08 <= rows["overall"].pct_branches <= 0.20
            claims = characterization_assertions(rows_none, rows_full)
            assert claims["branch misprediction stays low (<2.5%)"]


    benchmark.pedantic(check, rounds=1, iterations=1)


def test_interface_cpi_is_poor(benchmark, tx128_pair):
    def check():
        rows_none, _ = _corner_rows(tx128_pair)
        assert rows_none["interface"].cpi > 4.0

    benchmark.pedantic(check, rounds=1, iterations=1)
