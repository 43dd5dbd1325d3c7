"""Modern NIC offload suite: LSO, GRO flush edges, adaptive ITR, TOE.

Covers the offload engine's contract with the rest of the simulator:

- GRO's flush edges (push, out-of-order abort, aging timer vs the ITR
  timer, single-segment passthrough) -- and the invariant that GRO
  *never* reorders, so a Flow Director stale-filter race still
  surfaces as duplicate ACKs unless Wu et al.'s absorb variant is on.
- The ITR coalescing sweep's observable: the timer setting moves the
  receiver's duplicate-ACK count under the contended Flow Director
  configuration.
- The offload-vs-affinity acceptance: at a matched offered load,
  ``toe`` must shrink the Copies / Interface / Engine bins against
  ``full`` affinity in both directions, and the rendered comparison
  table must say so.
"""

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.modes import EXTENDED_MODES
from repro.core.offload import bin_cycles_per_kb, run_offload_study
from repro.core.report import render_coalesce_table, render_offload_table
from repro.core.scale import (
    COALESCE_VARIANTS,
    coalesce_overrides,
    run_coalesce_sweep,
)


def _run(direction, affinity, size=65536, net_overrides=None, **kw):
    kwargs = dict(
        direction=direction,
        message_size=size,
        affinity=affinity,
        n_connections=4,
        warmup_ms=2,
        measure_ms=3,
        seed=7,
    )
    if net_overrides is not None:
        kwargs["net_overrides"] = net_overrides
    kwargs.update(kw)
    return run_experiment(ExperimentConfig(**kwargs), cache=None)


# ----------------------------------------------------------------------
# LSO / TOE registration and engine accounting.
# ----------------------------------------------------------------------

def test_toe_is_a_registered_mode():
    assert "toe" in EXTENDED_MODES


def test_lso_moves_segmentation_onto_the_engine():
    base = _run("tx", "full")
    lso = _run("tx", "full", net_overrides={"lso": True})
    off = lso.payload_get("offload")
    assert off is not None
    assert off["lso_frames"] > 0
    assert off["engine_seg_cycles"] > 0
    # The host no longer pays the per-line segmentation walk: total
    # stack cycles per KB must drop.
    from repro.cpu.events import CYCLES

    def host_per_kb(r):
        return r.stack_total(CYCLES) / (r.work_bits / 8.0 / 1024.0)

    assert host_per_kb(lso) < host_per_kb(base)
    # A host-only run carries no offload block at all (golden-cell
    # byte-identity depends on this).
    assert base.payload_get("offload") is None


def test_toe_runs_transport_on_the_engine():
    tx = _run("tx", "toe")
    rx = _run("rx", "toe")
    for r in (tx, rx):
        off = r.payload_get("offload")
        assert off is not None and off["toe"]
        assert off["toe_acks"] > 0
        assert off["engine_ack_cycles"] > 0
    assert tx.payload_get("offload")["lso_frames"] > 0
    assert rx.payload_get("offload")["engine_rcv_cycles"] > 0


# ----------------------------------------------------------------------
# GRO flush edges.
# ----------------------------------------------------------------------

def test_gro_merges_and_flushes_on_push():
    r = _run("rx", "full", net_overrides={"gro": True})
    off = r.payload_get("offload")
    assert off is not None
    # 64KB messages span many MSS frames: the in-ring merge must have
    # happened, and every message boundary (PSH) must have flushed the
    # flow's held super-frame.
    assert off["gro_merged"] > 0
    assert off["gro_flushes_push"] > 0


def test_gro_single_segment_passthrough_is_bit_identical():
    """Sub-MSS messages put a boundary inside every segment, so every
    frame carries PSH: GRO passes each one straight through, and the
    run must be event-for-event identical to GRO off -- same cycles,
    same bins, same counters."""
    base = _run("rx", "full", size=1024)
    gro = _run("rx", "full", size=1024, net_overrides={"gro": True})
    off = gro.payload_get("offload")
    assert off["gro_merged"] == 0
    a, b = base.to_dict(), gro.to_dict()
    # Only the config (the knob itself) and the offload accounting
    # block may differ.
    a.pop("config"), b.pop("config"), b.pop("offload")
    assert a == b


def test_gro_timer_flush_races_itr_timer():
    """A paced trickle below the coalesce frame threshold: the GRO
    aging timer (shorter than the ITR window) must flush held frames
    before the interrupt fires, so merged super-frames never stall
    behind a long ITR setting."""
    r = _run(
        "rx", "full", size=4096,
        net_overrides={"gro": True, "gro_flush_us": 5,
                       "coalesce_us": 100},
        offered_gbps=0.5,
    )
    off = r.payload_get("offload")
    assert off["gro_flushes_timer"] > 0


def test_gro_aborts_on_out_of_order_frames():
    """The ooo flush edge is the no-reorder guarantee firing: when the
    wire delivers a frame that is not the held super-frame's exact
    continuation, GRO flushes what it holds and passes the stray frame
    through.  Reordering therefore still reaches the host TCP layer
    as duplicate ACKs -- batching reduces how many (fewer, larger
    deliveries), but never hides the gap itself."""
    base = _run("rx", "full", faults="reorder=0.01,depth=4")
    gro = _run(
        "rx", "full", net_overrides={"gro": True},
        faults="reorder=0.01,depth=4",
    )
    off = gro.payload_get("offload")
    assert off["gro_flushes_ooo"] > 0
    dup_base = base.payload_get("faults")["dup_acks"]
    dup_gro = gro.payload_get("faults")["dup_acks"]
    # The reorder is not absorbed: the host still dup-ACKs...
    assert dup_gro > 0
    # ...but in-ring merging coarsens delivery, so fewer of them.
    assert dup_gro < dup_base


def test_gro_does_not_absorb_fd_reorder():
    """A Flow Director stale-filter race still surfaces as duplicate
    ACKs with GRO on (the per-queue hold cannot re-order across
    queues, and the aging timer bounds how long it masks the race).
    Only the Wu et al. absorb variant -- holding the old queue's IRQ
    across the retarget -- may soak the reorder up."""
    fd = dict(
        direction="rx", message_size=16384, affinity="flow-director",
        n_connections=16, n_cpus=16, n_queues=8,
        warmup_ms=2, measure_ms=3, seed=7,
    )
    over = {"gro": True, "coalesce_us": 100, "gro_flush_us": 50}
    plain = run_experiment(
        ExperimentConfig(net_overrides=dict(over), **fd), cache=None
    )
    absorb = run_experiment(
        ExperimentConfig(
            net_overrides=dict(over, itr_absorb=True), **fd
        ),
        cache=None,
    )
    dup_plain = plain["steering"]["dup_acks_out"]
    dup_absorb = absorb["steering"]["dup_acks_out"]
    assert dup_plain > 0
    assert dup_absorb < dup_plain
    assert absorb.payload_get("offload")["itr_holds"] > 0


# ----------------------------------------------------------------------
# ITR coalescing sweep.
# ----------------------------------------------------------------------

def test_coalesce_overrides_validates_variant():
    assert coalesce_overrides(25, "baseline") == {"coalesce_us": 25}
    assert coalesce_overrides(25, "adaptive")["itr_adaptive"] is True
    assert coalesce_overrides(25, "absorb")["itr_absorb"] is True
    with pytest.raises(ValueError):
        coalesce_overrides(25, "turbo")


def test_coalesce_sweep_moves_fd_dup_acks():
    """The sweep's reason to exist: the ITR setting decides whether a
    Flow Director retarget race surfaces as reordering.  A short timer
    keeps the duplicate-ACK count down, a long timer lets it grow, and
    the absorb variant pulls the long-timer count back down."""
    sweep = run_coalesce_sweep(grid=(5, 100), variants=("baseline", "absorb"))
    dup = {
        key: r["steering"]["dup_acks_out"] for key, r in sweep.items()
    }
    assert dup[(5, "baseline")] < dup[(100, "baseline")]
    assert dup[(100, "absorb")] < dup[(100, "baseline")]
    # Absorb holds are the mechanism; they must actually have fired.
    assert sweep[(100, "absorb")].payload_get("offload")["itr_holds"] > 0
    text = render_coalesce_table(
        sweep, (5, 100), ("baseline", "absorb"), "rx", 8
    )
    assert "ITR coalescing sweep" in text
    assert "absorb" in text


def test_adaptive_itr_changes_the_reorder_window():
    """The adaptive throttle's bulk mode stretches the interrupt
    window (up to 4x base), so under the same retarget race it lets
    more reordering through than the static default."""
    sweep = run_coalesce_sweep(grid=(25,), variants=("baseline", "adaptive"))
    dup = {
        key: r["steering"]["dup_acks_out"] for key, r in sweep.items()
    }
    assert dup[(25, "adaptive")] > dup[(25, "baseline")]


# ----------------------------------------------------------------------
# Offload-vs-affinity acceptance: toe shrinks the paper's bins.
# ----------------------------------------------------------------------

def test_toe_shrinks_bins_vs_full_affinity_at_matched_load():
    """The PR's acceptance criterion.  At a matched offered load
    (saturation would hide the Interface bin: a host that never sleeps
    pays no sock_wait/wakeup cost), full transport offload must beat
    the best host-stack placement on the bins it removes work from:
    Copies (direct data placement), Interface (completion moderation)
    and Engine (protocol processing on the NIC)."""
    study = run_offload_study(warmup_ms=2, measure_ms=3)
    for direction in ("tx", "rx"):
        full = study[(direction, "full")]
        toe = study[(direction, "toe")]
        for bin in ("copies", "interface", "engine"):
            assert (
                bin_cycles_per_kb(toe, bin)
                < bin_cycles_per_kb(full, bin)
            ), "toe did not shrink %s/%s" % (direction, bin)
    text = render_offload_table(study, ("full", "toe"))
    assert "Offload study (TX)" in text
    assert "Offload study (RX)" in text
    # Every comparison cell in the delta column is a reduction.
    for line in text.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if cells and cells[0] in ("Copies", "Interface", "Engine"):
            assert cells[-1].startswith("-"), line


def test_offload_cli_failed_cell_renders_fail_and_exits_3(capsys):
    """A serial study keeps the runner's failure contract: a cell that
    raises (Flow Director without a multi-queue NIC) becomes a FAIL
    hole, the report names it, and the command exits 3 instead of
    dying with a traceback."""
    from repro.cli import main

    rc = main([
        "offload", "--modes", "full,flow-director", "--directions", "rx",
        "--size", "4096", "--connections", "2", "--warmup-ms", "1",
        "--measure-ms", "2", "--no-cache", "--no-runstore",
    ])
    captured = capsys.readouterr()
    assert rc == 3
    assert "FAIL" in captured.out
    assert "rx-4096-flow-director" in captured.err
