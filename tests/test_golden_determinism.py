"""Golden end-to-end determinism / equivalence suite.

``tests/golden/metrics.json`` pins, for a fixed seed, the *complete*
result payload (as a SHA-256 over the sorted-key JSON) plus a few
plain metrics of every cell in a 36-cell matrix: both directions,
three message sizes, all four affinity modes -- plus the two
multi-queue steering modes (``rss`` / ``flow-director``) on a shared
4-queue 10GbE-class NIC, which pins the Toeplitz spread, Flow
Director retarget timing and the reordering counters bit-for-bit --
plus eight NIC-offload cells (LSO, TOE and GRO, clean and under wire
loss or reordering) and seven peer-mode cells (the iSCSI initiator
and web client peers, and every receiving peer's gap and duplicate
arms under wire loss): 51 cells in all.

The hash makes this a bit-identity check: any change to simulated
cache behaviour, event ordering, cycle charging or accounting -- no
matter how small -- flips it.  That is the safety net under the
hot-path optimizations (batched walks, memoized fetch costs, the
dict-backed trace cache, the tuple event heap): each is required to
be a pure speedup, and this suite is the proof.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/test_golden_determinism.py --regenerate

and eyeball the diff of the plain metrics before committing.  To
grow the matrix without touching any recorded digest, run with
``--add`` instead: it records only the cells the table lacks.
"""

import hashlib
import json
import os

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "metrics.json")

DIRECTIONS = ("tx", "rx")
SIZES = (1024, 16384, 65536)
MODES = ("none", "proc", "irq", "full")
MQ_MODES = ("rss", "flow-director")

#: NIC-offload cells, pinned alongside the classic 36.  ``toe`` rides
#: the affinity field; ``lso``/``gro`` run under full affinity with
#: the knob flipped through net_overrides.  Offload is all-new code
#: gated off by default, so these cells pin its event ordering and
#: engine accounting without touching the pre-existing hashes.  The
#: faulted cells pin the offload paths' recovery arms: fast
#: retransmits under LSO and TOE (wire loss), duplicate ACKs on the
#: TOE receive path, and GRO's out-of-order flushes (reordering).
#: Each mode maps to ``(affinity, net_overrides, faults)``.
OFFLOAD_KNOBS = {
    "toe": ("toe", None, None),
    "lso": ("full", {"lso": True}, None),
    "gro": ("full", {"gro": True}, None),
    "lso-loss1": ("full", {"lso": True}, "loss=0.01"),
    "toe-loss1": ("toe", None, "loss=0.01"),
    "gro-reorder2": ("full", {"gro": True}, "reorder=0.02"),
}
OFFLOAD_CELLS = (
    ("tx-65536-toe", "tx", 65536, "toe"),
    ("rx-65536-toe", "rx", 65536, "toe"),
    ("tx-65536-lso", "tx", 65536, "lso"),
    ("rx-65536-gro", "rx", 65536, "gro"),
    ("tx-65536-lso-loss1", "tx", 65536, "lso-loss1"),
    ("tx-65536-toe-loss1", "tx", 65536, "toe-loss1"),
    ("rx-65536-toe-loss1", "rx", 65536, "toe-loss1"),
    ("rx-65536-gro-reorder2", "rx", 65536, "gro-reorder2"),
)

#: Peer-mode cells.  The classic cells only ever run the sink/source
#: peer with a clean wire; these pin the iSCSI initiator and web client
#: peers, and -- under wire loss -- every receiving peer's gap
#: (out-of-order buffer plus duplicate ACK) and duplicate arms.  Each
#: mode maps to ``(workload, affinity, faults)``.
PEER_KNOBS = {
    "iscsi-none": ("iscsi", "none", None),
    "iscsi-full": ("iscsi", "full", None),
    "web-none": ("web", "none", None),
    "web-full": ("web", "full", None),
    "full-loss1": ("ttcp", "full", "loss=0.01"),
    "iscsi-full-loss1": ("iscsi", "full", "loss=0.01"),
    "web-full-loss2": ("web", "full", "loss=0.02"),
}
PEER_CELLS = (
    ("iscsi-8192-none", "rx", 8192, "iscsi-none"),
    ("iscsi-8192-full", "rx", 8192, "iscsi-full"),
    ("web-4096-none", "rx", 4096, "web-none"),
    ("web-4096-full", "rx", 4096, "web-full"),
    ("tx-16384-full-loss1", "tx", 16384, "full-loss1"),
    ("iscsi-8192-full-loss1", "rx", 8192, "iscsi-full-loss1"),
    ("web-16384-full-loss2", "rx", 16384, "web-full-loss2"),
)


def _config(direction, size, mode, seed=7):
    # Small windows keep the 36-cell matrix affordable in tier-1; the
    # hash covers the full payload, so even tiny windows pin every
    # counter the simulator produces.
    if mode in MQ_MODES:
        # The steering modes run on one shared 4-queue NIC with more
        # flows than queues, so the Flow Director cells exercise
        # queue sharing and filter retargets.
        return ExperimentConfig(
            direction=direction,
            message_size=size,
            affinity=mode,
            n_connections=8,
            n_cpus=4,
            n_queues=4,
            warmup_ms=2,
            measure_ms=3,
            seed=seed,
        )
    if mode in PEER_KNOBS:
        workload, affinity, faults = PEER_KNOBS[mode]
        return ExperimentConfig(
            direction=direction,
            message_size=size,
            affinity=affinity,
            workload=workload,
            faults=faults,
            n_connections=4,
            warmup_ms=2,
            measure_ms=3,
            seed=seed,
        )
    affinity, net_overrides, faults = OFFLOAD_KNOBS.get(
        mode, (mode, None, None))
    return ExperimentConfig(
        direction=direction,
        message_size=size,
        affinity=affinity,
        faults=faults,
        n_connections=4,
        warmup_ms=2,
        measure_ms=3,
        seed=seed,
        **({} if net_overrides is None
           else {"net_overrides": net_overrides})
    )


def _cell(direction, size, mode):
    result = run_experiment(_config(direction, size, mode))
    payload = result.to_dict()
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return payload, digest


def _load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


GOLDEN = _load_golden()

CELLS = [
    ("%s-%d-%s" % (d, s, m), d, s, m)
    for d in DIRECTIONS for s in SIZES for m in MODES + MQ_MODES
] + list(OFFLOAD_CELLS) + list(PEER_CELLS)


def test_golden_table_is_complete():
    assert sorted(GOLDEN) == sorted(key for key, _, _, _ in CELLS)


@pytest.mark.parametrize(
    "key,direction,size,mode",
    CELLS,
    ids=[key for key, _, _, _ in CELLS],
)
def test_golden_cell(key, direction, size, mode):
    want = GOLDEN[key]
    payload, digest = _cell(direction, size, mode)
    # Plain metrics first: when a model change is intentional, these
    # tell you *what* moved; the hash alone only tells you something
    # did.
    assert payload["busy_cycles"] == want["busy_cycles"]
    assert payload["total_bytes"] == want["total_bytes"]
    assert payload["window_cycles"] == want["window_cycles"]
    assert str(payload["throughput_gbps"]) == want["throughput_gbps"]
    got_bins = {b: v[:7] for b, v in payload["bins"].items()}
    assert got_bins == want["bins"]
    assert digest == want["sha256"]


def _regenerate(add_only=False):
    # ``--add`` records only the cells the table lacks, so growing the
    # matrix can never rewrite an existing digest.
    table = _load_golden() if add_only else {}
    for key, direction, size, mode in CELLS:
        if key in table:
            continue
        payload, digest = _cell(direction, size, mode)
        table[key] = {
            "sha256": digest,
            "busy_cycles": payload["busy_cycles"],
            "total_bytes": payload["total_bytes"],
            "window_cycles": payload["window_cycles"],
            "throughput_gbps": str(payload["throughput_gbps"]),
            "bins": {b: v[:7] for b, v in payload["bins"].items()},
        }
        print("%-16s %s" % (key, digest))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s (%d cells)" % (GOLDEN_PATH, len(table)))


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    elif "--add" in sys.argv:
        _regenerate(add_only=True)
    else:
        print(__doc__)
