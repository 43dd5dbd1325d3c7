"""A clean cell simulates the same run at every seed.

Only two parts of the simulator draw random numbers: the fault plan
(``repro.faults.plan``) and the ``rotate`` mode's ``IrqRotator``.  A
cell with neither therefore produces the same payload at any seed,
``config.seed`` aside, and replicating it over seeds measures nothing.
Each check runs a golden-table cell at another seed and compares its
payload, with the seed field set back, against the digest the table
pins at seed 7.  A faulted cell draws its losses from the seed, so it
must differ: that control keeps the property from passing on a seed
that never reaches the simulation.
"""

import hashlib
import json

import pytest

from repro.core.experiment import run_experiment
from tests.test_golden_determinism import CELLS, GOLDEN, _config

#: The seed every golden cell runs at, and the one these checks use.
GOLDEN_SEED = 7
SEED = 11

CELL_ARGS = {key: (direction, size, mode)
             for key, direction, size, mode in CELLS}

CLEAN_CELLS = ("rx-65536-none", "tx-1024-full", "rx-16384-rss",
               "web-4096-full", "iscsi-8192-full")
LOSSY_CELL = "tx-16384-full-loss1"


def digest_at(seed, key):
    """SHA-256 of golden cell ``key`` run at ``seed``, its payload's
    seed field set to the golden seed."""
    payload = run_experiment(_config(*CELL_ARGS[key], seed=seed)).to_dict()
    assert payload["config"]["seed"] == seed
    payload["config"]["seed"] = GOLDEN_SEED
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("key", CLEAN_CELLS)
def test_clean_cell_payload_is_seed_invariant(key):
    assert digest_at(SEED, key) == GOLDEN[key]["sha256"]


def test_wire_loss_makes_the_payload_depend_on_the_seed():
    assert digest_at(SEED, LOSSY_CELL) != GOLDEN[LOSSY_CELL]["sha256"]
