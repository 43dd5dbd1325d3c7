"""Pure vs compiled engine on whole experiments drawn at random.

The golden table pins 40 configurations and
``test_engine_equivalence.py`` compares the engines state by state on
tiny component scripts.  This suite covers the config space between
them: hypothesis draws small experiments -- direction, message size,
the paper's four affinity modes plus two-queue RSS, machine size,
connection count, fault-free or lossy wire, seed -- and requires the
full result payload to hash identically under both engines.  The
draw is derandomized, so a failure replays exactly.
"""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.modes import AFFINITY_MODES
from repro.cpu.engine import load_core

pytestmark = pytest.mark.skipif(
    load_core() is None, reason="compiled engine unavailable (no cc?)")


def _payload_sha(config, engine):
    saved = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = engine
    try:
        result = run_experiment(config)
    finally:
        if saved is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = saved
    assert result.charge_engine == engine
    return hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()


@st.composite
def configs(draw):
    mode = draw(st.sampled_from(AFFINITY_MODES + ("rss",)))
    return ExperimentConfig(
        direction=draw(st.sampled_from(("tx", "rx"))),
        message_size=draw(st.sampled_from((128, 1024, 16384, 65536))),
        affinity=mode,
        n_queues=2 if mode == "rss" else 1,
        n_cpus=draw(st.sampled_from((2, 4))),
        n_connections=draw(st.integers(min_value=2, max_value=8)),
        faults=draw(st.sampled_from((None, "loss=0.01"))),
        warmup_ms=1,
        measure_ms=1,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


@settings(derandomize=True, max_examples=12, deadline=None)
@given(configs())
def test_payload_identical_under_both_engines(config):
    assert _payload_sha(config, "pure") == _payload_sha(config, "compiled")
