"""Shared fixtures for the paper-artefact benchmarks.

Experiments are expensive (each is a cycle-level simulation of tens of
milliseconds of a 2P server); they run once in session-scoped fixtures
and are disk-cached under ``.repro-results/`` so re-running the bench
suite is fast.  The ``benchmark`` fixture then times the (cheap)
analysis/rendering step, and every bench writes its rendered artefact
to ``results/``.
"""

import os

import pytest

from repro.core.experiment import (
    PAPER_SIZES,
    ExperimentConfig,
    ResultCache,
    run_experiment,
)
from repro.core.metrics import run_size_sweep
from repro.core.modes import AFFINITY_MODES
from repro.core.parallel import SweepRunner, default_jobs

#: Shorter windows for the 56-run Figure 3/4 sweeps; the characterization
#: corners (8 runs) use the full default windows.
SWEEP_KW = dict(warmup_ms=14, measure_ms=18)

#: Worker processes for uncached sweeps (``REPRO_JOBS`` or CPU count).
JOBS = default_jobs()

_CACHE = ResultCache()


def _progress(msg):
    # Visible with `pytest -s`; harmless otherwise.
    print("[repro] %s" % msg)


def _runner(jobs=JOBS):
    """A cached sweep runner with ``jobs`` workers."""
    return SweepRunner(jobs=jobs, cache=_CACHE, progress=_progress)


@pytest.fixture(scope="session")
def cache():
    return _CACHE


@pytest.fixture(scope="session")
def artifacts_dir():
    path = os.environ.get("REPRO_ARTIFACTS_DIR", "results")
    os.makedirs(path, exist_ok=True)
    return path


def write_artifact(artifacts_dir, name, text):
    path = os.path.join(artifacts_dir, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def corner(direction, size, affinity):
    """One full-length characterization run (cached)."""
    config = ExperimentConfig(
        direction=direction, message_size=size, affinity=affinity
    )
    return run_experiment(config, cache=_CACHE, progress=_progress)


def _pair(direction, size):
    """A (none, full) characterization pair, run in parallel when
    the cache is cold and more than one worker is available."""
    configs = [
        ExperimentConfig(
            direction=direction, message_size=size, affinity=affinity
        )
        for affinity in ("none", "full")
    ]
    none, full = _runner(min(JOBS, 2)).run(configs)
    return none, full


@pytest.fixture(scope="session")
def tx64_pair():
    return _pair("tx", 65536)


@pytest.fixture(scope="session")
def tx128_pair():
    return _pair("tx", 128)


@pytest.fixture(scope="session")
def rx64_pair():
    return _pair("rx", 65536)


@pytest.fixture(scope="session")
def rx128_pair():
    return _pair("rx", 128)


@pytest.fixture(scope="session")
def tx_sweep():
    """Figure 3/4 grid, transmit direction (28 runs, cached)."""
    return run_size_sweep(
        "tx", sizes=PAPER_SIZES, modes=AFFINITY_MODES, runner=_runner(),
        **SWEEP_KW
    )


@pytest.fixture(scope="session")
def rx_sweep():
    """Figure 3/4 grid, receive direction (28 runs, cached)."""
    return run_size_sweep(
        "rx", sizes=PAPER_SIZES, modes=AFFINITY_MODES, runner=_runner(),
        **SWEEP_KW
    )
