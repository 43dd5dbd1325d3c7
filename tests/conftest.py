"""Shared fixtures: a minimal simulated machine for unit tests."""

import os
import tempfile

import pytest

# Studies journal into the run store and cache their cells by default;
# point both into one throwaway directory, removed when the session's
# interpreter exits, so CLI tests never litter results/runs/ or
# .repro-results/ in the working tree, and never replay a cell a
# previous test session cached instead of simulating it.  setdefault
# keeps an explicit REPRO_RUNS_DIR / REPRO_RESULTS_DIR (e.g. a
# subprocess crash/resume test's) authoritative.
_SESSION_DIR = tempfile.TemporaryDirectory(prefix="repro-tests-")
os.environ.setdefault(
    "REPRO_RUNS_DIR", os.path.join(_SESSION_DIR.name, "runs")
)
os.environ.setdefault(
    "REPRO_RESULTS_DIR", os.path.join(_SESSION_DIR.name, "results")
)

from repro.cpu.core import Cpu
from repro.cpu.function import FunctionTable
from repro.cpu.params import CacheGeometry, CostModel, CpuParams, TlbGeometry
from repro.mem.layout import AddressSpace
from repro.mem.system import MemorySystem
from repro.prof.accounting import ExactAccounting


@pytest.fixture
def space():
    return AddressSpace()


@pytest.fixture
def functions(space):
    return FunctionTable(space)


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def tiny_params():
    """Small caches so capacity effects are easy to trigger in tests."""
    return CpuParams(
        l1=CacheGeometry(1024, 4, name="L1D"),
        l2=CacheGeometry(4096, 4, name="L2"),
        l3=CacheGeometry(16384, 4, name="L3"),
        itlb=TlbGeometry(4, name="ITLB"),
        dtlb=TlbGeometry(4, name="DTLB"),
        trace_cache=CacheGeometry(2048, 4, name="TC"),
    )


@pytest.fixture
def rig(tiny_params, costs):
    """Two CPUs sharing a memory system, plus exact accounting."""

    class Rig:
        pass

    r = Rig()
    r.space = AddressSpace()
    r.functions = FunctionTable(r.space)
    r.memsys = MemorySystem()
    r.accounting = ExactAccounting()
    r.costs = costs
    r.cpus = [
        Cpu(i, tiny_params, costs, r.memsys, r.accounting) for i in range(2)
    ]
    r.fn = r.functions.register("test_fn", "engine", branch_frac=0.0)
    return r


@pytest.fixture
def full_params():
    """Paper-sized caches for integration-grade unit tests."""
    return CpuParams()


def _small_config(**overrides):
    from repro.core.experiment import ExperimentConfig

    base = dict(
        direction="tx",
        message_size=65536,
        affinity="none",
        n_connections=4,
        warmup_ms=8,
        measure_ms=12,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="session")
def tx_pair():
    """A (no-affinity, full-affinity) result pair on a reduced TX
    configuration -- shared by all analysis tests (runs are seconds)."""
    from repro.core.experiment import run_experiment

    none = run_experiment(_small_config(affinity="none"))
    full = run_experiment(_small_config(affinity="full"))
    return none, full


@pytest.fixture(scope="session")
def rx_pair():
    """Same for the receive direction."""
    from repro.core.experiment import run_experiment

    none = run_experiment(_small_config(direction="rx", affinity="none"))
    full = run_experiment(_small_config(direction="rx", affinity="full"))
    return none, full


@pytest.fixture(scope="session")
def tx8_pair():
    """Paper-scale (8-connection) TX pair: saturates CPU0 in the
    no-affinity mode, which the machine-clear analyses depend on."""
    from repro.core.experiment import run_experiment

    none = run_experiment(
        _small_config(affinity="none", n_connections=8, measure_ms=15)
    )
    full = run_experiment(
        _small_config(affinity="full", n_connections=8, measure_ms=15)
    )
    return none, full
