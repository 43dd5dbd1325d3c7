"""Machine-level equivalence of the pure and compiled charging engines.

The differential suite (test_engine_equivalence) drives a pure and a
compiled ``Machine`` through random scripts and compares every cache,
TLB, predictor, directory and accounting state after each operation.
This suite closes the loop end to end: whole experiments run under
``engine="pure"`` and ``engine="compiled"`` must produce
byte-identical result payloads -- throughput, per-bin profiles,
coherence counters, everything the paper's tables are built from --
and it pins the compiled machine's surface: engine selection, charge
bookkeeping, the C directory rehash and the no-toolchain fallback.

Skips cleanly when the compiled engine cannot be built (no toolchain):
the pure engine is the reference and needs no C compiler.
"""

import json
import random
import sysconfig
import warnings

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.cpu import engine as engine_mod
from repro.cpu.engine import load_core, resolve_engine
from repro.cpu.events import SKID_PERIOD
from repro.kernel.machine import Machine
from repro.mem.directory import META_GENERATION, LineDirectory
from repro.mem.layout import CACHE_LINE

compiled_available = load_core() is not None
needs_compiled = pytest.mark.skipif(
    not compiled_available, reason="compiled engine unavailable (no cc?)")

MS = 2_000_000


def run_payload(config, engine, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    result = run_experiment(config, cache=None)
    assert result.charge_engine == engine
    return json.dumps(result._data, sort_keys=True, default=str)


class TestEngineSelection:
    def test_default_is_pure(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        name, core = resolve_engine()
        assert name == "pure" and core is None

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "pure")
        assert resolve_engine()[0] == "pure"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        name, core = resolve_engine("pure")
        assert name == "pure" and core is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("jit")

    def test_machine_records_engine(self):
        assert Machine(n_cpus=2, engine="pure").charge_engine == "pure"

    @needs_compiled
    def test_compiled_resolves(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        name, core = resolve_engine("compiled")
        assert name == "compiled" and core is not None
        assert resolve_engine("auto") == (name, core)


@needs_compiled
class TestExperimentEquivalence:
    """Whole-experiment payloads must match byte for byte."""

    def _compare(self, monkeypatch, **kwargs):
        cfg = ExperimentConfig(warmup_ms=2, measure_ms=4, **kwargs)
        pure = run_payload(cfg, "pure", monkeypatch)
        compiled = run_payload(cfg, "compiled", monkeypatch)
        assert pure == compiled

    def test_rx_no_affinity(self, monkeypatch):
        self._compare(monkeypatch, direction="rx", message_size=4096,
                      affinity="none", seed=3)

    def test_tx_full_affinity(self, monkeypatch):
        self._compare(monkeypatch, direction="tx", message_size=8192,
                      affinity="full", seed=5)

    def test_multiqueue_rss(self, monkeypatch):
        self._compare(monkeypatch, direction="rx", message_size=4096,
                      affinity="rss", n_cpus=4, n_queues=4, seed=7)

    def test_web_workload(self, monkeypatch):
        self._compare(monkeypatch, workload="web", direction="rx",
                      message_size=4096, affinity="none", seed=2)

    def test_faulted_run(self, monkeypatch):
        self._compare(monkeypatch, direction="rx", message_size=4096,
                      affinity="none", seed=4, faults="loss=0.01")


@needs_compiled
class TestHyperthreadingEquivalence:
    """SMT machines share per-core array state between siblings; the
    full stack must still match the reference engine exactly."""

    def _run(self, engine):
        from repro.apps.ttcp import TtcpWorkload
        from repro.core.modes import apply_affinity
        from repro.net.params import NetParams
        from repro.net.stack import NetworkStack

        machine = Machine(n_cpus=2, hyperthreading=True, seed=11,
                          engine=engine)
        stack = NetworkStack(machine, NetParams(), n_connections=4,
                             mode="rx", message_size=4096)
        workload = TtcpWorkload(machine, stack, 4096)
        tasks = workload.spawn_all()
        apply_affinity(machine, stack, tasks, "full")
        machine.start()
        stack.start_peers()
        machine.run_for(2 * MS)
        machine.reset_measurement()
        machine.run_for(4 * MS)
        return {
            "totals": [list(c.totals) for c in machine.cpus],
            "busy": [c.busy_cycles for c in machine.cpus],
            "invalidations": machine.memsys.invalidations,
            "c2c": machine.memsys.c2c_transfers,
            "per_bin": {k: list(v)
                        for k, v in machine.accounting.per_bin().items()},
        }

    def test_ht_machine_matches(self):
        assert self._run("pure") == self._run("compiled")


@needs_compiled
class TestCompiledMachineSurface:
    """The machine layer's between-charge surface on CompiledCpu."""

    def test_reset_measurement(self):
        machine = Machine(n_cpus=2, engine="compiled")
        fn = machine.functions.register("t", "engine", branch_frac=0.1)
        machine.cpus[0].charge(fn, 200, reads=[(4096, 256)])
        machine.reset_measurement()
        assert all(v == 0 for v in machine.cpus[0].totals)
        assert machine.accounting.rows() == []
        assert machine.memsys.invalidations == 0
        more = machine.cpus[0].charge(fn, 200, reads=[(4096, 256)])
        assert more > 0 and machine.accounting.rows()

    def test_machine_clear_records(self):
        machine = Machine(n_cpus=2, engine="compiled")
        fn = machine.functions.register("t", "engine")
        cycles = machine.cpus[0].machine_clear(fn, 30)
        assert cycles == machine.costs.machine_clear
        ((key, vec),) = machine.accounting.rows()
        assert key == (0, fn)
        assert vec[-1] == 30  # machine clears ride the last event slot


def _bookkeeping(cpu):
    return (cpu.now, cpu.busy_cycles, cpu.last_spec.name,
            cpu.skid_spec.name if cpu.skid_spec is not None else None,
            list(cpu.totals))


@needs_compiled
class TestChargeBookkeeping:
    """The compiled engine keeps the clock, busy-cycle and oprofile
    skid bookkeeping in C; after every charge it must equal the pure
    engine's, in every calling form the machine uses."""

    def _script(self, engine):
        machine = Machine(n_cpus=1, hyperthreading=True, seed=5,
                          engine=engine)
        specs = [
            machine.functions.register("bk%d" % i, "engine",
                                       branch_frac=0.05 * (i + 1),
                                       stall_per_call=40 * i)
            for i in range(3)
        ]
        cpu, sibling = machine.cpus
        sibling.recent_load = 0.37
        states = []
        for k in range(90):
            spec = specs[k % 3]
            addr = 4096 * (1 + k % 7)
            form = k % 4
            if form == 0:  # ExecContext.charge: all seven positional
                cpu.charge(spec, 300 + 17 * k, [(addr, 256)], [(addr, 64)],
                           200 * (k % 5), None, None)
            elif form == 1:  # Machine._dispatch
                cpu.charge(spec, 260, reads=[(addr, 256)],
                           writes=[(addr, 64)], extra_cycles=1500)
            elif form == 2:  # Machine._charge_spin_wait
                cpu.charge(spec, 40 + k, reads=[(addr, 4)],
                           writes=[(addr, 4)], branches=9, mispredicts=1,
                           extra_cycles=90)
            else:  # tick / IPI: reads only
                cpu.charge(spec, 60, reads=[(addr, 64)])
            states.append(_bookkeeping(cpu))
        return states

    def test_matches_pure_charge_for_charge(self):
        pure = self._script("pure")
        compiled = self._script("compiled")
        # The script must exercise what it claims to: several skid
        # samples, and a sibling slowdown on every charge.
        assert pure[-1][0] > 5 * SKID_PERIOD
        assert len({state[3] for state in pure}) > 2
        for k, (p, c) in enumerate(zip(pure, compiled)):
            assert p == c, "diverged at charge %d" % k

    def test_sibling_must_be_a_compiled_cpu(self):
        machine = Machine(n_cpus=2, engine="compiled")
        with pytest.raises(TypeError):
            machine.cpus[0].sibling = object()
        machine.cpus[0].sibling = None
        assert machine.cpus[0].sibling is None


@needs_compiled
class TestDirectoryGrowth:
    """The C core rehashes a growing directory itself; the result must
    equal LineDirectory._grow's slot for slot."""

    def test_c_growth_matches_python_grow(self):
        machine = Machine(n_cpus=2, engine="compiled")
        memsys = machine.memsys
        small = LineDirectory(initial_slots=16)
        memsys.directory = small
        # Rebuild the engine state over the small directory.
        state = load_core().build_state({
            "registry": machine.registry,
            "accounting": machine.accounting,
            "memsys": memsys,
            "costs": machine.costs,
            "cpus": machine.cpus,
            "skid_period": SKID_PERIOD,
        })
        memsys.bind_state(load_core(), state)
        fn = machine.functions.register("grow", "engine")
        cpu0, cpu1 = machine.cpus
        inserted = []
        # Scattered lines, so every doubling rehashes colliding keys
        # (an arithmetic progression would hash collision-free).
        lines = random.Random(7).sample(range(5000, 1 << 20), 200)
        for k, line in enumerate(lines):
            if k % 2:
                cpu1.charge(fn, 10, writes=[(line * CACHE_LINE, 8)])
                inserted.append((line, 1 << cpu1.domain, cpu1.domain))
            else:
                cpu0.charge(fn, 10, reads=[(line * CACHE_LINE, 8)])
                inserted.append((line, 1 << cpu0.domain, -1))
        assert len(small) == len(inserted) == 200
        assert small._meta[META_GENERATION] >= 4  # grew 16 -> 512
        oracle = LineDirectory(initial_slots=16)
        for line, sharers, owner in inserted:
            oracle.insert(line, sharers, owner)
        assert small._meta[META_GENERATION] == oracle._meta[META_GENERATION]
        assert small._keys == oracle._keys
        assert small._sharers == oracle._sharers
        assert small._owner == oracle._owner


class TestNoToolchain:
    """An unusable compiler: explicit requests warn and fall back,
    ``auto`` falls back silently, machines run on the pure engine."""

    @pytest.fixture
    def no_cc(self, monkeypatch, tmp_path):
        real = sysconfig.get_config_var

        def config_var(name):
            if name == "CC":
                return str(tmp_path / "no-such-cc")
            return real(name)

        monkeypatch.setattr(sysconfig, "get_config_var", config_var)
        monkeypatch.setenv("REPRO_ENGINE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(engine_mod, "_core_module", engine_mod._UNSET)
        monkeypatch.setattr(engine_mod, "_core_error", None)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)

    def test_compiled_warns_and_falls_back(self, no_cc):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_engine("compiled") == ("pure", None)

    def test_auto_falls_back_silently(self, no_cc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_engine("auto") == ("pure", None)

    def test_machine_runs_pure(self, no_cc):
        with pytest.warns(RuntimeWarning):
            machine = Machine(n_cpus=2, engine="compiled")
        assert machine.charge_engine == "pure"
