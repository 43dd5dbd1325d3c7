"""Deterministic fault injection: plans, injector, invariants, sweeps.

The paper's testbed is loss-free; the fault subsystem exists so the
*simulator* can be trusted -- seeded wire faults exercise the stack's
recovery machinery (dup-ACK fast retransmit, RTO backoff, OOO
reassembly) while the invariant checker proves the simulation stayed
self-consistent, fault-free runs stay byte-identical, and parallel
lossy sweeps equal serial ones.
"""

import json

import pytest

from repro.apps.ttcp import TtcpWorkload
from repro.core.experiment import ExperimentConfig, ResultCache, run_experiment
from repro.core.parallel import SweepRunner
from repro.cpu.events import CYCLES
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    SimulationInvariantError,
)
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.stack import NetworkStack

MS = 2_000_000  # cycles per millisecond at the modelled 2 GHz


def _cfg(faults, **overrides):
    base = dict(
        direction="tx",
        message_size=1024,
        affinity="none",
        n_connections=2,
        warmup_ms=1,
        measure_ms=6,
        seed=3,
        faults=faults,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _canon(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _fault_data(result):
    faults = result.to_dict().get("faults")
    assert faults is not None, "faulted run must report fault counters"
    return faults


def _function_cycles(result, name):
    """Total cycles attributed to ``name``, plus its bin."""
    total, bin = 0, None
    for fns in result["per_cpu_functions"].values():
        entry = fns.get(name)
        if entry is not None:
            bin = entry["bin"]
            total += entry["events"][CYCLES]
    return total, bin


# ---------------------------------------------------------------------------
# FaultPlan: parsing, validation, serialization
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_parsing_with_aliases(self):
        plan = FaultPlan.from_spec(
            "loss=0.01, depth=4, dup=0.02, irq=0.1, rto_ms=3"
        )
        assert plan.loss == 0.01
        assert plan.reorder_depth == 4
        assert plan.duplicate == 0.02
        assert plan.irq_delay == 0.1
        assert plan.rto_ms == 3
        assert plan.enabled

    def test_drop_is_an_alias_for_loss(self):
        assert FaultPlan.from_spec("drop=0.5").loss == 0.5

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.from_spec("banana=1")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="not a rate"):
            FaultPlan(loss=1.5)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            FaultPlan(direction="sideways")

    def test_coerce_round_trips(self):
        plan = FaultPlan(loss=0.1)
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()).loss == 0.1
        assert FaultPlan.coerce("loss=0.1").loss == 0.1

    def test_empty_plan_is_disabled(self):
        assert not FaultPlan().enabled
        assert FaultPlan(rto_ms=5).enabled is False  # rto alone injects nothing


# ---------------------------------------------------------------------------
# Cache-key stability: fault-free configs are unchanged
# ---------------------------------------------------------------------------


class TestCacheKeyStability:
    def test_fault_free_config_dict_has_no_faults_key(self):
        cfg = _cfg(None)
        assert "faults" not in cfg.to_dict()
        assert not cfg.label().endswith("+faults")

    def test_faulted_config_is_keyed_apart(self):
        plain = _cfg(None)
        lossy = _cfg("loss=0.01")
        assert plain.key() != lossy.key()
        assert lossy.label().endswith("+faults")
        assert lossy.to_dict()["faults"]["loss"] == 0.01

    def test_fault_free_artefacts_identical_with_and_without_subsystem(self):
        # faults=None must not perturb the simulation at all.
        a = run_experiment(_cfg(None, measure_ms=2))
        b = run_experiment(_cfg(None, measure_ms=2))
        assert _canon(a) == _canon(b)
        assert "faults" not in a.to_dict()


# ---------------------------------------------------------------------------
# Injected faults drive the recovery machinery (issue satellite d)
# ---------------------------------------------------------------------------


class TestRecoveryUnderFaults:
    @pytest.fixture(scope="class")
    def lossy(self):
        return run_experiment(_cfg("loss=0.25,rto_ms=3"))

    def test_lossy_plan_fires_rtos(self, lossy):
        faults = _fault_data(lossy)
        assert faults["injected"]["drops"] > 0
        assert faults["rto_fires"] > 0

    def test_lossy_plan_charges_retransmit_path(self, lossy):
        cycles, bin = _function_cycles(lossy, "tcp_retransmit_skb")
        assert cycles > 0
        assert bin == "engine"

    def test_reorder_only_fast_retransmits_without_rtos(self):
        result = run_experiment(
            _cfg("reorder=0.08,depth=4,rto_ms=5", direction="rx")
        )
        faults = _fault_data(result)
        assert faults["injected"]["reorders"] > 0
        assert faults["rto_fires"] == 0
        assert faults["fast_retransmits"] + faults["peer_retransmits"] > 0
        assert faults["dup_acks"] > 0
        assert faults["reorder_depth_peak"] >= 1

    def test_duplicates_are_absorbed(self):
        result = run_experiment(_cfg("dup=0.05", direction="rx"))
        faults = _fault_data(result)
        assert faults["injected"]["dups"] > 0
        assert faults["sut_dup_segments"] > 0

    def test_irq_delay_counted(self):
        result = run_experiment(_cfg("irq=0.3,irq_delay_us=120"))
        faults = _fault_data(result)
        assert faults["irqs_delayed"] > 0

    def test_plan_drop_every_n_subsumes_legacy_knob(self):
        result = run_experiment(_cfg("drop_every_n=40,rto_ms=3"))
        faults = _fault_data(result)
        assert faults["injected"]["drops"] > 0
        assert faults["retransmitted_segments"] + faults["peer_retransmits"] > 0

    def test_lossy_multiqueue_receive_recovers(self):
        # A shared multi-queue NIC's peer is a PeerMux fanning out to
        # the connections' peers; the injector must reach those.
        result = run_experiment(_cfg(
            "loss=0.1,rto_ms=3", direction="rx", affinity="rss",
            n_queues=2, n_cpus=2, n_connections=4,
        ))
        faults = _fault_data(result)
        assert faults["injected"]["drops"] > 0
        assert faults["peer_retransmits"] > 0
        assert result.total_bytes > 0

    def test_lossy_run_is_deterministic(self):
        a = run_experiment(_cfg("loss=0.1,reorder=0.02,dup=0.02,rto_ms=3"))
        b = run_experiment(_cfg("loss=0.1,reorder=0.02,dup=0.02,rto_ms=3"))
        assert _canon(a) == _canon(b)


# ---------------------------------------------------------------------------
# Parallel lossy sweep == serial lossy sweep
# ---------------------------------------------------------------------------


class TestLossySweepParity:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        configs = [
            _cfg("loss=0.1,rto_ms=3", message_size=size, measure_ms=3)
            for size in (1024, 8192)
        ]
        serial = [run_experiment(c) for c in configs]
        runner = SweepRunner(jobs=2, cache=ResultCache(str(tmp_path)))
        parallel = runner.run(configs)
        assert runner.report.ok
        for s, p in zip(serial, parallel):
            assert _canon(s) == _canon(p)


# ---------------------------------------------------------------------------
# InvariantChecker: silent on healthy runs, loud on corruption
# ---------------------------------------------------------------------------


def _build(seed=21, faults=None):
    machine = Machine(n_cpus=2, seed=seed)
    stack = NetworkStack(machine, NetParams(rto_ms=10), n_connections=2,
                         mode="tx", message_size=4096)
    workload = TtcpWorkload(machine, stack, 4096)
    workload.spawn_all()
    if faults is not None:
        FaultInjector(machine, FaultPlan.coerce(faults)).attach(stack)
    machine.start()
    machine.run_for(10 * MS)
    return machine, stack


class TestInvariantChecker:
    def test_healthy_run_passes(self):
        machine, stack = _build()
        InvariantChecker(machine, stack).check()  # must not raise

    def test_faulted_run_passes(self):
        machine, stack = _build(faults="loss=0.05,reorder=0.02,dup=0.02")
        InvariantChecker(machine, stack).check()

    def test_seeded_stream_corruption_detected(self):
        machine, stack = _build()
        stack.connections[0].sock.rcv_nxt += 1  # simulate a lost byte
        with pytest.raises(SimulationInvariantError) as err:
            InvariantChecker(machine, stack).check()
        assert err.value.violations

    def test_seeded_double_free_detected(self):
        machine, stack = _build()
        cache = stack.pools.head_cache
        obj = cache.alloc(0)
        cache.free(obj, 0)
        cache.free(obj, 0)  # deliberate double free
        with pytest.raises(SimulationInvariantError) as err:
            InvariantChecker(machine, stack).check()
        assert any("double" in v for v in err.value.violations)

    def test_event_time_regression_detected(self):
        machine, stack = _build()
        machine.engine.monotonicity_violations += 1  # as if time ran backward
        with pytest.raises(SimulationInvariantError):
            InvariantChecker(machine, stack).check()

    def test_error_carries_event_trace_tail(self):
        machine, stack = _build(faults="loss=0.05")  # attach enables tracing
        machine.engine.monotonicity_violations += 1
        with pytest.raises(SimulationInvariantError) as err:
            InvariantChecker(machine, stack).check()
        assert err.value.trace  # recent events included for debugging


# ---------------------------------------------------------------------------
# Satellite a: Nic.reset_stats must reset tx_drops
# ---------------------------------------------------------------------------


class TestNicResetStats:
    def test_tx_drops_reset_with_the_window(self):
        machine, stack = _build()
        nic = stack.nics[0]
        nic.tx_drops = 7
        nic.irqs_delayed = 3
        nic.reset_stats()
        assert nic.tx_drops == 0
        assert nic.irqs_delayed == 0
