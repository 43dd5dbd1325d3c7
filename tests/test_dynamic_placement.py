"""Tests for the dynamic interrupt-placement extensions."""

import pytest

from repro.apps.ttcp import TtcpWorkload
from repro.core.modes import EXTENDED_MODES, apply_affinity
from repro.kernel.interrupts import IrqRotator
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.rss import RssSteering
from repro.net.stack import NetworkStack

MS = 2_000_000


def record_retargets(machine, stack):
    """Every affinity mask written to a connection's interrupt line."""
    masks = []
    for conn in stack.connections:
        line = machine.ioapic.get(conn.nic.vector)

        def recording(mask, set_affinity=line.set_affinity):
            masks.append(mask)
            set_affinity(mask)

        line.set_affinity = recording
    return masks


def build(n=4, mode="tx"):
    machine = Machine(n_cpus=2, seed=6)
    stack = NetworkStack(machine, NetParams(), n_connections=n, mode=mode,
                         message_size=16384)
    workload = TtcpWorkload(machine, stack, 16384)
    tasks = workload.spawn_all()
    return machine, stack, tasks


class TestIrqRotator:
    def test_rotates_lines(self):
        machine, stack, _ = build()
        rotator = IrqRotator(
            machine, [n.vector for n in stack.nics],
            interval_cycles=1 * MS,
        )
        machine.start()
        machine.run_for(10 * MS)
        # It re-armed once per interval: the next rotation is due
        # after the run's end.
        assert rotator._pending.time >= 10 * MS
        # With random per-line assignment over 10 epochs, both CPUs
        # must have received interrupts.
        assert machine.procstat.total_device_interrupts(0) > 0
        assert machine.procstat.total_device_interrupts(1) > 0

    def test_single_cpu_epoch_mode(self):
        machine, stack, _ = build()
        IrqRotator(  # constructing arms it; the engine holds the ref
            machine, [n.vector for n in stack.nics],
            interval_cycles=1 * MS, per_line=False,
        )
        machine.start()
        machine.run_for(3 * MS)
        # All lines share one affinity mask per epoch.
        masks = {machine.ioapic.get(n.vector).smp_affinity
                 for n in stack.nics}
        assert len(masks) == 1

    def test_deterministic_across_seeds(self):
        seq = []
        for _ in range(2):
            machine, stack, _ = build()
            IrqRotator(machine, [n.vector for n in stack.nics],
                       interval_cycles=1 * MS)
            machine.start()
            machine.run_for(5 * MS)
            seq.append(tuple(
                machine.ioapic.get(n.vector).smp_affinity
                for n in stack.nics
            ))
        assert seq[0] == seq[1]


class TestRssSteering:
    def test_follows_process_placement(self):
        machine, stack, tasks = build()
        steering = RssSteering(machine, stack, tasks, interval_cycles=MS)
        # Pin tasks asymmetrically; the steering should chase them.
        for i, task in enumerate(tasks):
            machine.sched_setaffinity(task, 1 << (i % 2))
        machine.start()
        machine.run_for(8 * MS)
        # It re-armed once per interval.
        assert steering._pending.time >= 8 * MS
        for i, conn in enumerate(stack.connections):
            line = machine.ioapic.get(conn.nic.vector)
            assert line.smp_affinity == 1 << (i % 2)

    def test_requires_matching_tasks(self):
        machine, stack, tasks = build()
        with pytest.raises(ValueError):
            RssSteering(machine, stack, tasks[:-1])

    def test_retarget_counted_once_aligned(self):
        machine, stack, tasks = build()
        steering = RssSteering(machine, stack, tasks, interval_cycles=MS)
        retargets = record_retargets(machine, stack)
        machine.start()
        machine.run_for(10 * MS)
        # One steer per interval, the next one still pending.
        updates = steering._pending.time // MS - 1
        # After convergence retargets stop accumulating every epoch.
        assert len(retargets) < updates * len(tasks)

    def test_stop_cancels_pending_event(self):
        machine, stack, tasks = build()
        steering = RssSteering(machine, stack, tasks, interval_cycles=MS)
        machine.start()
        machine.run_for(5 * MS)
        pending = steering._pending
        steering.stop()
        # The scheduled steer is cancelled, not just flagged off.
        assert pending.cancelled
        assert steering._pending is None
        retargets = record_retargets(machine, stack)
        machine.run_for(10 * MS)
        assert retargets == []  # never fires again

    def test_stop_before_first_fire(self):
        machine, stack, tasks = build()
        steering = RssSteering(machine, stack, tasks, interval_cycles=MS)
        steering.stop()
        retargets = record_retargets(machine, stack)
        machine.start()
        machine.run_for(5 * MS)
        assert retargets == []

    def test_stop_idempotent(self):
        machine, stack, tasks = build()
        steering = RssSteering(machine, stack, tasks, interval_cycles=MS)
        steering.stop()
        steering.stop()


class TestApplyAffinityExtended:
    def test_modes_list(self):
        assert "rotate" in EXTENDED_MODES and "rss" in EXTENDED_MODES

    @pytest.mark.parametrize("mode", ["rotate", "rss"])
    def test_controller_installed(self, mode):
        machine, stack, tasks = build()
        applied = apply_affinity(machine, stack, tasks, mode)
        assert applied["controller"] is not None
        machine.start()
        machine.run_for(5 * MS)  # and it runs without error

    def test_rotator_stop_cancels_pending_event(self):
        machine, stack, _ = build()
        rotator = IrqRotator(machine, [n.vector for n in stack.nics],
                             interval_cycles=MS)
        machine.start()
        machine.run_for(5 * MS)
        pending = rotator._pending
        rotator.stop()
        masks = [machine.ioapic.get(n.vector).smp_affinity
                 for n in stack.nics]
        machine.run_for(10 * MS)
        assert pending.cancelled
        assert rotator._pending is None
        assert masks == [machine.ioapic.get(n.vector).smp_affinity
                         for n in stack.nics]

    @pytest.mark.parametrize("mode", ["rotate", "rss"])
    def test_experiment_stops_controller(self, mode, monkeypatch):
        """run_experiment tears the controller down at window end."""
        from repro.core import cell as cell_mod
        from repro.core import experiment as experiment_mod

        captured = {}
        real = cell_mod.apply_affinity

        def capturing(machine, stack, tasks, m):
            applied = real(machine, stack, tasks, m)
            captured.update(applied)
            return applied

        monkeypatch.setattr(cell_mod, "apply_affinity", capturing)
        config = experiment_mod.ExperimentConfig(
            direction="tx", message_size=16384, affinity=mode,
            n_connections=4, warmup_ms=4, measure_ms=6,
        )
        experiment_mod.run_experiment(config)
        controller = captured["controller"]
        assert controller._stopped
        assert controller._pending is None
